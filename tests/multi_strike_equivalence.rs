//! Multi-strike stream equivalence (ISSUE 5).
//!
//! Three layers of validation for overlapping-strike streams:
//!
//! 1. **Degeneration is exact**: a [`MultiStrike`] holding a single strike
//!    at onset 0 must produce *bit-identical* streams to the original
//!    [`StreamFault::Strike`] arm, on both samplers — the multi-strike
//!    combination path introduces no new arithmetic for the single-event
//!    case (its complement-product update starts from zero).
//! 2. **The frame sampler matches the tableau oracle in distribution**:
//!    per-round detection-event rates of two-strike streams agree to
//!    Monte-Carlo tolerance where the frame path is exact (repetition
//!    codes under every fault), and stay within the documented
//!    erasure-approximation envelope for strikes on entangled XXZZ data
//!    (the substitution biases event rates *upward* — it can only make
//!    strikes easier to see; see `radqec_stabilizer`).
//! 3. **Golden digests**: one pinned multi-strike stream per sampler —
//!    any change to the onset clocks, the probability combination or the
//!    executor's draw order shows up as an FNV mismatch. To re-capture
//!    (only when a stream-breaking change is *intended*):
//!    `cargo test --release --test multi_strike_equivalence -- --ignored --nocapture`.

use radqec_circuit::ShotBatch;
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::injection::SamplerKind;
use radqec_core::streaming::{MultiStrike, StreamEngine, StreamFault, StrikeEvent};
use radqec_detect::EventStream;
use radqec_noise::{NoiseSpec, RadiationModel};

const ROUNDS: usize = 8;
const SHOTS: usize = 2048;

fn engine(spec: CodeSpec, rounds: usize, shots: usize, sampler: SamplerKind) -> StreamEngine {
    StreamEngine::builder(spec, rounds).shots(shots).seed(0x3157).sampler(sampler).native().build()
}

fn two_strikes(root_a: u32, root_b: u32, onset_b: usize) -> StreamFault {
    let model = RadiationModel::default();
    StreamFault::MultiStrike(
        MultiStrike::try_new(vec![
            StrikeEvent { model, root: root_a, onset_round: 0, decay_rounds: None },
            StrikeEvent { model, root: root_b, onset_round: onset_b, decay_rounds: None },
        ])
        .expect("onsets are ordered"),
    )
}

/// Mean detection events per shot at each round.
fn per_round_rates(engine: &StreamEngine, fault: &StreamFault, noise: &NoiseSpec) -> Vec<f64> {
    let spec = engine.stream_spec();
    let mut sums = vec![0u64; engine.rounds()];
    for batch in engine.stream_batches(fault, noise) {
        let events = EventStream::extract(&batch, spec);
        for (r, sum) in sums.iter_mut().enumerate() {
            *sum += events.round_total(r);
        }
    }
    sums.into_iter().map(|s| s as f64 / engine.shots() as f64).collect()
}

#[test]
fn single_strike_multistrike_streams_are_bit_identical() {
    let model = RadiationModel::default();
    let noise = NoiseSpec::paper_default();
    for spec in [CodeSpec::from(RepetitionCode::bit_flip(3)), CodeSpec::from(XxzzCode::new(3, 3))] {
        for sampler in [SamplerKind::FrameBatch, SamplerKind::Tableau] {
            let eng = engine(spec, 5, 200, sampler);
            let single = eng.stream_batches(&StreamFault::Strike { model, root: 2 }, &noise);
            let multi = eng.stream_batches(
                &StreamFault::MultiStrike(
                    MultiStrike::try_new(vec![StrikeEvent {
                        model,
                        root: 2,
                        onset_round: 0,
                        decay_rounds: None,
                    }])
                    .unwrap(),
                ),
                &noise,
            );
            assert_eq!(
                single,
                multi,
                "{} {sampler:?}: lone multi-strike must degenerate bit-identically",
                spec.name()
            );
        }
    }
}

/// Repetition codes are exact on the frame path under every fault: every
/// per-round event rate of a two-strike stream must agree with the
/// tableau oracle to Monte-Carlo precision.
#[test]
fn two_strike_frame_rates_match_tableau_where_exact() {
    let spec: CodeSpec = RepetitionCode::bit_flip(5).into();
    let fault = two_strikes(0, 8, 4);
    let noise = NoiseSpec::paper_default();
    let frame =
        per_round_rates(&engine(spec, ROUNDS, SHOTS, SamplerKind::FrameBatch), &fault, &noise);
    let tableau =
        per_round_rates(&engine(spec, ROUNDS, SHOTS, SamplerKind::Tableau), &fault, &noise);
    for r in 0..ROUNDS {
        let tol = 0.15 + 0.1 * tableau[r].max(frame[r]);
        assert!(
            (frame[r] - tableau[r]).abs() < tol,
            "round {r}: frame {:.3} vs tableau {:.3}",
            frame[r],
            tableau[r]
        );
    }
    // Both samplers must show the second burst: the onset round's rate
    // clearly exceeds the round before it (the first transient has
    // decayed by then).
    for (name, rates) in [("frame", &frame), ("tableau", &tableau)] {
        assert!(
            rates[4] > 1.5 * rates[3],
            "{name}: second strike's burst missing at its onset: {rates:?}"
        );
    }
}

/// Strikes on entangled XXZZ data: the erasure substitution may only
/// *raise* event rates (conservative), and both samplers must show the
/// two-burst temporal shape.
#[test]
fn xxzz_multi_strike_stays_within_erasure_envelope() {
    let spec: CodeSpec = XxzzCode::new(3, 3).into();
    let fault = two_strikes(12, 0, 4);
    let noise = NoiseSpec::paper_default();
    let frame =
        per_round_rates(&engine(spec, ROUNDS, SHOTS, SamplerKind::FrameBatch), &fault, &noise);
    let tableau =
        per_round_rates(&engine(spec, ROUNDS, SHOTS, SamplerKind::Tableau), &fault, &noise);
    for r in 0..ROUNDS {
        assert!(
            frame[r] > 0.6 * tableau[r] - 0.15,
            "round {r}: frame {:.3} under-detects vs tableau {:.3}",
            frame[r],
            tableau[r]
        );
        assert!(
            frame[r] < 1.6 * tableau[r] + 0.3,
            "round {r}: frame {:.3} wildly above tableau {:.3}",
            frame[r],
            tableau[r]
        );
    }
    // Burst shape over the intrinsic baseline (the final round is the
    // quietest — both transients have decayed; round 0 only carries the
    // deterministic-first-round detectors, so the first burst peaks at
    // round 1).
    for (name, rates) in [("frame", &frame), ("tableau", &tableau)] {
        let base = rates[ROUNDS - 1];
        let excess = |r: usize| rates[r] - base;
        assert!(excess(1) > 1.5 * excess(3).max(0.1), "{name}: first burst lost: {rates:?}");
        assert!(excess(5) > 1.2 * excess(3).max(0.1), "{name}: second burst missing: {rates:?}");
    }
}

/// Noiseless multi-strike streams: all events come from the strikes, so
/// the second onset must re-ignite an otherwise quieting stream.
#[test]
fn second_onset_reignites_a_noiseless_stream() {
    let eng = engine(RepetitionCode::bit_flip(5).into(), ROUNDS, 512, SamplerKind::FrameBatch);
    let rates = per_round_rates(&eng, &two_strikes(2, 6, 5), &NoiseSpec::noiseless());
    assert!(rates[0] > 0.0, "first impact must fire");
    assert!(rates[5] > rates[4], "onset round must out-fire the decayed tail: {rates:?}");
    assert!(rates[5] > rates[7], "and decay again after: {rates:?}");
}

/// FNV-1a over the batch grid: shot counts, widths and every row word
/// (the `tests/golden_stream.rs` digest, shared shape).
fn digest(batches: &[ShotBatch]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    mix(batches.len() as u64);
    for b in batches {
        mix(b.shots() as u64);
        mix(u64::from(b.num_clbits()));
        for c in 0..b.num_clbits() {
            for &w in b.row(c) {
                mix(w);
            }
        }
    }
    h
}

struct GoldenCase {
    name: &'static str,
    spec: CodeSpec,
    sampler: SamplerKind,
}

fn golden_cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            name: "rep3",
            spec: RepetitionCode::bit_flip(3).into(),
            sampler: SamplerKind::FrameBatch,
        },
        GoldenCase {
            name: "rep3",
            spec: RepetitionCode::bit_flip(3).into(),
            sampler: SamplerKind::Tableau,
        },
        GoldenCase {
            name: "xxzz33",
            spec: XxzzCode::new(3, 3).into(),
            sampler: SamplerKind::FrameBatch,
        },
    ]
}

fn run_golden(case: &GoldenCase) -> u64 {
    let eng = engine(case.spec, 6, 200, case.sampler);
    digest(&eng.stream_batches(&two_strikes(0, 4, 3), &NoiseSpec::paper_default()))
}

/// One pinned multi-strike stream per sampler (capture command in the
/// module docs).
const GOLDEN: &[(&str, &str, u64)] = &[
    ("rep3", "FrameBatch", 0x40afb398975e5883),
    ("rep3", "Tableau", 0xa48a63b6160b488e),
    ("xxzz33", "FrameBatch", 0xc7b5605bdcc32fa0),
];

#[test]
fn multi_strike_streams_match_golden_digests() {
    let cases = golden_cases();
    assert_eq!(cases.len(), GOLDEN.len(), "case list drifted from golden list");
    for (case, &(name, sampler, want)) in cases.iter().zip(GOLDEN) {
        assert_eq!(case.name, name);
        assert_eq!(format!("{:?}", case.sampler), sampler);
        assert_eq!(
            run_golden(case),
            want,
            "{name} {sampler}: multi-strike stream drifted from its pinned digest"
        );
    }
}

#[test]
#[ignore = "capture tool: prints the GOLDEN table from the current implementation"]
fn capture_golden_digests() {
    for case in golden_cases() {
        println!("    (\"{}\", \"{:?}\", 0x{:016x}),", case.name, case.sampler, run_golden(&case));
    }
}
