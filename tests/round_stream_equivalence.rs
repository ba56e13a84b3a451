//! Multi-round syndrome-streaming equivalence (ISSUE 3 satellite).
//!
//! Two layers of validation for the streaming pipeline behind
//! `radqec-detect`:
//!
//! 1. **Extraction is exact**: the word-parallel detection-event planes
//!    (`EventStream::extract`, one XOR per 64 shots) must be
//!    *bit-identical* to naive per-shot recomputation from the raw
//!    records — on batches from both samplers.
//! 2. **The frame sampler matches the tableau oracle in distribution**:
//!    per-round detection-event rates agree within Monte-Carlo tolerance
//!    wherever the frame path is exact (repetition codes under every
//!    fault; intrinsic-noise-only XXZZ), and within the documented
//!    erasure-approximation envelope for strikes on entangled XXZZ data
//!    (see `radqec_stabilizer`'s crate docs — the frame path
//!    over-randomizes, never under-detects).

use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::injection::SamplerKind;
use radqec_core::streaming::{StreamEngine, StreamFault};
use radqec_detect::EventStream;
use radqec_noise::{NoiseSpec, RadiationModel};

const ROUNDS: usize = 6;
const SHOTS: usize = 2048;

fn engine(spec: CodeSpec, sampler: SamplerKind) -> StreamEngine {
    StreamEngine::builder(spec, ROUNDS).shots(SHOTS).seed(0x57A7).sampler(sampler).native().build()
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
fn word_parallel_extraction_is_bit_identical_to_per_shot() {
    let fault = StreamFault::Strike { model: RadiationModel::default(), root: 2 };
    for spec in [CodeSpec::from(RepetitionCode::bit_flip(3)), CodeSpec::from(XxzzCode::new(3, 3))] {
        for sampler in [SamplerKind::FrameBatch, SamplerKind::Tableau] {
            let engine = StreamEngine::builder(spec, 4)
                .shots(200)
                .seed(11)
                .sampler(sampler)
                .native()
                .build();
            let stream_spec = engine.stream_spec();
            for batch in engine.stream_batches(&fault, &NoiseSpec::paper_default()) {
                let events = EventStream::extract(&batch, stream_spec);
                for shot in 0..batch.shots() {
                    for i in 0..stream_spec.num_stabs {
                        let mut prev = false;
                        for r in 0..stream_spec.rounds {
                            let syndrome = batch.get(stream_spec.cbit(r, i), shot);
                            let want = if r == 0 {
                                stream_spec.first_round_deterministic[i] && syndrome
                            } else {
                                syndrome != prev
                            };
                            assert_eq!(
                                events.event(r, i, shot),
                                want,
                                "{} {sampler:?} shot {shot} stab {i} round {r}",
                                engine.memory().name
                            );
                            prev = syndrome;
                        }
                    }
                }
            }
        }
    }
}

/// Exact configurations: every per-round event rate must agree to
/// Monte-Carlo precision (two independent draws of the same
/// distribution).
#[test]
fn frame_rates_match_tableau_where_exact() {
    let cases: Vec<(CodeSpec, StreamFault)> = vec![
        (RepetitionCode::bit_flip(3).into(), StreamFault::None),
        (
            RepetitionCode::bit_flip(3).into(),
            StreamFault::Strike { model: RadiationModel::default(), root: 2 },
        ),
        (
            RepetitionCode::bit_flip(5).into(),
            StreamFault::Strike { model: RadiationModel::default(), root: 4 },
        ),
        (XxzzCode::new(3, 3).into(), StreamFault::None),
    ];
    let noise = NoiseSpec::paper_default();
    for (spec, fault) in cases {
        let frame = per_round_rates(&engine(spec, SamplerKind::FrameBatch), &fault, &noise);
        let tableau = per_round_rates(&engine(spec, SamplerKind::Tableau), &fault, &noise);
        for r in 0..ROUNDS {
            // σ of a per-shot count mean at 2048 shots stays well under
            // 0.05 events for these workloads; 0.15 absolute + 10%
            // relative never flakes yet catches any systematic shift.
            let tol = 0.15 + 0.1 * tableau[r].max(frame[r]);
            assert!(
                (frame[r] - tableau[r]).abs() < tol,
                "{}: round {r} frame {:.3} vs tableau {:.3}",
                spec.name(),
                frame[r],
                tableau[r]
            );
        }
    }
}

/// Strikes on entangled XXZZ data: the frame sampler's
/// erasure-to-maximally-mixed substitution may only *raise* event rates
/// (conservative), and the early-round burst shape must survive in both
/// samplers.
#[test]
fn xxzz_strike_stays_within_erasure_envelope() {
    let spec: CodeSpec = XxzzCode::new(3, 3).into();
    let fault = StreamFault::Strike { model: RadiationModel::default(), root: 12 };
    let noise = NoiseSpec::paper_default();
    let frame = per_round_rates(&engine(spec, SamplerKind::FrameBatch), &fault, &noise);
    let tableau = per_round_rates(&engine(spec, SamplerKind::Tableau), &fault, &noise);
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
    // Both samplers must show the transient: the first two rounds carry
    // clearly more events than the last two.
    for rates in [&frame, &tableau] {
        let early: f64 = rates[..2].iter().sum();
        let late: f64 = rates[ROUNDS - 2..].iter().sum();
        assert!(early > 1.5 * late, "burst shape lost: {rates:?}");
    }
}
