//! Golden pins for the offline injection engine.
//!
//! `InjectionEngine` samples the paper's two-round experiment: frame-batch
//! chunks on a fixed chunk grid, each on its own RNG stream, against one
//! noiseless reference trace per engine, or one CHP tableau replay per
//! shot. These tests pin FNV-1a digests of `frame_batches_at_sample` and
//! the exact error counts of `logical_error_at_sample` and
//! `masked_logical_error_at_sample` on both samplers, for the default
//! fitted meshes, a Brooklyn host under a temporally evolving strike and
//! one pinned `initial_layout` host. Any change to the host step, the
//! chunk grid, the reference seed, the per-chunk or per-shot RNG streams
//! or the decoder shows up here.
//!
//! To re-capture (only when a stream-breaking change is *intended*):
//! `cargo test --release --test golden_injection -- --ignored --nocapture`.

use radqec_circuit::ShotBatch;
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::decoder::DecoderMask;
use radqec_core::injection::{InjectionEngine, SamplerKind};
use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};
use radqec_topology::{devices, generators, Topology};

/// FNV-1a over the batch grid: shot counts, widths and every row word.
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

/// Shots per sample: not a multiple of the chunk width, so every grid
/// ends on a short chunk.
const SHOTS: usize = 300;
const SEED: u64 = 0x1A7E;

struct Case {
    name: &'static str,
    spec: CodeSpec,
    host: Option<(Topology, Vec<u32>)>,
    frame_chunk: Option<usize>,
    fault: FaultSpec,
    sample: usize,
}

fn cases() -> Vec<Case> {
    let model = RadiationModel::default();
    vec![
        Case {
            name: "rep5-fitted",
            spec: RepetitionCode::bit_flip(5).into(),
            host: None,
            frame_chunk: None,
            fault: FaultSpec::RadiationAtImpact { model, root: 2 },
            sample: 0,
        },
        Case {
            name: "xxzz33-fitted",
            spec: XxzzCode::new(3, 3).into(),
            host: None,
            frame_chunk: Some(128),
            fault: FaultSpec::RadiationAtImpact { model, root: 4 },
            sample: 0,
        },
        Case {
            name: "xxzz33-brooklyn",
            spec: XxzzCode::new(3, 3).into(),
            host: Some((devices::brooklyn(), Vec::new())),
            frame_chunk: None,
            fault: FaultSpec::Radiation { model, root: 30 },
            sample: 3,
        },
        Case {
            // rep-(5,1) on a line, data and ancillas interleaved, the
            // readout ancilla at the end.
            name: "rep5-pinned-layout",
            spec: RepetitionCode::bit_flip(5).into(),
            host: Some((generators::linear(10), vec![0, 2, 4, 6, 8, 1, 3, 5, 7, 9])),
            frame_chunk: None,
            fault: FaultSpec::Radiation { model, root: 4 },
            sample: 1,
        },
    ]
}

fn engine(case: &Case, sampler: SamplerKind) -> InjectionEngine {
    let mut builder = InjectionEngine::builder(case.spec).shots(SHOTS).seed(SEED).sampler(sampler);
    if let Some((topology, l2p)) = &case.host {
        builder = builder.topology(topology.clone());
        if !l2p.is_empty() {
            builder = builder.initial_layout(l2p.clone());
        }
    }
    if let Some(chunk) = case.frame_chunk {
        builder = builder.frame_chunk(chunk);
    }
    builder.build()
}

/// A synthetic strike mask peaked on the middle data qubit.
fn mask(engine: &InjectionEngine) -> DecoderMask {
    let code = engine.code();
    let n_data = code.data_qubits.len();
    let data = (0..n_data).map(|d| 0.4 / (1.0 + d.abs_diff(n_data / 2) as f64)).collect();
    let stabs = (0..code.primary_count).map(|i| 0.2 / (1.0 + i as f64)).collect();
    DecoderMask::from_probs(data, stabs)
}

/// Errors of one engine at the case's sample: `(unaware, masked)`.
fn error_counts(case: &Case, sampler: SamplerKind) -> (usize, usize) {
    let engine = engine(case, sampler);
    let noise = NoiseSpec::paper_default();
    let count = |rate: f64| (rate * SHOTS as f64).round() as usize;
    let unaware = engine.logical_error_at_sample(&case.fault, &noise, case.sample);
    let masked =
        engine.masked_logical_error_at_sample(&case.fault, &noise, case.sample, &mask(&engine));
    (count(unaware), count(masked))
}

/// One case's pins: `(frame digest, frame errors, tableau errors)`.
fn run_case(case: &Case) -> (u64, (usize, usize), (usize, usize)) {
    let frame = engine(case, SamplerKind::FrameBatch);
    let batches =
        frame.frame_batches_at_sample(&case.fault, &NoiseSpec::paper_default(), case.sample);
    (
        digest(&batches),
        error_counts(case, SamplerKind::FrameBatch),
        error_counts(case, SamplerKind::Tableau),
    )
}

/// `(case, frame digest, frame (unaware, masked), tableau (unaware, masked))`.
type Golden = (&'static str, u64, (usize, usize), (usize, usize));

/// Captured on the engine before its host step, reference cache and
/// workspace pool moved into the shared campaign core.
const GOLDEN: &[Golden] = &[
    ("rep5-fitted", 0x61f8fff0f3b7c711, (99, 93), (92, 93)),
    ("xxzz33-fitted", 0x30ac4185f2e16f0c, (149, 157), (132, 137)),
    ("xxzz33-brooklyn", 0x6abdadeac5399bd3, (106, 107), (123, 120)),
    ("rep5-pinned-layout", 0x830c4f176079af89, (199, 196), (200, 202)),
];

#[test]
fn offline_records_match_golden_digests() {
    assert!(!GOLDEN.is_empty(), "golden digests not captured yet");
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len(), "case list drifted from golden list");
    for (case, &(name, want_digest, want_frame, want_tableau)) in cases.iter().zip(GOLDEN) {
        assert_eq!(case.name, name);
        let (got_digest, got_frame, got_tableau) = run_case(case);
        assert_eq!(got_digest, want_digest, "{name}: frame batches no longer bit-identical");
        assert_eq!(got_frame, want_frame, "{name}: frame-sampler error counts moved");
        assert_eq!(got_tableau, want_tableau, "{name}: tableau-sampler error counts moved");
    }
}

#[test]
#[ignore = "capture tool: prints the GOLDEN table from the current implementation"]
fn capture_golden_digests() {
    for case in cases() {
        let (digest, frame, tableau) = run_case(&case);
        println!("    (\"{}\", 0x{digest:016x}, {frame:?}, {tableau:?}),", case.name);
    }
}
