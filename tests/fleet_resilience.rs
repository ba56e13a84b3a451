//! Chaos suite for the supervised execution layer (ISSUE 7).
//!
//! The fleet harness promises that one misbehaving component costs its
//! own unit of work, never the campaign: a panicking worker chunk is
//! quarantined and retried, malformed configuration dies loudly at the
//! boundary with a typed error (or a clean assert) instead of corrupting
//! state downstream, and every cache in the path holds its ceiling
//! without changing a single decoded bit. Each test here injects one
//! failure mode through the public API and checks the blast radius.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use radqec_core::codes::RepetitionCode;
use radqec_core::experiments::{run_fleet, FleetConfig};
use radqec_core::streaming::{ChunkFailure, StreamEngine, StreamFault};
use radqec_detect::{MaskError, StrikeMask};
use radqec_noise::{ActiveFault, NoiseSpec};
use radqec_topology::generators::mesh;

/// A small fleet that still exercises every layer: two rep-(5,1) patches
/// on one mesh, heavy Poisson strike traffic, multi-chunk campaigns.
fn small_fleet(rounds: usize) -> FleetConfig {
    let mut cfg = FleetConfig::new(RepetitionCode::bit_flip(5).into());
    cfg.patches = 2;
    cfg.rounds = rounds;
    cfg.shots = 32;
    cfg.frame_chunk = 16;
    cfg.strike_decay_rounds = 5;
    cfg.strikes_per_kiloround = 20.0;
    cfg.detect_window = 10;
    cfg.seed = 0xC4A05;
    cfg
}

// ---------------------------------------------------------------- panics

#[test]
fn injected_worker_panic_costs_one_retry_and_zero_physics() {
    let clean = run_fleet(&small_fleet(200));
    let mut cfg = small_fleet(200);
    cfg.chaos_panic = Some((0, 1));
    let chaotic = run_fleet(&cfg);
    assert!(chaotic.complete, "a once-panicking chunk must not fail the campaign");
    assert_eq!(chaotic.retried_chunks(), 1, "exactly one retried chunk");
    assert_eq!(chaotic.failed_chunks(), 0);
    let quarantined: u64 = chaotic.per_patch.iter().map(|p| p.report.workspaces_quarantined).sum();
    assert_eq!(quarantined, 1, "the abandoned workspace is quarantined, not pooled");
    assert_eq!(clean.metrics, chaotic.metrics, "the retry must be invisible in the physics");
    assert_eq!(clean.strikes, chaotic.strikes);
}

#[test]
fn double_panic_is_a_typed_failure_and_the_engine_stays_usable() {
    let engine = StreamEngine::builder(RepetitionCode::bit_flip(5).into(), 4)
        .shots(96)
        .seed(0xC4A051)
        .frame_chunk(32)
        .build();
    let noise = NoiseSpec::paper_default();
    // Chunk 1 panics on both supervised attempts; everything else runs.
    let report = engine
        .for_each_round_supervised(
            &StreamFault::None,
            &noise,
            |_| false,
            |slice| {
                if slice.chunk == 1 {
                    panic!("chaos: chunk 1 always dies");
                }
            },
        )
        .unwrap();
    assert_eq!(
        report.failures,
        vec![ChunkFailure { chunk: 1, attempts: 2, message: "chaos: chunk 1 always dies".into() }]
    );
    assert!(!report.is_clean());
    assert_eq!(report.chunks_completed, 2, "the other chunks still complete");
    assert_eq!(report.chunk_retries, 1);
    assert_eq!(report.workspaces_quarantined, 2, "both poisoned workspaces are dropped");
    // The engine survives: a follow-up campaign on the same engine is
    // clean, and its accounting shows no leftover contamination.
    let rounds_seen = Mutex::new(0u64);
    let report = engine
        .for_each_round_supervised(
            &StreamFault::None,
            &noise,
            |_| false,
            |_| {
                *rounds_seen.lock().unwrap() += 1;
            },
        )
        .unwrap();
    assert!(report.is_clean());
    assert_eq!(report.chunks_completed, 3);
    assert_eq!(report.chunk_retries, 0);
    assert_eq!(*rounds_seen.lock().unwrap(), 3 * 4, "3 chunks × 4 rounds, no replays");
}

#[test]
fn a_panicking_sink_never_reaches_the_workspace_pool() {
    // Every chunk dies twice: every workspace the supervised driver ever
    // handed out must be quarantined (dropped), and the failure list
    // covers the whole chunk grid in order.
    let engine = StreamEngine::builder(RepetitionCode::bit_flip(3).into(), 3)
        .shots(64)
        .seed(0xC4A052)
        .frame_chunk(32)
        .build();
    let armed = AtomicBool::new(true);
    let report = engine
        .for_each_round_supervised(
            &StreamFault::None,
            &NoiseSpec::noiseless(),
            |_| false,
            |_| {
                if armed.load(Ordering::Relaxed) {
                    panic!("chaos: total loss");
                }
            },
        )
        .unwrap();
    assert_eq!(report.chunks_completed, 0);
    assert_eq!(report.failures.len(), 2, "both chunks fail after their retry");
    assert_eq!(
        report.failures.iter().map(|f| f.chunk).collect::<Vec<_>>(),
        vec![0, 1],
        "failures are reported in chunk order"
    );
    assert!(report.failures.iter().all(|f| f.attempts == 2));
    assert_eq!(report.workspaces_quarantined, 4, "two chunks × two attempts, all dropped");
    // Disarm and rerun: the pool was never poisoned, results are clean.
    armed.store(false, Ordering::Relaxed);
    let report = engine
        .for_each_round_supervised(&StreamFault::None, &NoiseSpec::noiseless(), |_| false, |_| {})
        .unwrap();
    assert!(report.is_clean());
    assert_eq!(report.chunks_completed, 2);
}

// ------------------------------------------------- malformed configuration

#[test]
fn nan_probabilities_die_loudly_and_subnormals_are_harmless() {
    // NaN is not a probability: the fault boundary must reject it before
    // any RNG consumes it.
    let err = catch_unwind(AssertUnwindSafe(|| {
        ActiveFault::from_probs(vec![0.5, f64::NAN]);
    }))
    .expect_err("NaN probability must be rejected");
    let msg = err.downcast_ref::<String>().expect("assert message");
    assert!(msg.contains("out of range"), "unexpected message: {msg}");
    // A subnormal probability is a legal (if absurd) near-zero rate — it
    // must pass validation and behave like zero-ish noise, not crash the
    // skip-table machinery.
    let tiny = f64::MIN_POSITIVE / 2.0;
    let fault = ActiveFault::from_probs(vec![tiny, 0.0]);
    assert!(fault.prob(0) > 0.0 && fault.prob(0) < 1e-300);
    // And a NaN mask intensity is a typed error, not a panic.
    let topo = mesh(3, 3);
    assert!(matches!(
        StrikeMask::try_new(&topo, 0, 2, f64::NAN),
        Err(MaskError::IntensityOutOfRange { intensity }) if intensity.is_nan()
    ));
}

#[test]
fn zero_and_one_round_streams_fail_the_boundary_assert() {
    for rounds in [0usize, 1] {
        let err = catch_unwind(AssertUnwindSafe(|| {
            StreamEngine::builder(RepetitionCode::bit_flip(3).into(), rounds).build();
        }))
        .expect_err("a sub-2-round memory experiment must be rejected");
        let msg = err.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("at least 2 rounds"), "rounds={rounds}: {msg}");
    }
}

#[test]
fn oversized_masks_clip_to_the_device_and_bad_roots_are_typed() {
    let topo = mesh(3, 3);
    // A radius far past the graph diameter saturates at full coverage —
    // it must clip, not index out of bounds.
    let mask = StrikeMask::try_new(&topo, 4, u32::MAX, 1.0).unwrap();
    let covered = (0..topo.num_qubits()).filter(|&q| mask.prob(q) > 0.0).count();
    assert_eq!(covered, topo.num_qubits() as usize, "oversized radius covers the device");
    assert!((0..topo.num_qubits()).all(|q| (0.0..=1.0).contains(&mask.prob(q))));
    // A root off the device is a typed error.
    assert_eq!(
        StrikeMask::try_new(&topo, 99, 1, 1.0),
        Err(MaskError::RootOutsideTopology { root: 99, num_qubits: 9 })
    );
}

// ------------------------------------------------------- cache ceilings

#[test]
fn cache_eviction_holds_the_ceiling_without_changing_the_physics() {
    // rep-(11,1) pair-decode has 20 detector planes — past the direct-LUT
    // width, so the sharded memo carries the campaign. A long
    // multi-strike run populates far more distinct syndromes than a tiny
    // ceiling holds, so the tight run must clear full shards constantly —
    // and still decode every window to the same answer, because the memo
    // stores a pure function of the syndrome.
    let mut roomy_cfg = small_fleet(400);
    roomy_cfg.code = RepetitionCode::bit_flip(11).into();
    roomy_cfg.shots = 16;
    let roomy = run_fleet(&roomy_cfg);
    assert!(roomy.complete);
    let roomy_entries = roomy.max_cache_entries();
    let mut tight_cfg = small_fleet(400);
    tight_cfg.code = RepetitionCode::bit_flip(11).into();
    tight_cfg.shots = 16;
    tight_cfg.cache_capacity = 32;
    let tight = run_fleet(&tight_cfg);
    assert!(tight.complete);
    // The sharded cache guarantees at most max(capacity/16, 2) entries in
    // each of its 16 shards.
    assert!(tight.max_cache_entries() <= 32, "ceiling violated: {}", tight.max_cache_entries());
    let evictions: u64 = tight.per_patch.iter().map(|p| p.decode.cache_evictions).sum();
    assert!(
        roomy_entries <= 32 || evictions > 0,
        "a tiny cache under {roomy_entries} distinct syndromes must evict"
    );
    assert_eq!(roomy.metrics, tight.metrics, "eviction pressure must never change a decode result");
    assert_eq!(roomy.strikes, tight.strikes);
}
