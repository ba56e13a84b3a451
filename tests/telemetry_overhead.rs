//! Telemetry overhead gates (ISSUE 8 satellite): instrumentation must be
//! observably free on the physics path.
//!
//! * Streams are **bit-identical** with telemetry on and off (and still
//!   match the PR 4 golden digest — `tests/golden_stream.rs` runs its
//!   whole table with telemetry at its default, which is on).
//! * A warm engine allocates **zero** new workspace buffers per campaign
//!   with telemetry on.
//! * Telemetry-on throughput stays within a flake-safe factor of
//!   telemetry-off in this debug-build smoke test; the product-level 2 %
//!   gate is enforced on the release-mode `stream_shots_per_sec` of
//!   BENCH_detect.json (xxzz55 ≥ 1.64 M shots/s, CI-asserted).
//!
//! `radqec_telemetry::set_enabled` flips a process-wide switch, so every
//! test that touches it serialises on [`TELEMETRY_LOCK`] and restores the
//! default before returning.

use radqec_circuit::ShotBatch;
use radqec_core::codes::XxzzCode;
use radqec_core::streaming::{StreamEngine, StreamFault};
use radqec_noise::{NoiseSpec, RadiationModel};
use radqec_telemetry::names;
use std::sync::Mutex;
use std::time::Instant;

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Restores the telemetry default (enabled) on drop, so a panicking test
/// cannot leak a disabled switch into its siblings.
struct EnabledGuard;

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        radqec_telemetry::set_enabled(true);
    }
}

/// FNV-1a over the batch grid (the golden-stream digest).
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

fn engine() -> StreamEngine {
    StreamEngine::builder(XxzzCode::new(3, 3).into(), 4).shots(200).seed(0x601D).native().build()
}

#[test]
fn streams_are_bit_identical_with_telemetry_on_and_off() {
    let _lock = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = EnabledGuard;
    let fault = StreamFault::Strike { model: RadiationModel::default(), root: 2 };
    let noise = NoiseSpec::paper_default();
    radqec_telemetry::set_enabled(true);
    let on = digest(&engine().stream_batches(&fault, &noise));
    radqec_telemetry::set_enabled(false);
    let off = digest(&engine().stream_batches(&fault, &noise));
    assert_eq!(on, off, "telemetry must never touch the sampled stream");
    // And both still match the pinned PR 4 golden digest for this case
    // (xxzz33, FrameBatch, strike) — see tests/golden_stream.rs.
    assert_eq!(on, 0x96537066b4044398, "stream drifted from the golden digest");
}

/// Run one cold and three warm campaigns through `campaign` with
/// telemetry on, then check the warm ones allocated zero new workspace
/// buffers and every generated round landed one sample in the round
/// histogram.
fn assert_warm_campaigns_are_instrumented(campaign: impl Fn(&StreamEngine)) {
    let _lock = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = EnabledGuard;
    radqec_telemetry::set_enabled(true);
    let engine = engine();
    campaign(&engine);
    let warm = engine.stream_stats().workspace_allocations;
    assert!(warm > 0, "first campaign must allocate the pool");
    for _ in 0..3 {
        campaign(&engine);
    }
    let after = engine.stream_stats();
    assert_eq!(
        after.workspace_allocations, warm,
        "telemetry-on warm campaigns must allocate exactly zero new buffers"
    );
    assert!(after.workspace_reuses > 0, "warm campaigns reuse the pool");
    let snap = engine.metrics_snapshot();
    let rounds = snap.counter(names::STREAM_ROUNDS_GENERATED);
    assert!(rounds > 0);
    let hist = snap.histogram(names::STREAM_ROUND_NS).expect("round spans recorded");
    assert_eq!(hist.count(), rounds, "one round-latency sample per generated round");
}

#[test]
fn warm_campaigns_allocate_no_workspaces_with_telemetry_on() {
    let fault = StreamFault::Strike { model: RadiationModel::default(), root: 2 };
    let noise = NoiseSpec::paper_default();
    assert_warm_campaigns_are_instrumented(|engine| {
        engine.for_each_round(&fault, &noise, |_slice| {});
    });
}

#[test]
fn warm_stream_batches_campaigns_are_instrumented_like_the_round_feed() {
    // `stream_batches` collects over the same round driver, so it samples
    // every round and reuses the pool exactly like `for_each_round`.
    let fault = StreamFault::Strike { model: RadiationModel::default(), root: 2 };
    let noise = NoiseSpec::paper_default();
    assert_warm_campaigns_are_instrumented(|engine| {
        std::hint::black_box(engine.stream_batches(&fault, &noise));
    });
}

#[test]
fn telemetry_overhead_stays_small() {
    let _lock = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = EnabledGuard;
    let engine = engine();
    let fault = StreamFault::Strike { model: RadiationModel::default(), root: 2 };
    let noise = NoiseSpec::paper_default();
    let _ = engine.stream_batches(&fault, &noise); // warm the pool once
    let best_of = |enabled: bool| {
        radqec_telemetry::set_enabled(enabled);
        (0..5)
            .map(|_| {
                let start = Instant::now();
                let batches = engine.stream_batches(&fault, &noise);
                let elapsed = start.elapsed();
                std::hint::black_box(&batches);
                elapsed
            })
            .min()
            .expect("five passes")
    };
    let off = best_of(false);
    let on = best_of(true);
    // Flake-safe debug-build bound: the histogram record is ~4 atomic ops
    // per chunk-round against ~7.6 µs of generation work, so even a noisy
    // CI box stays far under this. The real 2 % gate runs in release mode
    // against BENCH_detect.json's stream_shots_per_sec.
    let ratio = on.as_secs_f64() / off.as_secs_f64().max(1e-9);
    assert!(ratio < 1.25, "telemetry-on/off wall-clock ratio {ratio:.3} exceeds the smoke bound");
}
