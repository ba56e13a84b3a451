//! Decode-only and end-to-end throughput of the tiered bulk decoder vs.
//! the legacy per-record path, emitting a `BENCH_decoder.json` trajectory
//! entry.
//!
//! Decode-only: identical frame-sampler [`ShotBatch`]es are decoded by each
//! tier configuration — `legacy` (per-record trait path with its per-batch
//! memo), `blossom` / `analytic` (tiers disabled, fresh cache per pass,
//! i.e. every distinct syndrome pays its solve), `tiered_cold` (full
//! cascade, fresh LUT/cache per pass) and `tiered_warm` (full cascade,
//! engine-lifetime cache — the steady state of a campaign).
//!
//! End-to-end: the injection-engine sample loop on both samplers (one
//! warm-up, then `reps` timed samples), with each sampler's logical-error
//! rate — the frame-vs-tableau agreement and throughput figures.
//!
//! ```text
//! cargo run --release -p radqec-bench --bin decoder_throughput \
//!     [--shots N] [--seed N] [--reps N]
//! ```

use radqec_bench::{arg_count, arg_flag, BenchFile, Record, NS_TO_US};
use radqec_circuit::ShotBatch;
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::decoder::{BulkDecoder, Decoder, MwpmDecoder, TierConfig};
use radqec_core::injection::{InjectionEngine, SamplerKind};
use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};
use radqec_telemetry::{names, MetricsRegistry};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Workload {
    name: &'static str,
    spec: CodeSpec,
    fault: FaultSpec,
    noise: NoiseSpec,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "rep5_intrinsic",
            spec: RepetitionCode::bit_flip(5).into(),
            fault: FaultSpec::None,
            noise: NoiseSpec::paper_default(),
        },
        Workload {
            name: "rep5_radiation_impact",
            spec: RepetitionCode::bit_flip(5).into(),
            fault: FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 2 },
            noise: NoiseSpec::paper_default(),
        },
        Workload {
            name: "xxzz33_intrinsic",
            spec: XxzzCode::new(3, 3).into(),
            fault: FaultSpec::None,
            noise: NoiseSpec::paper_default(),
        },
        Workload {
            name: "xxzz33_radiation_impact",
            spec: XxzzCode::new(3, 3).into(),
            fault: FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 1 },
            noise: NoiseSpec::paper_default(),
        },
        // Beyond the LUT threshold (24 detector bits): exercises the
        // analytic tier and the sharded cross-batch cache.
        Workload {
            name: "xxzz55_radiation_impact",
            spec: XxzzCode::new(5, 5).into(),
            fault: FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 1 },
            noise: NoiseSpec::paper_default(),
        },
    ]
}

/// Decode every batch `reps` times through `make_decoder` (fresh per rep if
/// `cold`); returns shots/s.
fn time_decode(
    batches: &[ShotBatch],
    reps: usize,
    cold: bool,
    make_decoder: impl Fn() -> Box<dyn Decoder>,
) -> f64 {
    let shots: usize = batches.iter().map(ShotBatch::shots).sum();
    let warm = make_decoder();
    if !cold {
        for b in batches {
            std::hint::black_box(warm.decode_batch(b));
        }
    }
    let start = Instant::now();
    for _ in 0..reps {
        let fresh;
        let dec: &dyn Decoder = if cold {
            fresh = make_decoder();
            fresh.as_ref()
        } else {
            warm.as_ref()
        };
        for b in batches {
            std::hint::black_box(dec.decode_batch(b));
        }
    }
    (shots * reps) as f64 / start.elapsed().as_secs_f64()
}

/// End-to-end engine logical-error rate and throughput at sample 0: one
/// warm-up, then `reps` timed samples.
fn time_end_to_end(
    w: &Workload,
    sampler: SamplerKind,
    shots: usize,
    seed: u64,
    reps: usize,
) -> (f64, f64) {
    let engine = InjectionEngine::builder(w.spec).shots(shots).seed(seed).sampler(sampler).build();
    let _ = engine.logical_error_at_sample(&w.fault, &w.noise, 0);
    let start = Instant::now();
    let mut rate = 0.0;
    for _ in 0..reps {
        rate = engine.logical_error_at_sample(&w.fault, &w.noise, 0);
    }
    let secs = start.elapsed().as_secs_f64() / reps as f64;
    (rate, shots as f64 / secs)
}

fn main() -> ExitCode {
    let shots = arg_count("shots", 1000);
    let seed: u64 = arg_flag("seed", 1);
    let reps = arg_count("reps", 3);
    let mut bench = BenchFile::from_args("BENCH_decoder.json");
    println!(
        "workload                   legacy/s  blossom/s analytic/s  tiercold/s  tierwarm/s \
         e2e_frame/s frame_ler   tab_ler"
    );
    for w in workloads() {
        let engine = InjectionEngine::builder(w.spec).shots(shots).seed(seed).build();
        let code = engine.code().clone();
        // The engine's own frame-sampler batches at sample 0: the same chunk
        // grid and RNG streams as the end-to-end runs, so decode timings run
        // on exactly the syndrome mix a campaign sees.
        let batches = engine.frame_batches_at_sample(&w.fault, &w.noise, 0);

        let legacy = time_decode(&batches, reps, false, || Box::new(MwpmDecoder::new(&code)));
        let blossom_tiers = TierConfig { lut: false, analytic: false, ..Default::default() };
        let blossom = time_decode(&batches, reps, true, || {
            Box::new(BulkDecoder::with_tiers(&code, blossom_tiers))
        });
        let analytic_tiers = TierConfig { lut: false, ..Default::default() };
        let analytic = time_decode(&batches, reps, true, || {
            Box::new(BulkDecoder::with_tiers(&code, analytic_tiers))
        });
        let tiered_cold = time_decode(&batches, reps, true, || Box::new(BulkDecoder::new(&code)));
        // The warm path records into a shared registry so the JSON gains
        // per-batch decode-latency percentiles for the steady state.
        let warm_registry = Arc::new(MetricsRegistry::new());
        let tiered_warm = time_decode(&batches, reps, false, || {
            Box::new(
                BulkDecoder::try_with_tiers_metrics(
                    &code,
                    TierConfig::default(),
                    Arc::clone(&warm_registry),
                )
                .expect("default tiers are valid"),
            )
        });
        let warm_snap = warm_registry.snapshot();
        bench.merge(&warm_snap);

        let (frame_ler, frame_sps) =
            time_end_to_end(&w, SamplerKind::FrameBatch, shots, seed, reps);
        let (tab_ler, tab_sps) = time_end_to_end(&w, SamplerKind::Tableau, shots, seed, reps);

        println!(
            "{:<24} {legacy:>10.0} {blossom:>10.0} {analytic:>10.0} {tiered_cold:>11.0} \
             {tiered_warm:>11.0} {frame_sps:>11.0} {frame_ler:>9.4} {tab_ler:>9.4}",
            w.name
        );
        bench.push(
            Record::new()
                .str("workload", w.name)
                .int("shots", shots)
                .int("seed", seed)
                .float("legacy_decode_shots_per_sec", legacy, 1)
                .float("blossom_decode_shots_per_sec", blossom, 1)
                .float("analytic_decode_shots_per_sec", analytic, 1)
                .float("tiered_cold_decode_shots_per_sec", tiered_cold, 1)
                .float("tiered_warm_decode_shots_per_sec", tiered_warm, 1)
                .float("end_to_end_frame_shots_per_sec", frame_sps, 1)
                .float("end_to_end_tableau_shots_per_sec", tab_sps, 1)
                .float("frame_logical_error", frame_ler, 6)
                .float("tableau_logical_error", tab_ler, 6)
                .p50_p99(&warm_snap, names::STAGE_DECODE_NS, "decode_latency_us", NS_TO_US),
        );
    }
    bench.finish()
}
