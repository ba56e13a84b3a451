//! Online radiation-event detection: the strike-position × detector ×
//! code-distance sweep plus the streaming pipeline's per-stage throughput
//! (generate / extract / detect), emitting a `BENCH_detect.json`
//! trajectory entry and (with `--csv <path>`) the per-row ROC/latency CSV.
//!
//! The `xxzz55` workload (native 9×9 mesh, paper-default noise, strike
//! at the central root) carries three gates, enforced at `--shots 10000`
//! or more (the default); a failed gate exits 1 after the file is
//! written:
//!
//! * the CUSUM detector separates strike from intrinsic-only streams
//!   with ROC AUC ≥ 0.9;
//! * the CUSUM detector's median alarm latency is ≤ 3 rounds;
//! * the spatial clusterer's median localization error is ≤ 2 hops.
//!
//! `stream_shots_per_sec` (materialised generation) is recorded but not
//! gated.
//!
//! Per-stage timing runs on the incremental decode-as-you-stream pipeline
//! ([`StreamEngine::for_each_round`]): generation hands each round to the
//! consumer the moment its ops finish, the consumer feeds an
//! [`EventAccumulator`] (extract) and advances per-shot threshold/CUSUM
//! states ([`OnlineDetector::push`], detect). `round_latency_us` is the
//! mean wall-clock from a round becoming available to its detector states
//! being updated — the figure a real-time monitor would quote.
//!
//! ```text
//! cargo run --release -p radqec-bench --bin detect_throughput \
//!     [--shots N] [--rounds N] [--seed N] [--csv PATH]
//! ```

use radqec_bench::{
    arg_count, arg_flag, distinct, flag_ok, header, BenchFile, CsvSink, Record, NS_TO_US,
};
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::experiments::{run_detection, DetectionConfig};
use radqec_core::streaming::{StreamEngine, StreamFault};
use radqec_detect::{CusumDetector, EventAccumulator, OnlineDetector, ThresholdDetector};
use radqec_noise::{NoiseSpec, RadiationModel};
use radqec_telemetry::names;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

struct Workload {
    name: &'static str,
    spec: CodeSpec,
    /// Whether this workload carries the acceptance gates.
    acceptance: bool,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload { name: "rep5", spec: RepetitionCode::bit_flip(5).into(), acceptance: false },
        Workload { name: "xxzz33", spec: XxzzCode::new(3, 3).into(), acceptance: false },
        Workload { name: "xxzz55", spec: XxzzCode::new(5, 5).into(), acceptance: true },
    ]
}

/// Shots/s of raw multi-round stream generation (frame sampler, strike at
/// `root`) — the materialised `stream_batches` path, measured with the
/// same semantics as PR 3's `stream_shots_per_sec`.
fn stream_throughput(engine: &StreamEngine, root: u32) -> f64 {
    let fault = StreamFault::Strike { model: RadiationModel::default(), root };
    let noise = NoiseSpec::paper_default();
    let _ = engine.stream_batches(&fault, &noise); // warm-up (reference, workspaces, skip tables)
    let start = Instant::now();
    let batches = engine.stream_batches(&fault, &noise);
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&batches);
    engine.shots() as f64 / secs
}

/// Per-stage timing of the incremental decode-as-you-stream pipeline.
struct PipelineTiming {
    /// End-to-end wall clock of the overlapped pipeline (shots/s).
    pipeline_sps: f64,
    /// Extraction-stage rate (shots/s over accumulated stage time).
    extract_sps: f64,
    /// Detection-stage rate (shots/s over accumulated stage time).
    detect_sps: f64,
    /// Generation-stage rate, measured by a dedicated empty-sink pass of
    /// the incremental driver (shots/s) — well-defined on any worker
    /// count, unlike wall-minus-consumer-CPU arithmetic.
    generate_sps: f64,
    /// Mean wall-clock from a round landing to its detector states being
    /// current, in µs (per chunk-round).
    round_latency_us: f64,
}

/// Drive the incremental pipeline once: per-chunk [`EventAccumulator`]s
/// (extract) feeding per-shot threshold + CUSUM states (detect), all
/// updated the moment each round is generated.
fn pipeline_timing(engine: &StreamEngine, root: u32) -> PipelineTiming {
    let fault = StreamFault::Strike { model: RadiationModel::default(), root };
    let noise = NoiseSpec::paper_default();
    let spec = engine.stream_spec();
    let cusum = CusumDetector::calibrated(1.0);
    let threshold = ThresholdDetector { threshold: 4.0 };

    struct ChunkState {
        acc: EventAccumulator,
        cusum: Vec<radqec_detect::CountDetectorState>,
        threshold: Vec<radqec_detect::CountDetectorState>,
        counts: Vec<u32>,
    }
    // One consumer slot per chunk; each chunk is driven by exactly one
    // worker, so the mutexes never contend.
    let slots: Vec<Mutex<Option<ChunkState>>> =
        (0..engine.num_chunks()).map(|_| Mutex::new(None)).collect();
    // Stage latencies land in the engine's registry as histograms, so
    // the JSON export gets percentiles, not just means.
    let extract_ns = engine.metrics().histogram(names::STAGE_EXTRACT_NS);
    let detect_ns = engine.metrics().histogram(names::STAGE_DETECT_NS);

    // Generation stage in isolation: the same incremental driver with a
    // sink that drops every round — first a warm-up, then the timed pass.
    // (Subtracting the consumer's summed per-worker CPU time from the
    // pipeline wall clock would go negative on multicore hosts, where the
    // stages genuinely overlap.)
    let drop_sink = |slice: radqec_core::streaming::RoundSlice| {
        std::hint::black_box(slice.round);
    };
    engine.for_each_round(&fault, &noise, drop_sink);
    let gen_start = Instant::now();
    engine.for_each_round(&fault, &noise, drop_sink);
    let generate_wall = gen_start.elapsed().as_secs_f64();

    let start = Instant::now();
    engine.for_each_round(&fault, &noise, |slice| {
        let mut slot = slots[slice.chunk].lock().expect("chunk slot poisoned");
        let state = slot.get_or_insert_with(|| ChunkState {
            acc: EventAccumulator::new(spec, slice.shots),
            cusum: vec![cusum.begin(); slice.shots],
            threshold: vec![threshold.begin(); slice.shots],
            counts: Vec::new(),
        });
        let t0 = Instant::now();
        state.acc.push_round(slice.round, slice.syndrome_rows());
        let t1 = Instant::now();
        // Baseline-free residuals, as in the detect-stage inner loop the
        // online monitor runs (calibration is the sweep's job).
        state.acc.stream().round_shot_counts(slice.round, &mut state.counts);
        for (s, &c) in state.counts.iter().enumerate() {
            cusum.push(&mut state.cusum[s], slice.round, f64::from(c));
            threshold.push(&mut state.threshold[s], slice.round, f64::from(c));
        }
        let t2 = Instant::now();
        extract_ns.record((t1 - t0).as_nanos() as u64);
        detect_ns.record((t2 - t1).as_nanos() as u64);
    });
    let wall = start.elapsed().as_secs_f64();
    let alarms: usize = slots
        .iter()
        .map(|slot| {
            slot.lock().expect("chunk slot poisoned").as_ref().map_or(0, |st| {
                st.cusum.iter().filter(|d| d.detection().alarm_round.is_some()).count()
                    + st.threshold.iter().filter(|d| d.detection().alarm_round.is_some()).count()
            })
        })
        .sum();
    std::hint::black_box(alarms);
    let shots = engine.shots() as f64;
    let extract_snap = extract_ns.snapshot();
    let detect_snap = detect_ns.snapshot();
    let extract = extract_snap.sum() as f64 * 1e-9;
    let detect = detect_snap.sum() as f64 * 1e-9;
    let rounds = extract_snap.count().max(1) as f64;
    PipelineTiming {
        pipeline_sps: shots / wall,
        extract_sps: shots / extract.max(1e-12),
        detect_sps: shots / detect.max(1e-12),
        generate_sps: shots / generate_wall.max(1e-12),
        round_latency_us: (extract + detect) / rounds * 1e6,
    }
}

fn main() -> ExitCode {
    let shots = arg_count("shots", 10_000);
    let rounds: usize = arg_flag("rounds", 10);
    let seed: u64 = arg_flag("seed", 0xDE7EC7);
    let mut sink = CsvSink::from_args();
    let mut bench = BenchFile::from_args("BENCH_detect.json").enforce_gates(shots >= 10_000);
    for w in workloads() {
        // Built first, so the engine's builder vets `--rounds` before any
        // work; run_detection's engine then shares its transpile and
        // reference through the process-wide stream-context cache.
        let engine = flag_ok(
            "rounds",
            StreamEngine::builder(w.spec, rounds).shots(shots).seed(seed).native().try_build(),
        );
        let mut cfg = DetectionConfig::new(w.spec);
        cfg.shots = shots;
        cfg.rounds = rounds;
        cfg.seed = seed;
        let res = run_detection(&cfg);
        let roots = distinct(res.rows.iter().map(|row| row.root));
        let root = roots[roots.len() / 2];
        let corner = roots[0];

        let stream_sps = stream_throughput(&engine, root);
        let pipe = pipeline_timing(&engine, root);
        let stats = engine.stream_stats();
        let snap = engine.metrics_snapshot();
        bench.merge(&snap);

        let corner_raw = res.row(corner, "cluster").expect("corner cluster row").auc;

        header(&format!(
            "{} — {} on {}, {} rounds, {} shots/campaign",
            w.name,
            res.code_name,
            engine.topology().name(),
            rounds,
            shots
        ));
        println!(
            "stream generation: {stream_sps:>10.0} shots/s   incremental pipeline: \
             {:>10.0} shots/s",
            pipe.pipeline_sps
        );
        println!(
            "per stage: generate {:>10.0}  extract {:>10.0}  detect {:>10.0} shots/s   \
             round latency {:.1} µs",
            pipe.generate_sps, pipe.extract_sps, pipe.detect_sps, pipe.round_latency_us
        );
        if let Some(bounds) = snap
            .histogram(names::STREAM_ROUND_NS)
            .and_then(|h| Some((h.quantile(0.5)?, h.quantile(0.9)?, h.quantile(0.99)?)))
        {
            println!(
                "round latency percentiles: p50 {:.1} µs   p90 {:.1} µs   p99 {:.1} µs",
                bounds.0 as f64 * 1e-3,
                bounds.1 as f64 * 1e-3,
                bounds.2 as f64 * 1e-3
            );
        }
        println!(
            "stream stats: {} rounds, {} chunks ({} stolen), workspace {} allocs / {} reuses",
            stats.rounds_generated,
            stats.chunks_generated,
            stats.chunks_stolen,
            stats.workspace_allocations,
            stats.workspace_reuses
        );
        println!(
            "{:>6} {:>10} {:>7} {:>7} {:>7} {:>5} {:>5}",
            "root", "detector", "auc", "det", "fa", "lat", "loc"
        );
        for r in &res.rows {
            println!(
                "{:>6} {:>10} {:>7.3} {:>7.3} {:>7.4} {:>5} {:>5}",
                r.root,
                r.detector,
                r.auc,
                r.detection_rate,
                r.false_alarm_rate,
                r.median_latency_rounds.map_or("-".into(), |v| v.to_string()),
                r.median_loc_error_hops.map_or("-".into(), |v| v.to_string()),
            );
        }
        sink.emit(w.name, &res.to_csv());

        let cusum = res.row(root, "cusum").expect("cusum row");
        let cluster = res.row(root, "cluster").expect("cluster row");
        if w.acceptance {
            let (auc, lat, loc) =
                (cusum.auc, cusum.median_latency_rounds, cluster.median_loc_error_hops);
            let name = w.name;
            bench.gate(format!("{name} @ root {root}: cusum auc {auc:.3} ≥ 0.9"), auc >= 0.9);
            bench.gate(format!("{name}: median latency {lat:?} ≤ 3"), lat.is_some_and(|l| l <= 3));
            bench
                .gate(format!("{name}: cluster loc {loc:?} ≤ 2 hops"), loc.is_some_and(|h| h <= 2));
        }

        bench.push(
            Record::new()
                .str("workload", w.name)
                .str("code", &res.code_name)
                .str("topology", engine.topology().name())
                .int("shots", shots)
                .int("rounds", rounds)
                .int("seed", seed)
                .int("central_root", root)
                .float("stream_shots_per_sec", stream_sps, 1)
                .float("pipeline_shots_per_sec", pipe.pipeline_sps, 1)
                .float("generate_shots_per_sec", pipe.generate_sps, 1)
                .float("extract_shots_per_sec", pipe.extract_sps, 1)
                .float("detect_shots_per_sec", pipe.detect_sps, 1)
                .float("round_latency_us", pipe.round_latency_us, 2)
                .p50_p99(&snap, names::STREAM_ROUND_NS, "round_latency_us", NS_TO_US)
                .p50_p99(&snap, names::STAGE_GENERATE_NS, "generate_latency_us", NS_TO_US)
                .p99(&snap, names::STAGE_EXTRACT_NS, "extract_latency_us", NS_TO_US)
                .p99(&snap, names::STAGE_DETECT_NS, "detect_latency_us", NS_TO_US)
                .int("rounds_generated", stats.rounds_generated)
                .int("chunks_stolen", stats.chunks_stolen)
                .int("workspace_allocations", stats.workspace_allocations)
                .int("workspace_reuses", stats.workspace_reuses)
                .float("cusum_auc", cusum.auc, 4)
                .float("cusum_detection_rate", cusum.detection_rate, 4)
                .float("cusum_false_alarm_rate", cusum.false_alarm_rate, 4)
                .opt_int("cusum_median_latency_rounds", cusum.median_latency_rounds)
                .float("cluster_auc", cluster.auc, 4)
                .opt_int("cluster_median_loc_error_hops", cluster.median_loc_error_hops)
                .int("corner_root", corner)
                .float("cluster_corner_auc_raw", corner_raw, 4),
        );
    }
    bench.finish()
}
