//! Strike-aware mitigation: the strike geometry × mask policy × distance
//! sweep (`experiments::mitigation`) plus the masked decode path's warm
//! throughput, emitting a `BENCH_mitigation.json` trajectory entry and
//! (with `--csv <path>`) the per-row LER CSV.
//!
//! The `xxzz55` workload at `--shots 10000` (the default) carries the
//! mitigation acceptance gates, which exit 1 after the file is written:
//!
//! * on at least one strike geometry, strike-aware masking (oracle or
//!   detected) must yield a **lower** logical-error rate than the unaware
//!   decoder — the deltas are paired (same sampled shots per policy), so
//!   the comparison carries no sampling noise between policies;
//! * masked warm-path decode throughput must stay within 20% of the
//!   unaware path (the mask-keyed cache dimension doing its job).
//!
//! ```text
//! cargo run --release -p radqec-bench --bin mitigation_throughput \
//!     [--shots N] [--seed N] [--csv PATH]
//! ```

use radqec_bench::{arg_count, arg_flag, distinct, header, BenchFile, CsvSink, Record, NS_TO_US};
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::decoder::DecoderMask;
use radqec_core::experiments::{mitigation_engine, run_mitigation, MitigationConfig};
use radqec_detect::StrikeMask;
use radqec_noise::{FaultSpec, NoiseSpec};
use radqec_telemetry::{names, MetricsSnapshot};
use std::process::ExitCode;
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

/// Warm decode-only throughput (shots/s) of the unaware and masked paths
/// over one impact-sample batch set (sample once, decode repeatedly),
/// plus the engine's metrics snapshot — `stage.decode_ns` covers every
/// timed batch of both paths.
fn decode_throughput(cfg: &MitigationConfig, root: u32) -> (f64, f64, MetricsSnapshot) {
    let engine = mitigation_engine(cfg, cfg.codes[0]);
    let fault = FaultSpec::Radiation { model: cfg.model, root };
    let batches = engine.frame_batches_at_sample(&fault, &cfg.noise, 0);
    let strike = StrikeMask::try_new(engine.topology(), root, cfg.radius, 1.0)
        .expect("root is a device qubit");
    let mask = DecoderMask::project(&strike, engine.code(), &engine.transpiled().initial_layout);
    let reps = (200_000 / cfg.shots).clamp(2, 50);
    let time_path = |masked: bool| {
        // Warm-up fills the per-path caches (and interns the mask context).
        for batch in &batches {
            let _ = if masked {
                engine.decoder().decode_batch_masked(batch, &mask)
            } else {
                engine.decoder().decode_batch(batch)
            };
        }
        let start = Instant::now();
        let mut sink = 0usize;
        for _ in 0..reps {
            for batch in &batches {
                let decoded = if masked {
                    engine.decoder().decode_batch_masked(batch, &mask)
                } else {
                    engine.decoder().decode_batch(batch)
                };
                sink += decoded.iter().filter(|&&ok| !ok).count();
            }
        }
        std::hint::black_box(sink);
        (reps * cfg.shots) as f64 / start.elapsed().as_secs_f64()
    };
    let unaware = time_path(false);
    let masked = time_path(true);
    (unaware, masked, engine.metrics().snapshot())
}

fn main() -> ExitCode {
    let shots = arg_count("shots", 10_000);
    let seed: u64 = arg_flag("seed", 0x3117_C0DE);
    let radius: u32 = arg_flag("radius", 3);
    let mut sink = CsvSink::from_args();
    let mut bench = BenchFile::from_args("BENCH_mitigation.json").enforce_gates(shots >= 10_000);
    for w in workloads() {
        let mut cfg = MitigationConfig::new(vec![w.spec]);
        cfg.shots = shots;
        cfg.seed = seed;
        cfg.radius = radius;
        // Scale the closed-loop detection campaign with the budget (quick
        // CI runs keep it tiny).
        cfg.detect_shots = (shots / 4).clamp(64, 2048);
        let start = Instant::now();
        let res = run_mitigation(&cfg);
        let wall = start.elapsed().as_secs_f64();
        let decoded_shots = (res.shots * res.samples * res.rows.len()) as f64;
        let end_to_end_sps = decoded_shots / wall;
        let roots = distinct(res.rows.iter().map(|row| row.root));
        let central = roots[roots.len() / 2];
        let code_name = res.rows[0].code_name.clone();

        let (unaware_sps, masked_sps, decode_snap) = decode_throughput(&cfg, central);
        let ratio = masked_sps / unaware_sps;
        bench.merge(&decode_snap);
        let (mask_contexts, mask_hit_rate) = mask_stats(&cfg, central);

        // Mask-cache accounting comes from a dedicated engine replaying the
        // oracle policy's mask ladder (run_mitigation's engine is internal).
        let (best_root, best_policy, best_delta) =
            res.best_masked_delta(&code_name).expect("masked policies present");
        let unaware = res.row(&code_name, central, "unaware").expect("unaware row");
        let oracle = res.row(&code_name, central, "oracle").expect("oracle row");
        let detected = res.row(&code_name, central, "detected").expect("detected row");

        header(&format!(
            "{} — {} masked-decoding sweep, {} shots × {} samples",
            w.name, code_name, res.shots, res.samples
        ));
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>10}",
            "root", "policy", "mask_root", "ler", "peak_ler"
        );
        for r in &res.rows {
            println!(
                "{:>6} {:>10} {:>10} {:>10.5} {:>10.5}",
                r.root,
                r.policy,
                r.mask_root.map_or("-".into(), |v| v.to_string()),
                r.ler,
                r.peak_ler
            );
        }
        println!(
            "decode warm path: unaware {unaware_sps:>10.0} shots/s   masked \
             {masked_sps:>10.0} shots/s   ratio {ratio:.2}"
        );
        println!(
            "best masked delta: root {best_root} policy {best_policy} ΔLER {best_delta:+.5} \
             (unaware − masked)   end-to-end {end_to_end_sps:.0} shots/s"
        );
        sink.emit(w.name, &res.to_csv());

        if w.acceptance {
            let name = w.name;
            bench.gate(format!("{name}: masked beats unaware on ≥1 geometry"), best_delta > 0.0);
            bench.gate(format!("{name}: masked decode within 20% of unaware"), ratio >= 0.8);
        }

        bench.push(
            Record::new()
                .str("workload", w.name)
                .str("code", &code_name)
                .int("shots", res.shots)
                .int("samples", res.samples)
                .int("seed", seed)
                .int("central_root", central)
                .float("unaware_ler", unaware.ler, 6)
                .float("masked_ler", oracle.ler, 6)
                .float("detected_ler", detected.ler, 6)
                .int("best_delta_root", best_root)
                .str("best_delta_policy", best_policy)
                .float("ler_delta", best_delta, 6)
                .opt_int("detected_mask_root", detected.mask_root)
                .float("decode_unaware_shots_per_sec", unaware_sps, 1)
                .float("decode_masked_shots_per_sec", masked_sps, 1)
                .float("masked_decode_ratio", ratio, 4)
                .float("end_to_end_shots_per_sec", end_to_end_sps, 1)
                .int("mask_cache_contexts", mask_contexts)
                .float("mask_cache_hit_rate", mask_hit_rate, 4)
                .p50_p99(&decode_snap, names::STAGE_DECODE_NS, "decode_latency_us", NS_TO_US),
        );
    }
    bench.finish()
}

/// Replay the oracle mask ladder on a fresh engine and report the
/// mask-cache dimension's `(contexts, hit rate)`: distinct interned
/// reweightings vs. decode calls answered by an existing one.
fn mask_stats(cfg: &MitigationConfig, root: u32) -> (usize, f64) {
    let mut small = MitigationConfig::new(cfg.codes.clone());
    small.shots = cfg.shots.min(1024);
    small.seed = cfg.seed;
    let engine = mitigation_engine(&small, cfg.codes[0]);
    let fault = FaultSpec::Radiation { model: cfg.model, root };
    let strike = StrikeMask::try_new(engine.topology(), root, cfg.radius, 1.0)
        .expect("root is a device qubit");
    let base = DecoderMask::project(&strike, engine.code(), &engine.transpiled().initial_layout);
    for (k, &t) in cfg.model.temporal_samples().iter().enumerate() {
        let mask = base.scaled(t);
        let _ =
            engine.masked_logical_error_at_sample(&fault, &NoiseSpec::paper_default(), k, &mask);
    }
    let stats = engine.decoder_stats().expect("tiered decoder tracks stats");
    let lookups = stats.mask_hits + stats.mask_contexts as u64;
    let hit_rate = if lookups == 0 { 0.0 } else { stats.mask_hits as f64 / lookups as f64 };
    (stats.mask_contexts, hit_rate)
}
