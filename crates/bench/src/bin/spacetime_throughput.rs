//! The closed detect→decode loop, benchmarked: absolute streaming LER of
//! the sliding-window space-time decoder ([`StreamDecoder`]) on the
//! acceptance strike workloads, with the per-chunk-round decode latency
//! distribution, emitting a `BENCH_spacetime.json` trajectory entry.
//!
//! Two gates ride on the default (`--shots 1024`) run, and fail the
//! process (exit status 1) after the file is written:
//!
//! * **latency budget** — the mean chunk-round of sink work (accumulate →
//!   CUSUM → localize → re-mask → window decode) must stay within the
//!   7.6 µs/chunk-round `round_latency_us` the detection pipeline measured
//!   in `BENCH_detect.json`. The adaptive arm runs [`ADAPTIVE_PASSES`]
//!   times, each on a fresh decoder (cold contexts and memos), and the
//!   gate reads the median of the per-pass means; the quartiles are
//!   recorded beside it (`chunk_round_decode_us_{q1,median,q3}`), so a
//!   change has to beat the spread to show. `spacetime_round_latency_us`
//!   and its p50/p99 are per shot-round over every pass of both arms
//!   (each `stage.decode_ns` sample is one chunk-round amortised over its
//!   shots), so a pass mean is scaled by the engine's shots per chunk;
//! * **closed loop wins** — the adaptive arm's streaming LER must beat
//!   the unaware arm (`ler_delta > 0`) on every acceptance workload,
//!   the same criterion `streaming_ler::acceptance_tests` pins.
//!
//! Quick mode (small `--shots`) prints the same fields and verdicts for CI
//! trend tracking without enforcing the gates' statistics.
//!
//! ```text
//! cargo run --release -p radqec-bench --bin spacetime_throughput \
//!     [--shots N] [--rounds N] [--seed N] [--prometheus PATH]
//! ```
//!
//! [`StreamDecoder`]: radqec_core::decoder::StreamDecoder

use radqec_bench::{arg_count, arg_flag, flag_ok, header, BenchFile, Record, NS_TO_US};
use radqec_core::decoder::{StreamDecoder, StreamDecoderConfig, TierConfig};
use radqec_core::experiments::{
    calibrate_stream, central_root, try_streaming_engine, StreamingLerConfig,
};
use radqec_core::streaming::StreamFault;
use radqec_detect::quantile;
use radqec_telemetry::names;
use std::process::ExitCode;
use std::time::Instant;

/// `BENCH_detect.json`'s mean round latency, µs per chunk-round.
const ROUND_BUDGET_US: f64 = 7.6;

/// Fresh-decoder passes of the adaptive arm behind the latency gate's
/// median and quartiles (odd, so the nearest-rank median is the middle
/// pass).
const ADAPTIVE_PASSES: usize = 9;

fn main() -> ExitCode {
    let shots = arg_count("shots", 1024);
    let rounds: usize = arg_flag("rounds", 10);
    let seed: u64 = arg_flag("seed", 0x57E4_11E5);

    let mut cfg = StreamingLerConfig::acceptance();
    cfg.shots = shots;
    cfg.rounds = rounds;
    cfg.seed = seed;

    let mut bench = BenchFile::from_args("BENCH_spacetime.json").enforce_gates(shots >= 1024);

    header(&format!("streaming space-time decode ({shots} shots, {rounds} rounds)"));
    let codes = cfg.codes.clone();
    for &code in &codes {
        let engine = flag_ok("rounds", try_streaming_engine(&cfg, code));
        let (baseline, sigma) = calibrate_stream(&engine, &cfg.noise);
        let root = central_root(&engine);
        let fault = StreamFault::Strike { model: cfg.model, root };
        let decoder_cfg = |adaptive| StreamDecoderConfig {
            window: cfg.window,
            adaptive,
            radius: cfg.radius,
            baseline,
            sigma,
        };
        let run = |adaptive| {
            let decoder = StreamDecoder::new(&engine, decoder_cfg(adaptive), TierConfig::default());
            let start = Instant::now();
            let report = decoder.run(&fault, &cfg.noise);
            (report, start.elapsed().as_secs_f64())
        };
        let shots_per_chunk = engine.shots() as f64 / engine.num_chunks() as f64;
        // `stage.decode_ns` (sum, samples) so far; a pass's mean is the
        // difference across it (NaN when it timed no chunk-round).
        let decode_totals = || {
            let snap = engine.metrics_snapshot();
            snap.histogram(names::STAGE_DECODE_NS).map_or((0, 0), |h| (h.sum(), h.count()))
        };
        let mut passes = Vec::with_capacity(ADAPTIVE_PASSES);
        let mut chunk_round_us = Vec::with_capacity(ADAPTIVE_PASSES);
        for _ in 0..ADAPTIVE_PASSES {
            let (sum, count) = decode_totals();
            passes.push(run(true));
            let (end_sum, end_count) = decode_totals();
            let mean_us = (end_sum - sum) as f64 / (end_count - count) as f64 * 1e-3;
            chunk_round_us.push(mean_us * shots_per_chunk);
        }
        let [q1, median, q3] = [0.25, 0.5, 0.75].map(|q| quantile(&chunk_round_us, q));
        let secs: Vec<f64> = passes.iter().map(|&(_, secs)| secs).collect();
        let sps = shots as f64 / quantile(&secs, 0.5);
        let adaptive = &passes[0].0;
        let (unaware, _) = run(false);
        let delta = unaware.ler() - adaptive.ler();

        let snap = engine.metrics_snapshot();
        // NaN (rendered null) when no chunk-round was timed.
        let mean_us =
            snap.histogram(names::STAGE_DECODE_NS).and_then(|h| h.mean()).unwrap_or(f64::NAN)
                * 1e-3;
        bench.merge(&snap);

        let name = &engine.memory().name;
        println!(
            "{name}: streaming ler {:.4} (unaware {:.4}, delta {:+.4}), \
             first alarm {:?}, {sps:.0} shots/s, decode mean {mean_us:.3} us/shot-round, \
             median pass {median:.1} us/chunk-round (IQR {q1:.1}–{q3:.1})",
            adaptive.ler(),
            unaware.ler(),
            delta,
            adaptive.first_alarm_round,
        );
        bench.gate(
            format!(
                "{name}: median of {ADAPTIVE_PASSES} pass means {median:.1} us/chunk-round \
                 ({shots_per_chunk:.0} shots/chunk) ≤ {ROUND_BUDGET_US} us/chunk-round"
            ),
            median <= ROUND_BUDGET_US,
        );
        bench.gate(format!("{name}: adaptive beats unaware, ΔLER {delta:+.4} > 0"), delta > 0.0);

        bench.push(
            Record::new()
                .str("workload", name)
                .str("code", name)
                .int("shots", shots)
                .int("rounds", rounds)
                .int("seed", seed)
                .int("root", root)
                .float("baseline", baseline, 4)
                .float("sigma", sigma, 4)
                .float("streaming_ler", adaptive.ler(), 6)
                .float("unaware_ler", unaware.ler(), 6)
                .float("ler_delta", delta, 6)
                .opt_int("first_alarm_round", adaptive.first_alarm_round)
                .int("chunk_alarms", adaptive.chunk_alarms)
                .float("stream_decode_shots_per_sec", sps, 1)
                .float("spacetime_round_latency_us", mean_us, 3)
                .int("adaptive_passes", ADAPTIVE_PASSES)
                .float("chunk_round_decode_us_q1", q1, 1)
                .float("chunk_round_decode_us_median", median, 1)
                .float("chunk_round_decode_us_q3", q3, 1)
                .p50_p99(&snap, names::STAGE_DECODE_NS, "spacetime_round_latency_us", NS_TO_US),
        );
    }
    bench.finish()
}
