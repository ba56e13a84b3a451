//! Fleet endurance campaign (`experiments::fleet`): multiple code patches
//! tiled on one device mesh, thousands of syndrome rounds, Poisson strike
//! arrivals, run on the supervised execution layer. Emits a
//! `BENCH_fleet.json` trajectory entry and (with `--csv <path>`) the
//! per-strike scoring CSV.
//!
//! The default workload (10⁴ rounds) carries the fleet acceptance gates,
//! which fail the process (exit status 1) after the file is written:
//!
//! * the 10⁴-round multi-patch campaign completes with **zero degraded
//!   shots** at the default decode deadline;
//! * **zero failed chunks** and zero retries (no chaos injected here —
//!   the retry path is pinned by `tests/fleet_resilience.rs`);
//! * every patch decoder's syndrome-cache occupancy stays at or under
//!   its configured ceiling.
//!
//! ```text
//! cargo run --release -p radqec-bench --bin fleet_throughput \
//!     [--rounds N] [--patches N] [--shots N] [--seed N] [--csv PATH]
//! ```
//!
//! CI quick mode: `--rounds 1000 --shots 32` finishes in seconds and
//! prints the same gates' verdicts without failing on them.

use radqec_bench::{arg_count, arg_flag, flag_ok, header, BenchFile, CsvSink, Record, NS_TO_US};
use radqec_core::codes::RepetitionCode;
use radqec_core::experiments::{run_fleet, FleetConfig};
use radqec_core::streaming::StreamEngine;
use radqec_telemetry::names;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let rounds: usize = arg_flag("rounds", 10_000);
    let patches = arg_count("patches", 3);
    let shots = arg_count("shots", 64);
    let seed: u64 = arg_flag("seed", 0xF1EE_7500);
    let mut sink = CsvSink::from_args();
    let mut bench = BenchFile::from_args("BENCH_fleet.json").enforce_gates(rounds >= 10_000);

    let mut cfg = FleetConfig::new(RepetitionCode::bit_flip(5).into());
    // The patch engines' builder owns the round-count rule: vet `--rounds`
    // against it on a one-shot native engine before the campaign starts.
    flag_ok("rounds", StreamEngine::builder(cfg.code, rounds).shots(1).native().try_build());
    cfg.rounds = rounds;
    cfg.patches = patches;
    cfg.shots = shots;
    cfg.seed = seed;

    let start = Instant::now();
    let res = run_fleet(&cfg);
    let wall = start.elapsed().as_secs_f64();
    let m = &res.metrics;
    let fleet_shots = (patches * shots) as f64;
    let fleet_sps = fleet_shots / wall;
    let rounds_per_sec = fleet_shots * rounds as f64 / wall;

    header(&format!(
        "fleet endurance — {} × {} patches, {rounds} rounds, {shots} replicas/patch",
        cfg.code.name(),
        patches
    ));
    println!(
        "strikes {:>4}   detected {:>4} ({:.0}% coverage)   recovered {:>4} (mean TTR {:.1} µs)",
        m.strikes,
        m.detected,
        100.0 * m.detection_coverage,
        m.recovered,
        m.mean_time_to_recovery_us
    );
    println!(
        "bursts {:>6}   device-hours {:.6}   bursts/device-hour {:.1}",
        m.bursts, m.device_hours, m.bursts_per_device_hour
    );
    println!(
        "throughput: {fleet_sps:.1} fleet shots/s ({rounds_per_sec:.0} replica-rounds/s), wall \
         {wall:.2}s"
    );
    println!(
        "execution layer: degraded {}   retried chunks {}   failed chunks {}   max cache \
         entries {} (ceiling {})",
        res.degraded_shots(),
        res.retried_chunks(),
        res.failed_chunks(),
        res.max_cache_entries(),
        cfg.cache_capacity
    );
    println!(
        "flight recorder: {} entries ({} strike onsets, {} alarms)   first retry round {}",
        res.flight.len(),
        m.strikes,
        m.detected,
        res.first_retry_round().map_or("-".into(), |r| r.to_string())
    );
    sink.emit("fleet", &res.to_csv());
    sink.emit("fleet_patches", &res.patch_csv());

    // The measured values behind each verdict are printed just above.
    bench.gate("campaign complete", res.complete);
    bench.gate("zero degraded shots", res.degraded_shots() == 0);
    bench.gate("zero chunk failures", res.failed_chunks() == 0 && res.retried_chunks() == 0);
    bench.gate("caches under ceiling", res.max_cache_entries() <= cfg.cache_capacity);

    bench.merge(&res.snapshot);
    let snap = &res.snapshot;
    bench.push(
        Record::new()
            .str("workload", "fleet_rep5")
            .str("code", &cfg.code.name())
            .int("patches", patches)
            .int("rounds", rounds)
            .int("shots", shots)
            .int("seed", seed)
            .int("strikes", m.strikes)
            .int("detected", m.detected)
            .float("detection_coverage", m.detection_coverage, 4)
            .int("bursts", m.bursts)
            .float("bursts_per_device_hour", m.bursts_per_device_hour, 3)
            .int("recovered", m.recovered)
            .float("time_to_recovery_us", m.mean_time_to_recovery_us, 3)
            .int("total_events", m.total_events)
            .float("fleet_shots_per_sec", fleet_sps, 2)
            .float("replica_rounds_per_sec", rounds_per_sec, 0)
            .int("degraded_shots", res.degraded_shots())
            .int("retried_chunks", res.retried_chunks())
            .int("failed_chunks", res.failed_chunks())
            .opt_int("first_retry_round", res.first_retry_round())
            .int("flight_entries", res.flight.len())
            .int("cache_entries", res.max_cache_entries())
            .p50_p99(snap, names::STAGE_DECODE_NS, "decode_latency_us", NS_TO_US)
            .p50_p99(snap, names::DETECT_LATENCY_ROUNDS, "detection_latency_rounds", 1.0)
            .p50_p99(snap, names::FLEET_TIME_TO_RECOVERY_US, "time_to_recovery_us", 1.0)
            .p99(snap, names::STREAM_ROUND_NS, "round_latency_us", NS_TO_US)
            .bool("complete", res.complete),
    );
    bench.finish()
}
