//! The repository's benchmark: four workloads of the radiation-injection
//! toolkit, each run as one process that measures for a fixed time and
//! prints every metric with its unit.
//!
//! ```text
//! cargo run --release --manifest-path radbench/Cargo.toml -- \
//!     --workload <paper_d3|paper_d5|closed_loop|fleet> --seed N --seconds S --trace <0|1>
//! ```
//!
//! All four flags are required. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` replays the same passes with spans around every
//! layer call and prints the per-layer metrics. The last line of standard
//! output is the JSON result; the line before it is the run manifest. See
//! `radbench/README.md`.

mod expected;
mod probe;
mod workloads;

use probe::{derive_seed, median, peak_rss_mb, quantile, reference_cpu_s};
use radqec_telemetry::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::Workload;

/// Set-ups measured per run at least, so `setup_s` is a median.
const MIN_SETUPS: usize = 9;

/// The outcome of one untraced pass (one campaign at one derived seed).
#[derive(Default)]
pub struct Pass {
    /// Process CPU seconds spent building engines, decoders and
    /// calibrations.
    pub setup_s: f64,
    /// Wall seconds of the campaign itself.
    pub run_s: f64,
    /// Process CPU seconds during the campaign.
    pub cpu_s: f64,
    /// Shot-rounds the campaign processed.
    pub shot_rounds: u64,
    /// Scored units (shots, or replica-windows on the fleet) and the
    /// logical errors among them.
    pub scored: u64,
    /// Logical errors among `scored`.
    pub errors: u64,
    /// Per chunk-round decode latencies timed by the benchmark on the
    /// calling thread's CPU clock, in µs.
    pub chunk_round_us: Vec<f64>,
    /// Decode-call latencies recorded by the program itself (ns), with the
    /// chunk-rounds each call covers, for the one workload whose rounds run
    /// inside a harness the benchmark cannot reach into.
    pub decode_hist: Option<(HistogramSnapshot, f64)>,
    /// Operations attempted (decoded shots, chunks and output checks).
    pub attempted: u64,
    /// Operations failed: degraded decodes, failed or retried chunks and
    /// failed output checks.
    pub failed: u64,
    /// Names of the output checks that failed.
    pub failed_checks: Vec<String>,
    /// The campaign's result fingerprint (per-sample error counts, per-code
    /// errors, fleet tallies) that a traced replay must reproduce.
    pub outcome: Vec<u64>,
}

impl Pass {
    /// Record one output check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks.push(name.to_owned());
        }
    }
}

/// The outcome of one traced pass.
#[derive(Default)]
pub struct Traced {
    /// Wall seconds of the traced campaign phases.
    pub wall_s: f64,
    /// Thread capacity of those phases (wall × workers busy), seconds.
    pub capacity_s: f64,
    /// Thread-seconds covered by layer spans.
    pub covered_s: f64,
    /// Per-layer readings of this pass.
    pub layers: BTreeMap<&'static str, f64>,
    /// Whether the replay reproduced the untraced pass's outcome.
    pub reproduced: bool,
}

/// Per-layer metrics with their units; every traced run reports each one
/// (counts read 0 where the layer does not run).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("transpiler.transpile_s", "s"),
    ("transpiler.swaps", "count"),
    ("core.setup_s", "s"),
    ("stabilizer.tableau_shot_us", "us"),
    ("noise.generate_s", "s"),
    ("decoder.decode_s", "s"),
    ("decoder.shot_decode_us", "us"),
    ("decoder.chunk_round_us_p50", "us"),
    ("decoder.matchings", "count"),
    ("decoder.cache_hit_ratio", "ratio"),
    ("decoder.cache_entries", "count"),
    ("decoder.spacetime_contexts", "count"),
    ("decoder.degraded_shots", "count"),
    ("detect.alarms", "count"),
    ("streaming.retried_chunks", "count"),
    ("fleet.strikes", "count"),
    ("fleet.detected", "count"),
    ("fleet.recovered", "count"),
    ("parallel.cpu_util", "ratio"),
    ("process.peak_rss_mb", "MB"),
    ("bench.trace_overhead", "ratio"),
    ("unattributed", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Every flag is required: the run length in particular is set by
/// `BENCHMARK.json`, and a default here would let a run silently measure
/// a different length than the bounds were set on.
fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |flag: &str| format!("{flag} is required");
    let args = Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
    }
    Ok(args)
}

/// Passes after which peak memory is read: the warm-up campaign alone, in
/// a fresh process, as a user running one campaign per process sees it.
const RSS_PASSES: usize = 1;

/// Campaign wall seconds between two timings of the reference kernel.
const REFERENCE_EVERY_S: f64 = 0.5;

/// CPU seconds of `probe::reference_cpu_s` on the machine the bounds were
/// set on (2 shared vCPUs; the kernel read 3.9–4.9 ms there). End-to-end
/// times are scaled by this over the run's own median reading, so they
/// read as CPU time on that machine. Over minutes the same code on that
/// machine ran up to 1.45× faster or slower in CPU time as neighbours came
/// and went; the scale takes out the share of that drift the kernel sees.
const REFERENCE_NOMINAL_S: f64 = 4.5e-3;

/// Untraced passes at derived seeds: a warm-up pass, then passes until
/// `seconds` of campaign wall time has passed and the LER passes are done.
/// Also returns the process's peak memory once the first `RSS_PASSES`
/// passes are done (a fixed amount of work per seed, so the reading does
/// not grow with the machine's speed), and the reference kernel's times,
/// taken every `REFERENCE_EVERY_S` of campaign time across the run.
fn measure(w: &dyn Workload, seed: u64, seconds: f64) -> (Vec<Pass>, f64, Vec<f64>) {
    let mut passes: Vec<Pass> = Vec::new();
    let mut timed = 0.0;
    let mut rss_mb = 0.0;
    let mut refs = Vec::new();
    let mut since_ref = f64::INFINITY;
    while passes.len() < 2 || timed < seconds || passes.len() < w.ler_passes() {
        if since_ref >= REFERENCE_EVERY_S {
            refs.push(reference_cpu_s());
            since_ref = 0.0;
        }
        let pass = w.pass(derive_seed(seed, passes.len() as u64));
        since_ref += pass.run_s;
        if !passes.is_empty() {
            timed += pass.run_s;
        }
        passes.push(pass);
        if passes.len() == RSS_PASSES {
            rss_mb = peak_rss_mb();
        }
    }
    refs.push(reference_cpu_s());
    (passes, rss_mb, refs)
}

/// p50 and p99 of the chunk-round decode latencies pooled over `passes`,
/// in µs: the benchmark's own samples, or else the program's histogram.
fn latency_us(passes: &[Pass]) -> (f64, f64) {
    let mut samples: Vec<f64> =
        passes.iter().flat_map(|p| p.chunk_round_us.iter().copied()).collect();
    if !samples.is_empty() {
        return (quantile(&mut samples, 0.5), quantile(&mut samples, 0.99));
    }
    let mut hists = passes.iter().filter_map(|p| p.decode_hist.as_ref());
    let Some((mut hist, rounds)) = hists.next().cloned() else {
        return (0.0, 0.0);
    };
    hists.for_each(|(h, _)| hist.merge_from(h));
    let us = |q| probe::histogram_quantile(&hist, q) / 1e3 / rounds;
    (us(0.5), us(0.99))
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("radbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::by_name(&args.workload) else {
        eprintln!(
            "radbench: unknown workload {:?} (expected one of {:?})",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (passes, rss_mb, refs) = measure(w.as_ref(), args.seed, args.seconds);
    let mut extra_setups = Vec::new();
    while passes.len() + extra_setups.len() < MIN_SETUPS {
        extra_setups
            .push(w.setup_only(derive_seed(args.seed, (passes.len() + extra_setups.len()) as u64)));
    }

    // Run-level output checks, counted like the passes' own.
    let mut checks = Pass::default();
    let lp = w.ler_passes();
    let errors: u64 = passes[..lp].iter().map(|p| p.errors).sum();
    let scored: u64 = passes[..lp].iter().map(|p| p.scored).sum();
    if let Some(want) = expected::lookup(&args.workload, args.seed) {
        checks.check(
            &format!("ler {errors}/{scored} equals the recorded {}/{}", want.0, want.1),
            (errors, scored) == want,
        );
    }

    let mut traced: Vec<Traced> = Vec::new();
    if args.trace {
        // Replay passes (fresh engines, same seeds) with spans until the
        // replays have taken as long as the untraced measurement.
        let mut traced_s = 0.0;
        for (i, p) in passes.iter().enumerate().skip(1) {
            if i > 1 && traced_s >= args.seconds {
                break;
            }
            let t = w.traced_pass(derive_seed(args.seed, i as u64), p);
            checks.check(&format!("traced pass {i} reproduces the untraced outcome"), t.reproduced);
            traced_s += t.wall_s;
            traced.push(t);
        }
    }

    let attempted: u64 = passes.iter().chain([&checks]).map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().chain([&checks]).map(|p| p.failed).sum();
    let failed_checks: Vec<&String> =
        passes.iter().chain([&checks]).flat_map(|p| &p.failed_checks).collect();
    for c in &failed_checks {
        eprintln!("radbench: check failed: {c}");
    }

    // The warm-up pass counts for the LER and the checks, not for timing.
    let timed = &passes[1..];
    let run_s: f64 = timed.iter().map(|p| p.run_s).sum();
    let shots: u64 = passes.iter().map(|p| p.scored).sum();
    let scale = REFERENCE_NOMINAL_S / median(&refs);
    let manifest = format!(
        "{{\"git_rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"workers\": {workers}, \
         \"params_digest\": \"{:016x}\", \"passes\": {}, \"traced_passes\": {}, \"scored\": {shots}, \
         \"ler_passes\": {lp}, \"ler_errors\": {errors}, \"ler_scored\": {scored}, \"seconds\": {}, \
         \"reference_cpu_s\": {:?}, \"references\": {}, \"time_scale\": {scale:?}}}",
        probe::git_rev(std::path::Path::new(".")),
        args.workload,
        args.seed,
        probe::digest(&w.params()),
        passes.len(),
        traced.len(),
        args.seconds,
        median(&refs),
        refs.len(),
    );
    println!("manifest {manifest}");

    let mut m = String::from("{");
    if args.trace {
        let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for t in &traced {
            for (&k, &v) in &t.layers {
                per_layer.entry(k).or_default().push(v);
            }
        }
        let traced_wall: f64 = traced.iter().map(|t| t.wall_s).sum();
        let untraced_wall: f64 = timed[..traced.len()].iter().map(|p| p.run_s).sum();
        let capacity: f64 = traced.iter().map(|t| t.capacity_s).sum();
        let covered: f64 = traced.iter().map(|t| t.covered_s).sum();
        let cpu: f64 = timed.iter().map(|p| p.cpu_s).sum();
        for &(name, unit) in LAYER_METRICS {
            let value = match name {
                "parallel.cpu_util" => cpu / run_s,
                "process.peak_rss_mb" => rss_mb,
                "decoder.chunk_round_us_p50" => latency_us(timed).0 * scale,
                "bench.trace_overhead" => traced_wall / untraced_wall,
                "unattributed" => 1.0 - covered / capacity,
                _ => per_layer.get(name).map_or(0.0, |v| median(v)),
            };
            metric(&mut m, name, value, unit);
        }
    } else {
        let setups: Vec<f64> =
            passes.iter().map(|p| p.setup_s).chain(extra_setups.iter().copied()).collect();
        let shot_rounds: u64 = timed.iter().map(|p| p.shot_rounds).sum();
        let (_, p99) = latency_us(timed);
        let cpu_s: f64 = timed.iter().map(|p| p.cpu_s).sum();
        metric(&mut m, "setup_s", median(&setups) * scale, "s");
        metric(&mut m, "shot_rounds_per_cpu_s", shot_rounds as f64 / (cpu_s * scale), "1/cpu_s");
        metric(&mut m, "chunk_round_decode_us_p99", p99 * scale, "us");
        metric(&mut m, "logical_error_rate", errors as f64 / scored.max(1) as f64, "ratio");
    }
    m.push('}');
    let correct = failed_checks.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {m}}}"
    );
    ExitCode::SUCCESS
}
