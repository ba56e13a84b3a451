//! # radqec-bench
//!
//! Benchmark harness for the `radqec` reproduction:
//!
//! * one **binary per paper artefact** (`fig1_fig2` … `fig8`, plus the
//!   ablation binaries) that regenerates the corresponding figure's series
//!   and prints it as a table/CSV (`src/bin/`, one file per artefact);
//! * five **`*_throughput` binaries** (decoder, detect, mitigation,
//!   spacetime, fleet), each writing one `BENCH_*.json` file through
//!   [`BenchFile`]: ordered [`Record`]s rendered in one layout, the merged
//!   telemetry snapshot behind `--prometheus <path>`, and the acceptance
//!   gates, whose verdicts set the exit status in a bin's acceptance run;
//! * **criterion benches** (`cargo bench`) for the performance-critical
//!   substrates: tableau simulator, blossom matching, decoders, transpiler
//!   and the end-to-end injection engine.
//!
//! Every binary accepts `--shots N` and `--seed N`; defaults are
//! laptop-friendly. Absolute numbers need larger budgets (the paper used
//! 400M injections); shapes are stable at the defaults. A flag value the
//! binary cannot use (one that does not parse, a zero count, or a round
//! count the stream engine rejects) ends it with exit status 2 and one
//! `error: --<flag>: …` line before any work starts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use radqec_telemetry::MetricsSnapshot;
use std::fmt::{Debug, Display};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::str::FromStr;

/// A command-line flag whose value a binary cannot use.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlagError {
    /// The flag's name, without the leading `--`.
    flag: String,
    /// Why the value was rejected.
    reason: String,
}

impl Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "--{}: {}", self.flag, self.reason)
    }
}

impl FlagError {
    /// Print `error: --<flag>: <reason>` to stderr and exit with status 2.
    fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(2)
    }
}

/// The first `--name value` / `--name=value` in `args`, parsed as `T`;
/// `Ok(None)` when the flag is absent.
fn parse_flag<T: FromStr<Err: Display>>(
    args: &[String],
    name: &str,
) -> Result<Option<T>, FlagError> {
    let key = format!("--{name}");
    let error = |reason: String| FlagError { flag: name.to_string(), reason };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let value = match arg.strip_prefix(&key) {
            Some("") => args.next().ok_or_else(|| error("missing value".into()))?,
            Some(rest) if rest.starts_with('=') => &rest[1..],
            _ => continue,
        };
        return value.parse().map(Some).map_err(|e| error(format!("cannot use {value:?}: {e}")));
    }
    Ok(None)
}

/// `--name value` or `--name=value` from `std::env::args`, or `default`
/// when the flag is absent. A value that does not parse as `T` ends the
/// process with status 2 and an `error: --<name>: …` line.
pub fn arg_flag<T: FromStr<Err: Display>>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flag(&args, name).unwrap_or_else(|e| e.exit()).unwrap_or(default)
}

/// A count flag (`--shots`, `--reps`, `--patches`): as [`arg_flag`], and
/// zero is rejected too.
pub fn arg_count(name: &str, default: usize) -> usize {
    arg_flag(name, NonZeroUsize::new(default).expect("count defaults are positive")).get()
}

/// `result`'s value, or — when a library rejects a configuration built
/// from `--flag` (e.g. a `--rounds` the stream engine's `try_build`
/// refuses) — its error reported on that flag, exiting as [`arg_flag`]
/// does.
pub fn flag_ok<T, E: Display>(flag: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| FlagError { flag: flag.to_string(), reason: e.to_string() }.exit())
}

/// `items` with repeats dropped, first occurrences in order (e.g. a
/// sweep's distinct strike roots in row order).
pub fn distinct<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// Scale from a nanosecond histogram to microsecond fields.
pub const NS_TO_US: f64 = 1e-3;

/// One JSON value of a [`Record`] field.
#[derive(Debug)]
enum Value {
    Int(i128),
    Float(f64, usize),
    Str(String),
    Bool(bool),
    Null,
}

/// One BENCH record: named fields in the order they were added, rendered
/// as one compact JSON object.
#[derive(Debug, Default)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Record::default()
    }

    fn field(mut self, name: &str, value: Value) -> Self {
        self.fields.push((name.to_string(), value));
        self
    }

    /// An integer field.
    pub fn int(self, name: &str, v: impl TryInto<i128, Error: Debug>) -> Self {
        self.field(name, Value::Int(v.try_into().expect("integer fits i128")))
    }

    /// An integer field, `null` when absent.
    pub fn opt_int(self, name: &str, v: Option<impl TryInto<i128, Error: Debug>>) -> Self {
        match v {
            Some(v) => self.int(name, v),
            None => self.field(name, Value::Null),
        }
    }

    /// A float field with `precision` decimals; `null` when not finite
    /// (e.g. a mean over no samples, passed as NaN).
    pub fn float(self, name: &str, v: f64, precision: usize) -> Self {
        self.field(name, Value::Float(v, precision))
    }

    /// A string field.
    pub fn str(self, name: &str, v: &str) -> Self {
        self.field(name, Value::Str(v.to_string()))
    }

    /// A boolean field.
    pub fn bool(self, name: &str, v: bool) -> Self {
        self.field(name, Value::Bool(v))
    }

    /// `<field>_p50` and `<field>_p99` from histogram `metric` of `snap`
    /// (see [`Self::p99`]).
    pub fn p50_p99(self, snap: &MetricsSnapshot, metric: &str, field: &str, scale: f64) -> Self {
        self.quantile(snap, metric, &format!("{field}_p50"), 0.5, scale)
            .p99(snap, metric, field, scale)
    }

    /// `<field>_p99` from histogram `metric` of `snap`: the conservative
    /// upper bucket bound times `scale` ([`NS_TO_US`] for nanosecond
    /// spans, 1.0 for raw samples) to three decimals, or `null` when the
    /// histogram is absent or empty — so the field always exists for CI
    /// to assert on.
    pub fn p99(self, snap: &MetricsSnapshot, metric: &str, field: &str, scale: f64) -> Self {
        self.quantile(snap, metric, &format!("{field}_p99"), 0.99, scale)
    }

    fn quantile(
        self,
        snap: &MetricsSnapshot,
        metric: &str,
        name: &str,
        q: f64,
        scale: f64,
    ) -> Self {
        let bound = snap.histogram(metric).and_then(|h| h.quantile(q));
        self.field(name, bound.map_or(Value::Null, |b| Value::Float(b as f64 * scale, 3)))
    }

    fn render_into(&self, out: &mut String) {
        out.push('{');
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(out, name);
            out.push(':');
            match value {
                Value::Int(v) => out.push_str(&v.to_string()),
                Value::Float(v, p) if v.is_finite() => out.push_str(&format!("{v:.*}", *p)),
                Value::Float(..) | Value::Null => out.push_str("null"),
                Value::Str(s) => push_json_str(out, s),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The process exit status for a run's `(label, ok)` gate verdicts: 1
/// when they are enforced and any failed, else 0.
fn exit_status(gates: &[(String, bool)], enforce: bool) -> u8 {
    u8::from(enforce && gates.iter().any(|&(_, ok)| !ok))
}

/// One `BENCH_*.json` file in the making: its records, the merged
/// telemetry snapshot behind `--prometheus <path>` (text exposition 0.0.4;
/// counters and histogram buckets sum, gauges keep their max) and the
/// gate verdicts. [`Self::finish`] writes it all out.
pub struct BenchFile {
    path: String,
    records: Vec<Record>,
    telemetry: MetricsSnapshot,
    prometheus: Option<String>,
    gates: Vec<(String, bool)>,
    enforce: bool,
}

impl BenchFile {
    /// A file at `path` (relative to the working directory), reading
    /// `--prometheus <path>` from the process arguments. Gates are not
    /// enforced until [`Self::enforce_gates`].
    pub fn from_args(path: &str) -> Self {
        let prometheus = arg_flag("prometheus", String::new());
        BenchFile {
            path: path.to_string(),
            records: Vec::new(),
            telemetry: MetricsSnapshot::default(),
            prometheus: (!prometheus.is_empty()).then_some(prometheus),
            gates: Vec::new(),
            enforce: false,
        }
    }

    /// Whether a failed gate fails the process: on in a bin's acceptance
    /// run; off in quick runs, whose verdicts print without failing.
    pub fn enforce_gates(mut self, on: bool) -> Self {
        self.enforce = on;
        self
    }

    /// Fold one registry snapshot into the file's telemetry export.
    pub fn merge(&mut self, snap: &MetricsSnapshot) {
        self.telemetry.merge_from(snap);
    }

    /// Append one record.
    pub fn push(&mut self, record: Record) {
        self.records.push(record);
    }

    /// Record one gate verdict: what was checked, and whether it held.
    pub fn gate(&mut self, label: impl Into<String>, ok: bool) {
        self.gates.push((label.into(), ok));
    }

    /// The file's text: `[\n  {…},\n  {…}\n]\n`.
    fn render(&self) -> String {
        let mut out = String::from("[\n");
        for (i, record) in self.records.iter().enumerate() {
            out.push_str(if i == 0 { "  " } else { ",\n  " });
            record.render_into(&mut out);
        }
        out.push_str("\n]\n");
        out
    }

    /// Write the file and the Prometheus dump (if asked for), print the
    /// gate verdicts, and return the exit status: failure when enforced
    /// gates failed.
    pub fn finish(self) -> ExitCode {
        std::fs::write(&self.path, self.render())
            .unwrap_or_else(|e| panic!("write {}: {e}", self.path));
        if let Some(path) = &self.prometheus {
            std::fs::write(path, self.telemetry.to_prometheus())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("prometheus exposition -> {path}");
        }
        if !self.gates.is_empty() {
            let mode = if self.enforce { "enforced" } else { "advisory in this mode" };
            println!("\nacceptance gates ({mode}):");
            for (label, ok) in &self.gates {
                println!("  {}  {label}", if *ok { "PASS" } else { "FAIL" });
            }
        }
        let failed = self.gates.iter().any(|&(_, ok)| !ok);
        println!("\nwrote {}{}", self.path, if failed { " (GATE FAILURES)" } else { "" });
        ExitCode::from(exit_status(&self.gates, self.enforce))
    }
}

/// Where figure/detection binaries send their CSV series: stdout by
/// default (the historical behaviour), or a file when the invocation
/// carries `--csv <path>` — sections are written in emission order, each
/// preceded by a `# <name>` comment line, so one file collects a whole
/// binary's series.
pub struct CsvSink {
    path: Option<String>,
    sections: usize,
}

impl CsvSink {
    /// Build from the process arguments (`--csv <path>` / `--csv=<path>`).
    pub fn from_args() -> Self {
        let path = arg_flag("csv", String::new());
        CsvSink { path: (!path.is_empty()).then_some(path), sections: 0 }
    }

    /// Emit one named CSV section. The first emission truncates the target
    /// file; later ones append.
    pub fn emit(&mut self, name: &str, csv: &str) {
        match &self.path {
            None => println!("\ncsv [{name}]:\n{csv}"),
            Some(path) => {
                use std::io::Write as _;
                let mut opts = std::fs::OpenOptions::new();
                if self.sections == 0 {
                    opts.write(true).create(true).truncate(true);
                } else {
                    opts.append(true);
                }
                let mut file = opts.open(path).unwrap_or_else(|e| panic!("open {path}: {e}"));
                write!(file, "# {name}\n{csv}").unwrap_or_else(|e| panic!("write {path}: {e}"));
                println!("csv [{name}] -> {path}");
            }
        }
        self.sections += 1;
    }
}

/// Render a probability as a percentage with one decimal, e.g. `12.3%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Render a fixed-width horizontal bar for terminal "plots".
pub fn bar(x: f64, scale: f64, width: usize) -> String {
    let filled = ((x / scale) * width as f64).round().clamp(0.0, width as f64) as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '█' } else { '·' });
    }
    s
}

/// Print a section header in the style used by all figure binaries.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.3%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(0.5, 1.0, 4), "██··");
        assert_eq!(bar(2.0, 1.0, 4), "████");
        assert_eq!(bar(-1.0, 1.0, 4), "····");
    }

    #[test]
    fn arg_flag_default_used_without_flag() {
        assert_eq!(arg_flag("definitely-not-passed", 42usize), 42);
        assert_eq!(arg_count("definitely-not-passed", 7), 7);
    }

    #[test]
    fn parse_flag_reads_both_forms_and_types_its_errors() {
        let a = args(&["--shots", "12", "--seed=5", "--reps"]);
        assert_eq!(parse_flag::<usize>(&a, "shots"), Ok(Some(12)));
        assert_eq!(parse_flag::<u64>(&a, "seed"), Ok(Some(5)));
        assert_eq!(parse_flag::<u64>(&a, "rounds"), Ok(None));
        // `--seeds` is another flag, not `--seed` with a suffix.
        assert_eq!(parse_flag::<u64>(&args(&["--seeds", "9"]), "seed"), Ok(None));
        let missing = parse_flag::<usize>(&a, "reps").unwrap_err();
        assert_eq!(missing.to_string(), "--reps: missing value");
        let bad = parse_flag::<usize>(&args(&["--shots", "abc"]), "shots").unwrap_err();
        assert_eq!(bad.flag, "shots");
        assert!(bad.to_string().starts_with("--shots: cannot use \"abc\""), "{bad}");
        let zero = parse_flag::<NonZeroUsize>(&args(&["--shots=0"]), "shots").unwrap_err();
        assert!(zero.to_string().starts_with("--shots: cannot use \"0\""), "{zero}");
    }

    #[test]
    fn distinct_keeps_first_occurrences_in_order() {
        assert_eq!(distinct([4, 0, 4, 8, 0, 8]), vec![4, 0, 8]);
    }

    #[test]
    fn csv_sink_file_mode_truncates_then_appends() {
        let path = std::env::temp_dir().join("radqec_csv_sink_test.csv");
        let path_str = path.to_str().unwrap().to_string();
        let mut sink = CsvSink { path: Some(path_str.clone()), sections: 0 };
        sink.emit("stale", "old,data\n");
        // A fresh sink must truncate what an earlier run left behind.
        let mut sink = CsvSink { path: Some(path_str), sections: 0 };
        sink.emit("a", "x,y\n1,2\n");
        sink.emit("b", "u,v\n3,4\n");
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, "# a\nx,y\n1,2\n# b\nu,v\n3,4\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_render_the_bench_layout_with_stated_precision() {
        let mut file = BenchFile::from_args("unused.json");
        assert_eq!(file.render(), "[\n\n]\n");
        file.push(
            Record::new()
                .str("workload", "rep5")
                .int("shots", 1000usize)
                .float("rate", 2.0 / 3.0, 6)
                .float("sps", 1_321_783.4, 0)
                .float("inf", f64::INFINITY, 2)
                .bool("complete", true)
                .opt_int("first", None::<u32>),
        );
        file.push(Record::new().opt_int("round", Some(0u64)).str("esc", "a\"b\\c\n"));
        assert_eq!(
            file.render(),
            "[\n  {\"workload\":\"rep5\",\"shots\":1000,\"rate\":0.666667,\"sps\":1321783,\
             \"inf\":null,\"complete\":true,\"first\":null},\n  \
             {\"round\":0,\"esc\":\"a\\\"b\\\\c\\u000a\"}\n]\n"
        );
    }

    #[test]
    fn percentile_fields_render_us_and_null_when_absent() {
        let reg = radqec_telemetry::MetricsRegistry::new();
        let h = reg.histogram("stage.decode_ns");
        for _ in 0..100 {
            h.record(10_000); // 10 µs
        }
        let _empty = reg.histogram("stage.extract_ns");
        let snap = reg.snapshot();
        let mut out = String::new();
        Record::new()
            .p50_p99(&snap, "stage.decode_ns", "decode_latency_us", NS_TO_US)
            // A metric nobody recorded still emits its fields — as null —
            // so CI's field assertions never depend on the workload.
            .p50_p99(&snap, "detect.latency_rounds", "latency_rounds", 1.0)
            .p99(&snap, "stage.extract_ns", "extract_latency_us", NS_TO_US)
            .render_into(&mut out);
        let us = snap.histogram("stage.decode_ns").and_then(|h| h.quantile(0.5)).unwrap() as f64;
        let us = format!("{:.3}", us * 1e-3);
        assert_eq!(
            out,
            format!(
                "{{\"decode_latency_us_p50\":{us},\"decode_latency_us_p99\":{us},\
                 \"latency_rounds_p50\":null,\"latency_rounds_p99\":null,\
                 \"extract_latency_us_p99\":null}}"
            )
        );
    }

    #[test]
    fn failed_gates_fail_the_process_only_when_enforced() {
        let gate = |ok| (String::new(), ok);
        assert_eq!(exit_status(&[], true), 0);
        assert_eq!(exit_status(&[gate(true), gate(true)], true), 0);
        assert_eq!(exit_status(&[gate(true), gate(false)], true), 1);
        assert_eq!(exit_status(&[gate(false)], false), 0);
    }

    #[test]
    fn telemetry_snapshot_merges_registries() {
        let a = radqec_telemetry::MetricsRegistry::new();
        let b = radqec_telemetry::MetricsRegistry::new();
        a.counter("decode.shots").add(3);
        b.counter("decode.shots").add(4);
        a.histogram("stream.round_ns").record(1000);
        b.histogram("stream.round_ns").record(1000);
        let mut file = BenchFile::from_args("unused.json");
        assert!(file.prometheus.is_none(), "tests run without --prometheus");
        file.merge(&a.snapshot());
        file.merge(&b.snapshot());
        assert_eq!(file.telemetry.counter("decode.shots"), 7);
        assert_eq!(file.telemetry.histogram("stream.round_ns").map(|h| h.count()), Some(2));
    }

    #[test]
    fn csv_sink_without_flag_prints() {
        let mut sink = CsvSink::from_args();
        assert!(sink.path.is_none(), "tests run without --csv");
        sink.emit("noop", "h\n"); // must not touch the filesystem
        assert_eq!(sink.sections, 1);
    }
}
