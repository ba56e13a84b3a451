//! # radqec-bench
//!
//! Benchmark harness for the `radqec` reproduction:
//!
//! * one **binary per paper artefact** (`fig1_fig2` … `fig8`, plus the
//!   ablation binaries) that regenerates the corresponding figure's series
//!   and prints it as a table/CSV (`src/bin/`, one file per artefact);
//! * **criterion benches** (`cargo bench`) for the performance-critical
//!   substrates: tableau simulator, blossom matching, decoders, transpiler
//!   and the end-to-end injection engine.
//!
//! Every binary accepts `--shots N` and `--seed N`; defaults are
//! laptop-friendly. Absolute numbers need larger budgets (the paper used
//! 400M injections); shapes are stable at the defaults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Parse `--name value` or `--name=value` from `std::env::args`, falling
/// back to `default`.
pub fn arg_flag<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    let key = format!("--{name}");
    for i in 0..args.len() {
        if args[i] == key {
            if let Some(v) = args.get(i + 1) {
                if let Ok(parsed) = v.parse::<T>() {
                    return parsed;
                }
                eprintln!("warning: could not parse {key} {v}, using default");
            }
        } else if let Some(rest) = args[i].strip_prefix(&format!("{key}=")) {
            if let Ok(parsed) = rest.parse::<T>() {
                return parsed;
            }
            eprintln!("warning: could not parse {key}={rest}, using default");
        }
    }
    default
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

    /// A sink that always prints to stdout (tests, embedding).
    pub fn stdout() -> Self {
        CsvSink { path: None, sections: 0 }
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

/// Snapshot-export helper shared by the `*_throughput` bins: merges the
/// pipeline's registry snapshots and honours `--prometheus <path>` (text
/// exposition 0.0.4 of everything merged). Percentile JSON fields are
/// rendered per snapshot by [`percentile_fields_us`] /
/// [`percentile_fields_raw`] / [`percentile_field_us_p99`].
pub struct TelemetrySnapshot {
    /// Everything merged so far (counters and histogram buckets sum,
    /// gauges keep their max).
    pub snap: radqec_telemetry::MetricsSnapshot,
    prometheus: Option<String>,
}

/// Start a bin's telemetry export (reads `--prometheus` from the args).
pub fn telemetry_snapshot() -> TelemetrySnapshot {
    let path = arg_flag("prometheus", String::new());
    TelemetrySnapshot {
        snap: radqec_telemetry::MetricsSnapshot::default(),
        prometheus: (!path.is_empty()).then_some(path),
    }
}

impl TelemetrySnapshot {
    /// Fold one registry snapshot into the bin-wide export.
    pub fn merge(&mut self, other: &radqec_telemetry::MetricsSnapshot) {
        self.snap.merge_from(other);
    }

    /// Write the merged exposition if `--prometheus <path>` was given.
    /// Call once, after the last merge.
    pub fn write_prometheus(&self) {
        if let Some(path) = &self.prometheus {
            std::fs::write(path, self.snap.to_prometheus())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("prometheus exposition -> {path}");
        }
    }
}

/// One `"<field>":<value>` JSON member (leading comma included) from
/// quantile `q` of histogram `metric`: the conservative upper bucket
/// bound scaled by `scale`, or `null` when the histogram is absent or
/// empty — so the field always exists for CI to assert on.
fn percentile_field(
    snap: &radqec_telemetry::MetricsSnapshot,
    metric: &str,
    field: &str,
    q: f64,
    scale: f64,
) -> String {
    match snap.histogram(metric).and_then(|h| h.quantile(q)) {
        Some(bound) => format!(",\"{field}\":{:.3}", bound as f64 * scale),
        None => format!(",\"{field}\":null"),
    }
}

/// `,"<field>_p50":…,"<field>_p99":…` from nanosecond histogram
/// `metric`, converted to microseconds.
pub fn percentile_fields_us(
    snap: &radqec_telemetry::MetricsSnapshot,
    metric: &str,
    field: &str,
) -> String {
    percentile_field(snap, metric, &format!("{field}_p50"), 0.5, 1e-3)
        + &percentile_field(snap, metric, &format!("{field}_p99"), 0.99, 1e-3)
}

/// `,"<field>_p99":…` alone (µs) — for stages where the tail is the
/// story.
pub fn percentile_field_us_p99(
    snap: &radqec_telemetry::MetricsSnapshot,
    metric: &str,
    field: &str,
) -> String {
    percentile_field(snap, metric, &format!("{field}_p99"), 0.99, 1e-3)
}

/// `,"<field>_p50":…,"<field>_p99":…` in the histogram's own units
/// (rounds, µs-valued samples, …).
pub fn percentile_fields_raw(
    snap: &radqec_telemetry::MetricsSnapshot,
    metric: &str,
    field: &str,
) -> String {
    percentile_field(snap, metric, &format!("{field}_p50"), 0.5, 1.0)
        + &percentile_field(snap, metric, &format!("{field}_p99"), 0.99, 1.0)
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
    fn percentile_fields_render_us_and_null_when_absent() {
        let reg = radqec_telemetry::MetricsRegistry::new();
        let h = reg.histogram("stage.decode_ns");
        for _ in 0..100 {
            h.record(10_000); // 10 µs
        }
        let snap = reg.snapshot();
        let fields = percentile_fields_us(&snap, "stage.decode_ns", "decode_latency_us");
        assert!(fields.starts_with(",\"decode_latency_us_p50\":"));
        assert!(fields.contains(",\"decode_latency_us_p99\":"));
        assert!(!fields.contains("null"), "populated histogram renders numbers: {fields}");
        // A metric nobody recorded still emits its fields — as null — so
        // CI's field assertions never depend on the workload's physics.
        let missing = percentile_fields_raw(&snap, "detect.latency_rounds", "latency_rounds");
        assert_eq!(missing, ",\"latency_rounds_p50\":null,\"latency_rounds_p99\":null");
        assert_eq!(
            percentile_field_us_p99(&snap, "stage.extract_ns", "extract_latency_us"),
            ",\"extract_latency_us_p99\":null"
        );
    }

    #[test]
    fn telemetry_snapshot_merges_registries() {
        let a = radqec_telemetry::MetricsRegistry::new();
        let b = radqec_telemetry::MetricsRegistry::new();
        a.counter("decode.shots").add(3);
        b.counter("decode.shots").add(4);
        a.histogram("stream.round_ns").record(1000);
        b.histogram("stream.round_ns").record(1000);
        let mut tel = telemetry_snapshot();
        assert!(tel.prometheus.is_none(), "tests run without --prometheus");
        tel.merge(&a.snapshot());
        tel.merge(&b.snapshot());
        assert_eq!(tel.snap.counter("decode.shots"), 7);
        assert_eq!(tel.snap.histogram("stream.round_ns").map(|h| h.count()), Some(2));
        tel.write_prometheus(); // no path: must be a no-op
    }

    #[test]
    fn csv_sink_without_flag_prints() {
        let mut sink = CsvSink::from_args();
        assert!(sink.path.is_none(), "tests run without --csv");
        sink.emit("noop", "h\n"); // must not touch the filesystem
        assert_eq!(sink.sections, 1);
    }
}
