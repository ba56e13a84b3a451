//! Paper Figure 8: logical error rate by corrupted qubit on different
//! architectures — a full spatio-temporal radiation fault injected at every
//! used physical qubit of each transpiled code, median over the fault
//! duration.
//!
//! Panel (a): repetition-(11,1) on linear/mesh/Brooklyn/Cairo/Cambridge.
//! Panel (b): XXZZ-(3,3) on complete/linear/mesh/Almaden/Brooklyn/
//! Cambridge/Johannesburg.
//! Deep panel: XXZZ-(5,5) on its fitted 5×10 mesh at 10⁵ frame-sampler
//! shots per (root, sample) — tens of minutes on a single laptop core;
//! skip with `--deep-shots 0` or shrink it.
//! `--shots N` (default 150), `--seed N`, `--deep-shots N` (default 10⁵).

use radqec_bench::{arg_count, arg_flag, header, pct, CsvSink};
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::experiments::{run_fig8, Fig8Config};

fn run_panel(cfg: &Fig8Config, title: &str, sink: &mut CsvSink) {
    let res = run_fig8(cfg);
    header(title);
    println!(
        "{:>14} {:>8} {:>6} {:>6} {:>10} {:>10} {:>10}",
        "architecture", "avg.deg", "swaps", "2q", "min", "median", "max"
    );
    for a in &res.archs {
        let errs: Vec<f64> = a.per_qubit.iter().map(|q| q.median_logic_error).collect();
        let min = errs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = errs.iter().cloned().fold(0.0, f64::max);
        println!(
            "{:>14} {:>8.2} {:>6} {:>6} {:>10} {:>10} {:>10}",
            a.arch_name,
            a.average_degree,
            a.swap_count,
            a.two_qubit_gates,
            pct(min),
            pct(a.median_of_medians()),
            pct(max)
        );
    }
    sink.emit(title, &res.to_csv());
}

fn main() {
    let shots = arg_count("shots", 150);
    let seed: u64 = arg_flag("seed", 0x818);
    let mut sink = CsvSink::from_args();

    let mut cfg = Fig8Config::repetition_panel(CodeSpec::from(RepetitionCode::bit_flip(11)));
    cfg.shots = shots;
    cfg.seed = seed;
    run_panel(&cfg, "Fig. 8a — repetition-(11,1) across architectures", &mut sink);

    let mut cfg = Fig8Config::xxzz_panel(CodeSpec::from(XxzzCode::new(3, 3)));
    cfg.shots = shots;
    cfg.seed = seed;
    run_panel(&cfg, "Fig. 8b — XXZZ-(3,3) across architectures", &mut sink);

    let deep_shots: usize = arg_flag("deep-shots", 100_000);
    if deep_shots > 0 {
        let mut cfg = Fig8Config::deep_panel();
        cfg.shots = deep_shots;
        cfg.seed = seed;
        run_panel(
            &cfg,
            "Fig. 8 deep — XXZZ-(5,5) per-qubit criticality (frame sampler)",
            &mut sink,
        );
    }
}
