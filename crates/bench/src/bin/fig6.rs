//! Paper Figure 6: logical-error criticality by code distance under a
//! single non-spreading erasure fault at impact time (t = 0), median over
//! injection sites, intrinsic noise p = 1%.
//!
//! Panel (a): bit-flip repetition codes (3,1) … (15,1).
//! Panel (b): XXZZ codes (1,3), (3,1), (3,3), (3,5), (5,3).
//! Deep panel: rep-(5,1) + XXZZ-(5,5) at 10⁵ frame-sampler shots per
//! injection site (minutes on a laptop core; skip with `--deep-shots 0`).
//! `--shots N` (default 300), `--seed N`, `--deep-shots N` (default 10⁵).

use radqec_bench::{arg_count, arg_flag, bar, header, pct, CsvSink};
use radqec_core::experiments::{run_fig6, Fig6Config, Fig6Result};

fn print_panel(title: &str, res: &Fig6Result, sink: &mut CsvSink) {
    header(title);
    println!("{:>12} {:>6} {:>8}  plot", "distance", "size", "median");
    for row in &res.rows {
        println!(
            "{:>12} {:>6} {:>8}  {}",
            format!("({},{})", row.distance.0, row.distance.1),
            row.circuit_size,
            pct(row.median_logic_error),
            bar(row.median_logic_error, 0.5, 40)
        );
    }
    sink.emit(title, &res.to_csv());
}

fn main() {
    let shots = arg_count("shots", 300);
    let seed: u64 = arg_flag("seed", 0x616);
    let mut sink = CsvSink::from_args();

    let mut cfg = Fig6Config::repetition_panel();
    cfg.shots = shots;
    cfg.seed = seed;
    print_panel("Fig. 6a — bit-flip repetition code", &run_fig6(&cfg), &mut sink);

    let mut cfg = Fig6Config::xxzz_panel();
    cfg.shots = shots;
    cfg.seed = seed;
    print_panel("Fig. 6b — XXZZ code", &run_fig6(&cfg), &mut sink);

    let deep_shots: usize = arg_flag("deep-shots", 100_000);
    if deep_shots > 0 {
        let mut cfg = Fig6Config::deep_panel();
        cfg.shots = deep_shots;
        cfg.seed = seed;
        print_panel(
            &format!("Fig. 6 deep — distance-5 codes, {deep_shots} frame-sampler shots/site"),
            &run_fig6(&cfg),
            &mut sink,
        );
    }
}
