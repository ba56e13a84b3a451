//! Paper Figure 5: the logical-error landscape — intrinsic noise (physical
//! error rate p from 1e-8 to 1e-1) against the temporal evolution of a
//! radiation strike on physical qubit 2.
//!
//! Runs both paper panels — repetition-(5,1) on a 5×2 lattice and
//! XXZZ-(3,3) on a 5×4 lattice (exact tableau sampler) — plus the deep
//! XXZZ-(5,5) landscape at 10⁵ frame-sampler shots per grid point (several
//! minutes on a laptop core; skip with `--deep-shots 0`).
//! `--shots N` (default 400), `--seed N`, `--deep-shots N` (default 10⁵).

use radqec_bench::{arg_count, arg_flag, header, pct, CsvSink};
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::experiments::{run_fig5, Fig5Config};

fn print_panel(cfg: &Fig5Config, shots: usize, sink: &mut CsvSink) {
    let res = run_fig5(cfg);
    header(&format!(
        "Fig. 5 — {} on {} (root qubit 2, {} shots/point)",
        res.code_name, res.topology_name, shots
    ));
    print!("{:>12}", "p \\ inj.prob");
    for ip in &res.injection_probabilities {
        print!(" {:>7.4}", ip);
    }
    println!();
    for row in &res.rows {
        print!("{:>12.0e}", row.physical_error_rate);
        for e in &row.per_sample {
            print!(" {:>7}", pct(*e));
        }
        println!();
    }
    println!("mean logical error at impact: {}", pct(res.mean_error_at_impact()));
    sink.emit(&res.code_name, &res.to_csv());
}

fn run_panel(code: CodeSpec, shots: usize, seed: u64, sink: &mut CsvSink) {
    let mut cfg = Fig5Config::new(code);
    cfg.shots = shots;
    cfg.seed = seed;
    print_panel(&cfg, shots, sink);
}

fn main() {
    let shots = arg_count("shots", 400);
    let seed: u64 = arg_flag("seed", 0x515);
    let deep_shots: usize = arg_flag("deep-shots", 100_000);
    let mut sink = CsvSink::from_args();
    run_panel(RepetitionCode::bit_flip(5).into(), shots, seed, &mut sink);
    run_panel(XxzzCode::new(3, 3).into(), shots, seed, &mut sink);
    if deep_shots > 0 {
        let mut cfg = Fig5Config::deep();
        cfg.shots = deep_shots;
        cfg.seed = seed;
        print_panel(&cfg, deep_shots, &mut sink);
    }
}
