//! Paper Figure 7: impact of fault spread — logical error from k
//! simultaneously erased qubits (connected subgraphs) vs. the reference
//! line of a single spreading radiation fault at impact time.
//!
//! Panel (a): repetition-(15,1); panel (b): XXZZ-(3,3).
//! Deep panel: XXZZ-(5,5) at 10⁵ frame-sampler shots per subgraph on a
//! stride-5 size grid (minutes on a laptop core; skip with
//! `--deep-shots 0`).
//! `--shots N` (default 250), `--seed N`, `--subgraphs N` (default 12),
//! `--deep-shots N` (default 10⁵).

use radqec_bench::{arg_count, arg_flag, bar, header, pct, CsvSink};
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::experiments::{run_fig7, Fig7Config};

fn print_panel(cfg: &Fig7Config, sink: &mut CsvSink) {
    let res = run_fig7(cfg);
    header(&format!(
        "Fig. 7 — {} ({} shots, {} subgraphs/size)",
        res.code_name, cfg.shots, cfg.subgraphs_per_size
    ));
    println!(
        "radiation reference (single spreading fault @ t=0): {}",
        pct(res.radiation_reference)
    );
    println!("{:>10} {:>8}  plot (| = radiation reference)", "corrupted", "median");
    for row in &res.rows {
        let mut plot = bar(row.median_logic_error, 1.0, 50);
        let marker = ((res.radiation_reference) * 50.0) as usize;
        if marker < plot.len() {
            let mut chars: Vec<char> = plot.chars().collect();
            chars[marker] = '|';
            plot = chars.into_iter().collect();
        }
        println!("{:>10} {:>8}  {}", row.corrupted_qubits, pct(row.median_logic_error), plot);
    }
    match res.crossover_size() {
        Some(k) => println!("crossover: erasures exceed the radiation fault at k = {k}"),
        None => println!("crossover: not reached"),
    }
    sink.emit(&res.code_name, &res.to_csv());
}

fn run_panel(code: CodeSpec, shots: usize, seed: u64, subgraphs: usize, sink: &mut CsvSink) {
    let mut cfg = Fig7Config::new(code);
    cfg.shots = shots;
    cfg.seed = seed;
    cfg.subgraphs_per_size = subgraphs;
    print_panel(&cfg, sink);
}

fn main() {
    let shots = arg_count("shots", 250);
    let seed: u64 = arg_flag("seed", 0x717);
    let subgraphs: usize = arg_flag("subgraphs", 12);
    let deep_shots: usize = arg_flag("deep-shots", 100_000);
    let mut sink = CsvSink::from_args();
    run_panel(RepetitionCode::bit_flip(15).into(), shots, seed, subgraphs, &mut sink);
    run_panel(XxzzCode::new(3, 3).into(), shots, seed, subgraphs, &mut sink);
    if deep_shots > 0 {
        let mut cfg = Fig7Config::deep();
        cfg.shots = deep_shots;
        cfg.seed = seed;
        print_panel(&cfg, &mut sink);
    }
}
