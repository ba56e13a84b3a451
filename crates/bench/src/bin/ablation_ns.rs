//! Ablation: sensitivity to the number of temporal samples n_s.
//!
//! The paper picks n_s = 10 as the accuracy/cost trade-off for the
//! staircase approximation T̂ of the exponential decay (Sec. III-B,
//! Fig. 3). This binary sweeps n_s and reports the event-averaged logical
//! error. `--shots N` (default 300), `--seed N`.

use radqec_bench::{arg_count, arg_flag, header, pct};
use radqec_core::codes::{CodeSpec, RepetitionCode};
use radqec_core::injection::InjectionEngine;
use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};

fn main() {
    let shots = arg_count("shots", 300);
    let seed: u64 = arg_flag("seed", 0xA2);
    header("Ablation — temporal sample count n_s (rep-(5,1), root 2)");
    let engine = InjectionEngine::builder(CodeSpec::from(RepetitionCode::bit_flip(5)))
        .shots(shots)
        .seed(seed)
        .build();
    println!("{:>6} {:>14} {:>14}", "n_s", "mean error", "median error");
    for ns in [2usize, 4, 6, 10, 16, 24] {
        let model = RadiationModel { num_samples: ns, ..Default::default() };
        let fault = FaultSpec::Radiation { model, root: 2 };
        let out = engine.run(&fault, &NoiseSpec::paper_default());
        println!(
            "{:>6} {:>14} {:>14}",
            ns,
            pct(out.logical_error_rate()),
            pct(out.median_logical_error())
        );
    }
    println!("\n(n_s = 10 is the paper's choice; the mean stabilises around it)");
}
