//! Ablation: sensitivity to the temporal decay constant γ and the spatial
//! constant n of the fault model (Eq. 5–6). The paper fixes γ = 10 and
//! n = 1 from the experimental literature; this sweep shows how the
//! event-averaged logical error depends on both. `--shots N`, `--seed N`.

use radqec_bench::{arg_count, arg_flag, header, pct};
use radqec_core::codes::{CodeSpec, XxzzCode};
use radqec_core::injection::InjectionEngine;
use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};

fn main() {
    let shots = arg_count("shots", 250);
    let seed: u64 = arg_flag("seed", 0xA3);
    let engine = InjectionEngine::builder(CodeSpec::from(XxzzCode::new(3, 3)))
        .shots(shots)
        .seed(seed)
        .build();
    header("Ablation — decay constant γ (xxzz-(3,3), n = 1, root 2)");
    println!("{:>8} {:>14}", "gamma", "mean error");
    for gamma in [2.0f64, 5.0, 10.0, 20.0, 50.0] {
        let model = RadiationModel { gamma, ..Default::default() };
        let fault = FaultSpec::Radiation { model, root: 2 };
        let out = engine.run(&fault, &NoiseSpec::paper_default());
        println!("{:>8.1} {:>14}", gamma, pct(out.logical_error_rate()));
    }
    header("Ablation — spatial constant n (xxzz-(3,3), γ = 10, root 2)");
    println!("{:>8} {:>14}", "n", "mean error");
    for n in [0.5f64, 1.0, 2.0, 4.0] {
        let model = RadiationModel { spatial_n: n, ..Default::default() };
        let fault = FaultSpec::Radiation { model, root: 2 };
        let out = engine.run(&fault, &NoiseSpec::paper_default());
        println!("{:>8.1} {:>14}", n, pct(out.logical_error_rate()));
    }
}
