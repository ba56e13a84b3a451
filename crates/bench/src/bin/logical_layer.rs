//! The paper's future work (Sec. VI): post-QEC logical-layer fault
//! injection. Measures the physical-level post-QEC logical error rate of a
//! radiation event per temporal sample, lifts it to a per-gate logical
//! fault rate on the struck patch, and propagates it through a logical
//! application circuit (GHZ preparation) to find the application-level
//! corruption probability. `--shots N` (default 400), `--seed N`.

use radqec_bench::{arg_count, arg_flag, header, pct};
use radqec_circuit::Circuit;
use radqec_core::codes::{CodeSpec, XxzzCode};
use radqec_core::injection::InjectionEngine;
use radqec_core::logical::{run_logical_injection, LogicalFaultRates};
use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};

fn main() {
    let shots = arg_count("shots", 400);
    let seed: u64 = arg_flag("seed", 0x10C);

    // Step 1: physical campaign — per-sample post-QEC logical error of an
    // XXZZ-(3,3) patch under a radiation strike at qubit 2.
    let engine = InjectionEngine::builder(CodeSpec::from(XxzzCode::new(3, 3)))
        .shots(shots)
        .seed(seed)
        .build();
    let model = RadiationModel::default();
    let fault = FaultSpec::Radiation { model, root: 2 };
    let physical = engine.run(&fault, &NoiseSpec::paper_default());
    let baseline = engine.logical_error_at_sample(&FaultSpec::None, &NoiseSpec::paper_default(), 0);

    header("Step 1 — post-QEC logical error per temporal sample (xxzz-(3,3))");
    println!("baseline (no strike): {}", pct(baseline));
    for (k, e) in physical.per_sample.iter().enumerate() {
        println!("  sample {k}: {}", pct(*e));
    }

    // Step 2: logical application — a 5-logical-qubit GHZ circuit where
    // patch 0 is struck and the rest run at the baseline rate.
    let mut ghz = Circuit::new(5, 5);
    ghz.h(0);
    for q in 1..5 {
        ghz.cx(q - 1, q);
    }
    for q in 0..5 {
        ghz.measure(q, q);
    }
    header("Step 2 — GHZ-5 logical circuit, struck patch 0");
    println!("{:>8} {:>16} {:>20}", "sample", "patch-0 rate", "output corruption");
    for (k, &rate) in physical.per_sample.iter().enumerate() {
        let rates = LogicalFaultRates::strike(5, 0, rate, baseline);
        let out = run_logical_injection(&ghz, &rates, shots, seed ^ k as u64);
        println!("{:>8} {:>16} {:>20}", k, pct(rate), pct(out.corruption_rate));
    }
    println!("\na struck patch early in the logical DAG corrupts the whole GHZ output;");
    println!("per-sample decay mirrors the physical transient (paper Sec. VI).");
}
