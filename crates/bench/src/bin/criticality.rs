//! Observation VII check: correlate per-qubit DAG criticality with the
//! Fig. 8 per-qubit median logical error (Spearman rank correlation).
//! `--shots N` (default 150), `--seed N`.

use radqec_bench::{arg_count, arg_flag, header};
use radqec_core::analysis::criticality_error_correlation;
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::injection::InjectionEngine;
use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};

fn main() {
    let shots = arg_count("shots", 150);
    let seed: u64 = arg_flag("seed", 0xC17);
    header("Observation VII — criticality vs per-qubit radiation error");
    println!("{:>10} {:>12} {:>10}", "code", "topology", "spearman");
    for spec in [
        CodeSpec::from(RepetitionCode::bit_flip(5)),
        CodeSpec::from(RepetitionCode::bit_flip(11)),
        CodeSpec::from(XxzzCode::new(3, 3)),
    ] {
        let engine = InjectionEngine::builder(spec).shots(shots).seed(seed).build();
        let used = engine.used_physical_qubits();
        let errs: Vec<f64> = used
            .iter()
            .map(|&q| {
                let fault =
                    FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: q };
                engine.logical_error_at_sample(&fault, &NoiseSpec::paper_default(), 0)
            })
            .collect();
        let rho = criticality_error_correlation(&engine.transpiled().circuit, &used, &errs)
            .unwrap_or(f64::NAN);
        println!("{:>10} {:>12} {:>10.3}", engine.code().name, engine.topology().name(), rho);
    }
    println!("\n(positive rank correlation supports Observation VII)");
}
