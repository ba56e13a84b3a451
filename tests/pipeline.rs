//! End-to-end pipeline integration tests: code construction → transpilation
//! → noisy execution → decoding, across every configuration the paper's
//! figures use.

use radqec::prelude::*;
use radqec_core::codes::CodeSpec;
use radqec_noise::RadiationModel;
use radqec_topology::{devices, generators};

fn all_paper_codes() -> Vec<CodeSpec> {
    let mut v: Vec<CodeSpec> = vec![];
    for d in [3u32, 5, 7, 9, 11, 13, 15] {
        v.push(RepetitionCode::bit_flip(d).into());
    }
    for (dz, dx) in [(1, 3), (3, 1), (3, 3), (3, 5), (5, 3)] {
        v.push(XxzzCode::new(dz, dx).into());
    }
    v
}

#[test]
fn every_paper_code_is_noiselessly_correct() {
    for spec in all_paper_codes() {
        let engine = InjectionEngine::builder(spec).shots(32).seed(9).build();
        let out = engine.run(&FaultSpec::None, &NoiseSpec::noiseless());
        assert_eq!(
            out.logical_error_rate(),
            0.0,
            "{} decoded wrongly without noise",
            engine.code().name
        );
    }
}

#[test]
fn every_paper_code_validates_structurally() {
    for spec in all_paper_codes() {
        let code = spec.build();
        code.validate().unwrap_or_else(|e| panic!("{}: {e}", code.name));
        // Register bookkeeping matches the paper's counts.
        assert_eq!(code.total_qubits(), spec.total_qubits(), "{}", code.name);
        assert_eq!(
            code.circuit.num_clbits() as usize,
            2 * code.num_stabilizers() + 1,
            "{}",
            code.name
        );
    }
}

#[test]
fn transpilation_preserves_correctness_on_devices() {
    // Noiseless correctness must survive routing onto every device graph.
    let spec = CodeSpec::from(XxzzCode::new(3, 3));
    for topo in [
        generators::complete(18),
        generators::linear(18),
        generators::mesh(5, 4),
        devices::almaden(),
        devices::brooklyn(),
        devices::cambridge(),
        devices::johannesburg(),
    ] {
        let engine = InjectionEngine::builder(spec).topology(topo).shots(24).seed(5).build();
        let out = engine.run(&FaultSpec::None, &NoiseSpec::noiseless());
        assert_eq!(out.logical_error_rate(), 0.0, "broken on {}", engine.topology().name());
    }
}

#[test]
fn repetition_on_paper_devices_is_noiselessly_correct() {
    let spec = CodeSpec::from(RepetitionCode::bit_flip(11));
    for topo in [
        generators::linear(22),
        generators::mesh(5, 6),
        devices::brooklyn(),
        devices::cairo(),
        devices::cambridge(),
    ] {
        let engine = InjectionEngine::builder(spec).topology(topo).shots(16).seed(2).build();
        let out = engine.run(&FaultSpec::None, &NoiseSpec::noiseless());
        assert_eq!(out.logical_error_rate(), 0.0, "broken on {}", engine.topology().name());
    }
}

#[test]
fn routed_two_qubit_gates_respect_device_edges() {
    for spec in [CodeSpec::from(RepetitionCode::bit_flip(11)), CodeSpec::from(XxzzCode::new(3, 3))]
    {
        for topo in [generators::mesh(5, 6), devices::cairo(), devices::brooklyn()] {
            let engine = InjectionEngine::builder(spec).topology(topo).shots(1).build();
            let t = engine.transpiled();
            for g in t.circuit.ops() {
                if g.is_two_qubit() {
                    let qs = g.qubits();
                    assert!(
                        engine.topology().are_adjacent(qs[0], qs[1]),
                        "{}: gate on non-adjacent {:?}",
                        engine.topology().name(),
                        qs.as_slice()
                    );
                }
            }
        }
    }
}

#[test]
fn radiation_fault_decays_over_the_event() {
    let engine =
        InjectionEngine::builder(CodeSpec::from(XxzzCode::new(3, 3))).shots(400).seed(4).build();
    let fault = FaultSpec::Radiation { model: RadiationModel::default(), root: 2 };
    let out = engine.run(&fault, &NoiseSpec::noiseless());
    // Impact sample strictly worse than the last sample, which approaches 0
    // without intrinsic noise.
    assert!(out.per_sample[0] > 0.05, "impact too mild: {:?}", out.per_sample);
    assert!(out.per_sample[9] < out.per_sample[0] / 2.0, "no decay: {:?}", out.per_sample);
}

#[test]
fn radiation_beats_intrinsic_noise_even_at_fault_tolerant_rates() {
    // Paper Observation I: at p = 1e-8 the strike still dominates.
    let engine = InjectionEngine::builder(CodeSpec::from(RepetitionCode::bit_flip(5)))
        .shots(500)
        .seed(6)
        .build();
    let noise = NoiseSpec::depolarizing(1e-8);
    let clean = engine.logical_error_at_sample(&FaultSpec::None, &noise, 0);
    let strike = FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 2 };
    let hit = engine.logical_error_at_sample(&strike, &noise, 0);
    assert!(clean < 0.01, "clean rate {clean}");
    assert!(hit > 0.10, "strike rate {hit}");
}

#[test]
fn results_are_deterministic_for_fixed_seed() {
    let build = || {
        InjectionEngine::builder(CodeSpec::from(XxzzCode::new(3, 3))).shots(150).seed(99).build()
    };
    let fault = FaultSpec::Radiation { model: RadiationModel::default(), root: 1 };
    let a = build().run(&fault, &NoiseSpec::paper_default());
    let b = build().run(&fault, &NoiseSpec::paper_default());
    assert_eq!(a, b);
}

#[test]
fn larger_intrinsic_noise_means_larger_logical_error() {
    // Monotonicity along the noise axis of Fig. 5.
    let engine = InjectionEngine::builder(CodeSpec::from(RepetitionCode::bit_flip(5)))
        .shots(800)
        .seed(12)
        .build();
    let lo = engine.logical_error_at_sample(&FaultSpec::None, &NoiseSpec::depolarizing(1e-4), 0);
    let hi = engine.logical_error_at_sample(&FaultSpec::None, &NoiseSpec::depolarizing(1e-1), 0);
    assert!(lo < hi, "lo={lo} hi={hi}");
}
