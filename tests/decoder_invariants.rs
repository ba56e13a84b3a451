//! Property tests on decoder invariants: decoders must be total (any
//! syndrome decodes), deterministic, and exact on every single-fault coset.

use proptest::prelude::*;
use radqec::prelude::*;
use radqec_circuit::{execute, Circuit, Gate, ShotRecord};
use radqec_core::codes::{CodeCircuit, CodeSpec};
use radqec_stabilizer::StabilizerBackend;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn codes_under_test() -> Vec<CodeSpec> {
    vec![
        RepetitionCode::bit_flip(5).into(),
        RepetitionCode::bit_flip(9).into(),
        XxzzCode::new(3, 3).into(),
        XxzzCode::new(3, 5).into(),
    ]
}

/// Execute the code circuit with an arbitrary Pauli inserted after the
/// logical-op layer (the second barrier).
fn shot_with_fault(code: &CodeCircuit, fault: &[Gate], seed: u64) -> ShotRecord {
    let mut broken = Circuit::new(code.circuit.num_qubits(), code.circuit.num_clbits());
    let mut barriers = 0;
    for g in code.circuit.ops() {
        broken.push(*g);
        if matches!(g, Gate::Barrier) {
            barriers += 1;
            if barriers == 2 {
                for f in fault {
                    broken.push(*f);
                }
            }
        }
    }
    let mut backend = StabilizerBackend::new(code.total_qubits());
    let mut rng = StdRng::seed_from_u64(seed);
    execute(&broken, &mut backend, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Decoding is total and deterministic on arbitrary (even garbage)
    /// classical records.
    #[test]
    fn decoders_are_total_and_deterministic(bits in proptest::collection::vec(any::<bool>(), 17)) {
        let code = XxzzCode::new(3, 3).build();
        let mwpm = MwpmDecoder::new(&code);
        let mut shot = ShotRecord::new(code.circuit.num_clbits());
        for (i, &b) in bits.iter().enumerate() {
            shot.set(i as u32, b);
        }
        let a1 = mwpm.decode(&shot);
        let a2 = mwpm.decode(&shot);
        prop_assert_eq!(a1, a2);
    }

    /// Any single X error between the rounds is corrected by MWPM on every
    /// code (single faults are within every code's correction radius for
    /// the primary family).
    #[test]
    fn single_x_between_rounds_is_corrected(code_idx in 0usize..4, seed in 0u64..50) {
        let spec = codes_under_test()[code_idx];
        let code = spec.build();
        let mwpm = MwpmDecoder::new(&code);
        for &d in &code.data_qubits {
            let shot = shot_with_fault(&code, &[Gate::X(d)], seed);
            prop_assert!(
                mwpm.decode(&shot),
                "{}: X on data {} uncorrected", code.name, d
            );
        }
    }

    /// Z errors never disturb a Z-basis readout (they commute with every
    /// measurement in the Z-frame of these codes).
    #[test]
    fn single_z_between_rounds_is_harmless(code_idx in 0usize..4, seed in 0u64..50) {
        let spec = codes_under_test()[code_idx];
        let code = spec.build();
        let mwpm = MwpmDecoder::new(&code);
        for &d in &code.data_qubits {
            let shot = shot_with_fault(&code, &[Gate::Z(d)], seed);
            prop_assert!(
                mwpm.decode(&shot),
                "{}: Z on data {} caused a logical error", code.name, d
            );
        }
    }

    /// Two X errors on the same qubit cancel: decoded output must be
    /// logical one again.
    #[test]
    fn double_x_cancels(code_idx in 0usize..4, data in 0u32..9, seed in 0u64..20) {
        let spec = codes_under_test()[code_idx];
        let code = spec.build();
        if (data as usize) >= code.data_qubits.len() {
            return Ok(());
        }
        let mwpm = MwpmDecoder::new(&code);
        let shot = shot_with_fault(&code, &[Gate::X(data), Gate::X(data)], seed);
        prop_assert!(mwpm.decode(&shot), "{}: XX on {} flagged", code.name, data);
    }
}

#[test]
fn weight_two_errors_within_distance_are_corrected_on_rep9() {
    // distance 9 corrects up to 4 bit flips between rounds.
    let code = RepetitionCode::bit_flip(9).build();
    let mwpm = MwpmDecoder::new(&code);
    for a in 0..9u32 {
        for b in 0..9u32 {
            if a == b {
                continue;
            }
            let shot = shot_with_fault(&code, &[Gate::X(a), Gate::X(b)], 3);
            assert!(mwpm.decode(&shot), "X{a} X{b} uncorrected");
        }
    }
}

#[test]
fn beyond_distance_errors_flip_the_logical_on_rep3() {
    // distance 3: two simultaneous flips exceed the correction radius; the
    // decoder must *mis*correct into logical 0 (this is the expected coset
    // failure, evidence the decoder follows the matching rather than luck).
    let code = RepetitionCode::bit_flip(3).build();
    let mwpm = MwpmDecoder::new(&code);
    let shot = shot_with_fault(&code, &[Gate::X(0), Gate::X(1)], 5);
    assert!(!mwpm.decode(&shot), "two flips on distance-3 should defeat the decoder");
}

#[test]
fn stabilizer_group_is_invariant_under_code_circuit_rounds() {
    // After a noiseless round, all primary syndromes must read 0 again on a
    // second execution — the circuit leaves the code space intact.
    for spec in codes_under_test() {
        let code = spec.build();
        let mwpm = MwpmDecoder::new(&code);
        for seed in 0..10 {
            let mut backend = StabilizerBackend::new(code.total_qubits());
            let mut rng = StdRng::seed_from_u64(seed);
            let shot = execute(&code.circuit, &mut backend, &mut rng);
            assert!(mwpm.defects(&shot).is_empty(), "{} seed {seed}", code.name);
        }
    }
}
