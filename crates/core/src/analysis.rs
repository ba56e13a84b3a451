//! Circuit-level analyses backing the paper's Observation VII: qubits used
//! earlier in the gate sequence have more DAG descendants, so a radiation
//! strike on them corrupts more downstream operations.

use radqec_circuit::{Circuit, CircuitDag};

/// Per-qubit criticality: the number of DAG nodes reachable from the first
/// operation on each qubit (0 for untouched qubits).
pub fn criticality_profile(circuit: &Circuit) -> Vec<usize> {
    CircuitDag::new(circuit).criticality_profile()
}

/// Criticality restricted to a subset of (physical) qubits, keeping order.
pub fn criticality_of(circuit: &Circuit, qubits: &[u32]) -> Vec<usize> {
    let prof = criticality_profile(circuit);
    qubits.iter().map(|&q| prof[q as usize]).collect()
}

/// Spearman rank correlation between per-qubit criticality and an observed
/// per-qubit metric (e.g. Fig. 8 median logical error). Positive values
/// support Observation VII.
pub fn criticality_error_correlation(
    circuit: &Circuit,
    qubits: &[u32],
    observed_error: &[f64],
) -> Option<f64> {
    assert_eq!(qubits.len(), observed_error.len(), "one observation per qubit");
    let crit: Vec<f64> = criticality_of(circuit, qubits).into_iter().map(|c| c as f64).collect();
    crate::stats::spearman(&crit, observed_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::RepetitionCode;

    #[test]
    fn data_qubits_dominate_criticality_in_repetition_code() {
        let code = RepetitionCode::bit_flip(5).build();
        let prof = criticality_profile(&code.circuit);
        // Every data qubit's first gate precedes the readout chain, so its
        // criticality is large; the readout ancilla acts last.
        let readout = code.readout_ancilla as usize;
        for &d in &code.data_qubits {
            assert!(
                prof[d as usize] > prof[readout],
                "data {d}: {} vs readout {}",
                prof[d as usize],
                prof[readout]
            );
        }
    }

    #[test]
    fn earlier_data_qubits_are_more_critical() {
        // In the sequential stabilisation chain, data 0 is touched first.
        let code = RepetitionCode::bit_flip(7).build();
        let prof = criticality_profile(&code.circuit);
        assert!(prof[0] >= prof[6], "{prof:?}");
    }

    #[test]
    fn correlation_helper_computes() {
        let code = RepetitionCode::bit_flip(3).build();
        let qubits: Vec<u32> = (0..code.total_qubits()).collect();
        let crit: Vec<f64> =
            criticality_of(&code.circuit, &qubits).into_iter().map(|c| c as f64).collect();
        // Perfectly correlated observation reproduces rho = 1.
        let rho = criticality_error_correlation(&code.circuit, &qubits, &crit).unwrap();
        assert!((rho - 1.0).abs() < 1e-12);
    }
}
