//! The quantum repetition code (paper Sec. IV-A, Fig. 2).
//!
//! `n` data qubits in a GHZ-encoded chain, `n − 1` syndrome ancillas
//! measuring nearest-neighbour parities, and one readout ancilla: `2n`
//! qubits total. Distance `(d, 1)` protects against bit flips (Z-basis
//! parity checks), `(1, d)` against phase flips (X-basis checks on a
//! |+⟩-encoded chain).

use super::{
    assemble, assemble_memory, assemble_memory_readout, Basis, CodeCircuit, CodeLayout,
    MemoryCircuit, StabKind,
};
use radqec_topology::{generators::linear, Topology};

/// Repetition-code flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepetitionFlavor {
    /// Distance `(d, 1)`: ZZ checks, detects bit flips — the variant the
    /// paper evaluates throughout.
    BitFlip,
    /// Distance `(1, d)`: XX checks on |+⟩-encoded data, detects phase
    /// flips.
    PhaseFlip,
}

/// A parameterised repetition code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RepetitionCode {
    /// Chain length `n` (odd, ≥ 3).
    pub distance: u32,
    /// Bit-flip or phase-flip protection.
    pub flavor: RepetitionFlavor,
}

impl RepetitionCode {
    /// Bit-flip protected code of distance `(d, 1)`.
    ///
    /// # Panics
    /// Panics unless `d` is odd and ≥ 3.
    pub fn bit_flip(d: u32) -> Self {
        assert!(d >= 3 && d % 2 == 1, "repetition distance must be odd ≥ 3, got {d}");
        RepetitionCode { distance: d, flavor: RepetitionFlavor::BitFlip }
    }

    /// Phase-flip protected code of distance `(1, d)`.
    ///
    /// # Panics
    /// Panics unless `d` is odd and ≥ 3.
    pub fn phase_flip(d: u32) -> Self {
        assert!(d >= 3 && d % 2 == 1, "repetition distance must be odd ≥ 3, got {d}");
        RepetitionCode { distance: d, flavor: RepetitionFlavor::PhaseFlip }
    }
}

impl RepetitionCode {
    fn layout(&self) -> CodeLayout {
        let d = self.distance;
        let kind = match self.flavor {
            RepetitionFlavor::BitFlip => StabKind::Z,
            RepetitionFlavor::PhaseFlip => StabKind::X,
        };
        // Nearest-neighbour parity checks along the chain.
        let stabs: Vec<(StabKind, Vec<u32>)> = (0..d - 1).map(|i| (kind, vec![i, i + 1])).collect();
        let all: Vec<u32> = (0..d).collect();
        CodeLayout {
            name: self.name(),
            n_data: d,
            primary_count: stabs.len(),
            stabs,
            // Transversal logical op on every data qubit (X^⊗n for bit-flip,
            // Z^⊗n for phase-flip — paper Fig. 2 shows the X column).
            logical_op_support: all,
            // Minimal-weight logical readout (Z̄ ~ Z on a single chain
            // qubit): one CX into the readout ancilla, as in qtcodes.
            logical_readout_support: vec![0],
            readout_basis: match self.flavor {
                RepetitionFlavor::BitFlip => Basis::Z,
                RepetitionFlavor::PhaseFlip => Basis::X,
            },
            distance: match self.flavor {
                RepetitionFlavor::BitFlip => (d, 1),
                RepetitionFlavor::PhaseFlip => (1, d),
            },
            init_plus: self.flavor == RepetitionFlavor::PhaseFlip,
        }
    }

    /// The code's native device embedding for the memory/streaming
    /// workload: the chain interleaved on `linear(2d−1)` — data `i` at
    /// physical `2i`, the ancilla of check `(i, i+1)` between them at
    /// `2i+1` — so every stabilizer CX runs on a device edge and routing
    /// inserts no SWAPs. Returns `(topology, logical→physical table)`
    /// covering the memory circuit's register.
    pub fn native_embedding(&self) -> (Topology, Vec<u32>) {
        let d = self.distance;
        let mut l2p: Vec<u32> = (0..d).map(|i| 2 * i).collect();
        l2p.extend((0..d - 1).map(|i| 2 * i + 1));
        (linear(2 * d - 1), l2p)
    }

    /// Build the full experiment circuit and its decoding structure.
    pub fn build(&self) -> CodeCircuit {
        assemble(self.layout())
    }

    /// Build the `rounds`-round memory experiment (syndrome streaming; see
    /// [`MemoryCircuit`]).
    pub fn build_memory(&self, rounds: usize) -> MemoryCircuit {
        assemble_memory(self.layout(), rounds)
    }

    /// Build the `rounds`-round memory experiment with a final transversal
    /// data readout (see [`MemoryReadout`](super::MemoryReadout)) — the
    /// space-time decoding workload, where each replica's full history is
    /// scored against its true logical frame.
    pub fn build_memory_readout(&self, rounds: usize) -> MemoryCircuit {
        assemble_memory_readout(self.layout(), rounds)
    }

    /// Short name (used in experiment tables).
    pub fn name(&self) -> String {
        match self.flavor {
            RepetitionFlavor::BitFlip => format!("rep-({},1)", self.distance),
            RepetitionFlavor::PhaseFlip => format!("rep-(1,{})", self.distance),
        }
    }

    /// Total qubits the built circuit will use.
    pub fn total_qubits(&self) -> u32 {
        2 * self.distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::QubitRole;

    #[test]
    fn distance5_matches_paper_figure2() {
        // Fig. 2: distance-5 bit-flip code uses 10 qubits: 5 data, 4 mz,
        // 1 ancilla; classical regs 4+4+1.
        let code = RepetitionCode::bit_flip(5).build();
        assert_eq!(code.total_qubits(), 10);
        assert_eq!(code.data_qubits.len(), 5);
        assert_eq!(code.num_stabilizers(), 4);
        assert_eq!(code.primary_count, 4);
        assert_eq!(code.circuit.num_clbits(), 9);
        assert_eq!(code.distance, (5, 1));
        // 5 logical X gates in the middle (paper: "replicated application
        // of a logical operation (an X gate)")
        assert_eq!(code.circuit.count_by_name("x"), 5);
        code.validate().unwrap();
    }

    #[test]
    fn stabilizers_are_nearest_neighbour_zz() {
        let code = RepetitionCode::bit_flip(5).build();
        for (i, s) in code.stabilizers.iter().enumerate() {
            assert_eq!(s.kind, StabKind::Z);
            assert_eq!(s.support, vec![i as u32, i as u32 + 1]);
        }
        assert_eq!(code.stabilizer_pauli(0).to_string(), "+ZZIII");
    }

    #[test]
    fn all_odd_distances_validate() {
        for d in [3, 5, 7, 9, 11, 13, 15] {
            let code = RepetitionCode::bit_flip(d).build();
            code.validate().unwrap();
            assert_eq!(code.total_qubits(), 2 * d);
        }
    }

    #[test]
    fn phase_flip_flavour_validates() {
        let code = RepetitionCode::phase_flip(5).build();
        code.validate().unwrap();
        assert_eq!(code.distance, (1, 5));
        assert_eq!(code.stabilizers[0].kind, StabKind::X);
        // data starts in |+>: one H per data qubit at the front, plus the
        // round sandwiches and readout-basis rotation
        assert!(code.circuit.count_by_name("h") >= 5);
    }

    #[test]
    fn roles_are_correct() {
        let code = RepetitionCode::bit_flip(3).build();
        assert_eq!(code.qubit_role(0), QubitRole::Data);
        assert_eq!(code.qubit_role(3), QubitRole::StabilizerZ);
        assert_eq!(code.qubit_role(5), QubitRole::Readout);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_distance_rejected() {
        RepetitionCode::bit_flip(4);
    }
}
