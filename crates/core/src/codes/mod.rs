//! Surface-code construction (paper Sec. IV).
//!
//! Both code families share the same experiment skeleton (Figs. 1 and 2 of
//! the paper): initialise data to |0⟩, one stabilisation round (syndromes →
//! classical register `c0`, ancillas reset), a transversal logical X, a
//! second round (→ `c1`), and a single-ancilla parity readout of the logical
//! operator. The expected decoded output is logical |1⟩.

mod memory;
mod repetition;
mod xxzz;

pub(crate) use memory::{assemble_memory, assemble_memory_readout};
pub use memory::{MemoryCircuit, MemoryReadout, MemoryStabilizer};
pub use repetition::RepetitionCode;
pub use xxzz::XxzzCode;

use radqec_circuit::Circuit;
use radqec_stabilizer::PauliString;

/// Stabilizer flavour: `Z`-type detect bit flips, `X`-type detect phase
/// flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StabKind {
    /// Z-basis parity check (detects X / bit-flip errors).
    Z,
    /// X-basis parity check (detects Z / phase-flip errors).
    X,
}

/// Measurement basis of the final logical readout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Computational (Z) basis.
    Z,
    /// Hadamard (X) basis.
    X,
}

/// One stabilizer generator of a code, with its circuit resources.
#[derive(Debug, Clone)]
pub struct Stabilizer {
    /// Z or X type.
    pub kind: StabKind,
    /// The dedicated syndrome ancilla qubit.
    pub ancilla: u32,
    /// Data qubits in the stabilizer's support.
    pub support: Vec<u32>,
    /// Classical bit receiving the round-1 outcome.
    pub cbit_round1: u32,
    /// Classical bit receiving the round-2 outcome.
    pub cbit_round2: u32,
}

/// The role a qubit plays in a code circuit (paper Fig. 8 node shapes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QubitRole {
    /// Holds encoded information.
    Data,
    /// Z-syndrome ancilla.
    StabilizerZ,
    /// X-syndrome ancilla.
    StabilizerX,
    /// Final readout ancilla.
    Readout,
}

/// A fully assembled code instance: the circuit plus every piece of
/// structure the decoder and the experiments need.
#[derive(Debug, Clone)]
pub struct CodeCircuit {
    /// Human-readable name, e.g. `rep-(5,1)` or `xxzz-(3,3)`.
    pub name: String,
    /// The logical (pre-transpilation) circuit.
    pub circuit: Circuit,
    /// Data qubit indices (0..n_data by construction).
    pub data_qubits: Vec<u32>,
    /// Stabilizers, *primary first* (the family protecting the readout).
    pub stabilizers: Vec<Stabilizer>,
    /// How many leading entries of `stabilizers` are primary.
    pub primary_count: usize,
    /// The readout ancilla qubit.
    pub readout_ancilla: u32,
    /// Classical bit holding the raw logical readout.
    pub readout_cbit: u32,
    /// Data qubits receiving the transversal logical operation.
    pub logical_op_support: Vec<u32>,
    /// Data qubits in the readout parity chain.
    pub logical_readout_support: Vec<u32>,
    /// Readout basis (Z for bit-flip-protected codes).
    pub readout_basis: Basis,
    /// Code distance as the paper's `(d_Z, d_X)` tuple.
    pub distance: (u32, u32),
}

impl CodeCircuit {
    /// Total qubits (data + stabilizer ancillas + readout ancilla).
    pub fn total_qubits(&self) -> u32 {
        self.circuit.num_qubits()
    }

    /// Number of stabilizer generators.
    pub fn num_stabilizers(&self) -> usize {
        self.stabilizers.len()
    }

    /// The primary stabilizers (those whose syndrome protects the readout).
    pub fn primary_stabilizers(&self) -> &[Stabilizer] {
        &self.stabilizers[..self.primary_count]
    }

    /// Role of logical-circuit qubit `q`.
    pub fn qubit_role(&self, q: u32) -> QubitRole {
        if q == self.readout_ancilla {
            return QubitRole::Readout;
        }
        for s in &self.stabilizers {
            if s.ancilla == q {
                return match s.kind {
                    StabKind::Z => QubitRole::StabilizerZ,
                    StabKind::X => QubitRole::StabilizerX,
                };
            }
        }
        QubitRole::Data
    }

    /// Per-qubit display labels in the paper's Fig. 1/2 style.
    pub fn qubit_labels(&self) -> Vec<String> {
        let mut z = 0usize;
        let mut x = 0usize;
        (0..self.total_qubits())
            .map(|q| match self.qubit_role(q) {
                QubitRole::Data => format!("data{q}"),
                QubitRole::StabilizerZ => {
                    z += 1;
                    format!("mz{}", z - 1)
                }
                QubitRole::StabilizerX => {
                    x += 1;
                    format!("mx{}", x - 1)
                }
                QubitRole::Readout => "ancilla".to_string(),
            })
            .collect()
    }

    /// Stabilizer generator `i` as a signed Pauli string on the data block.
    pub fn stabilizer_pauli(&self, i: usize) -> PauliString {
        let s = &self.stabilizers[i];
        let n = self.data_qubits.len();
        let letter = match s.kind {
            StabKind::Z => 'Z',
            StabKind::X => 'X',
        };
        let factors: Vec<(usize, char)> = s.support.iter().map(|&d| (d as usize, letter)).collect();
        PauliString::from_sparse(n, &factors)
    }

    /// The transversal logical operator applied between rounds.
    pub fn logical_op_pauli(&self) -> PauliString {
        let n = self.data_qubits.len();
        let letter = match self.readout_basis {
            Basis::Z => 'X', // logical X̄ flips the Z-basis readout
            Basis::X => 'Z',
        };
        PauliString::from_sparse(
            n,
            &self.logical_op_support.iter().map(|&d| (d as usize, letter)).collect::<Vec<_>>(),
        )
    }

    /// The logical operator measured by the readout chain.
    pub fn logical_readout_pauli(&self) -> PauliString {
        let n = self.data_qubits.len();
        let letter = match self.readout_basis {
            Basis::Z => 'Z',
            Basis::X => 'X',
        };
        PauliString::from_sparse(
            n,
            &self.logical_readout_support.iter().map(|&d| (d as usize, letter)).collect::<Vec<_>>(),
        )
    }

    /// Structural validation: stabilizers pairwise commute, both logical
    /// operators commute with every stabilizer, and the two logical
    /// operators anticommute. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let stabs: Vec<PauliString> =
            (0..self.num_stabilizers()).map(|i| self.stabilizer_pauli(i)).collect();
        for (i, a) in stabs.iter().enumerate() {
            for (j, b) in stabs.iter().enumerate().skip(i + 1) {
                if !a.commutes_with(b) {
                    return Err(format!("stabilizers {i} and {j} anticommute"));
                }
            }
        }
        let lx = self.logical_op_pauli();
        let lz = self.logical_readout_pauli();
        for (i, s) in stabs.iter().enumerate() {
            if !lx.commutes_with(s) {
                return Err(format!("logical op anticommutes with stabilizer {i}"));
            }
            if !lz.commutes_with(s) {
                return Err(format!("logical readout anticommutes with stabilizer {i}"));
            }
        }
        if lx.commutes_with(&lz) {
            return Err("logical op and logical readout must anticommute".into());
        }
        Ok(())
    }
}

/// Enumerable code kind for experiment configuration tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeSpec {
    /// Repetition code.
    Repetition(RepetitionCode),
    /// XXZZ rotated surface code.
    Xxzz(XxzzCode),
}

impl CodeSpec {
    /// Assemble the circuit.
    pub fn build(&self) -> CodeCircuit {
        match self {
            CodeSpec::Repetition(c) => c.build(),
            CodeSpec::Xxzz(c) => c.build(),
        }
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            CodeSpec::Repetition(c) => c.name(),
            CodeSpec::Xxzz(c) => c.name(),
        }
    }

    /// Assemble the `rounds`-round memory experiment (syndrome streaming).
    pub fn build_memory(&self, rounds: usize) -> MemoryCircuit {
        match self {
            CodeSpec::Repetition(c) => c.build_memory(rounds),
            CodeSpec::Xxzz(c) => c.build_memory(rounds),
        }
    }

    /// Assemble the `rounds`-round memory experiment with a final
    /// transversal data readout (space-time decoding workload).
    pub fn build_memory_readout(&self, rounds: usize) -> MemoryCircuit {
        match self {
            CodeSpec::Repetition(c) => c.build_memory_readout(rounds),
            CodeSpec::Xxzz(c) => c.build_memory_readout(rounds),
        }
    }

    /// The code's native SWAP-free device embedding for the memory
    /// register, when one exists: `(topology, logical→physical table)`.
    /// See `RepetitionCode::native_embedding` /
    /// `XxzzCode::native_embedding`.
    pub fn native_embedding(&self) -> Option<(radqec_topology::Topology, Vec<u32>)> {
        match self {
            CodeSpec::Repetition(c) => Some(c.native_embedding()),
            CodeSpec::Xxzz(c) => c.native_embedding(),
        }
    }

    /// Total qubits of the built circuit.
    pub fn total_qubits(&self) -> u32 {
        match self {
            CodeSpec::Repetition(c) => c.total_qubits(),
            CodeSpec::Xxzz(c) => c.total_qubits(),
        }
    }
}

impl From<RepetitionCode> for CodeSpec {
    fn from(c: RepetitionCode) -> Self {
        CodeSpec::Repetition(c)
    }
}

impl From<XxzzCode> for CodeSpec {
    fn from(c: XxzzCode) -> Self {
        CodeSpec::Xxzz(c)
    }
}

/// Shared circuit assembly: data block, two stabilisation rounds, logical
/// op, parity readout — the exact structure of the paper's Figs. 1–2.
pub(crate) struct CodeLayout {
    pub name: String,
    pub n_data: u32,
    /// (kind, support) in primary-first order.
    pub stabs: Vec<(StabKind, Vec<u32>)>,
    pub primary_count: usize,
    pub logical_op_support: Vec<u32>,
    pub logical_readout_support: Vec<u32>,
    pub readout_basis: Basis,
    pub distance: (u32, u32),
    /// Prepare data in |+⟩^n (phase-flip codes) instead of |0⟩^n.
    pub init_plus: bool,
}

pub(crate) fn assemble(layout: CodeLayout) -> CodeCircuit {
    let n_data = layout.n_data;
    let n_stab = layout.stabs.len() as u32;
    let readout_ancilla = n_data + n_stab;
    let total_qubits = readout_ancilla + 1;
    let readout_cbit = 2 * n_stab;
    let mut circuit = Circuit::new(total_qubits, 2 * n_stab + 1);

    if layout.init_plus {
        for d in 0..n_data {
            circuit.h(d);
        }
        circuit.barrier();
    }

    let stabilizers: Vec<Stabilizer> = layout
        .stabs
        .iter()
        .enumerate()
        .map(|(i, (kind, support))| Stabilizer {
            kind: *kind,
            ancilla: n_data + i as u32,
            support: support.clone(),
            cbit_round1: i as u32,
            cbit_round2: n_stab + i as u32,
        })
        .collect();

    let round = |circuit: &mut Circuit, round2: bool| {
        for s in &stabilizers {
            match s.kind {
                StabKind::Z => {
                    for &d in &s.support {
                        circuit.cx(d, s.ancilla);
                    }
                }
                StabKind::X => {
                    circuit.h(s.ancilla);
                    for &d in &s.support {
                        circuit.cx(s.ancilla, d);
                    }
                    circuit.h(s.ancilla);
                }
            }
        }
        for s in &stabilizers {
            circuit.measure(s.ancilla, if round2 { s.cbit_round2 } else { s.cbit_round1 });
        }
        for s in &stabilizers {
            circuit.reset(s.ancilla);
        }
    };

    round(&mut circuit, false);
    circuit.barrier();
    for &q in &layout.logical_op_support {
        match layout.readout_basis {
            Basis::Z => circuit.x(q),
            Basis::X => circuit.z(q),
        };
    }
    circuit.barrier();
    round(&mut circuit, true);
    circuit.barrier();

    if layout.readout_basis == Basis::X {
        for &q in &layout.logical_readout_support {
            circuit.h(q);
        }
    }
    for &q in &layout.logical_readout_support {
        circuit.cx(q, readout_ancilla);
    }
    circuit.measure(readout_ancilla, readout_cbit);

    let code = CodeCircuit {
        name: layout.name,
        circuit,
        data_qubits: (0..n_data).collect(),
        stabilizers,
        primary_count: layout.primary_count,
        readout_ancilla,
        readout_cbit,
        logical_op_support: layout.logical_op_support,
        logical_readout_support: layout.logical_readout_support,
        readout_basis: layout.readout_basis,
        distance: layout.distance,
    };
    debug_assert_eq!(code.validate(), Ok(()));
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_spec_dispatch() {
        let spec: CodeSpec = RepetitionCode::bit_flip(3).into();
        assert_eq!(spec.name(), "rep-(3,1)");
        assert_eq!(spec.total_qubits(), 6);
        let spec: CodeSpec = XxzzCode::new(3, 3).into();
        assert_eq!(spec.name(), "xxzz-(3,3)");
        assert_eq!(spec.total_qubits(), 18);
    }

    #[test]
    fn qubit_roles_partition_register() {
        let code = XxzzCode::new(3, 3).build();
        let mut counts = [0usize; 4];
        for q in 0..code.total_qubits() {
            match code.qubit_role(q) {
                QubitRole::Data => counts[0] += 1,
                QubitRole::StabilizerZ => counts[1] += 1,
                QubitRole::StabilizerX => counts[2] += 1,
                QubitRole::Readout => counts[3] += 1,
            }
        }
        assert_eq!(counts, [9, 4, 4, 1]); // paper Fig. 1: 9 data, 4 mz, 4 mx, 1 ancilla
    }

    #[test]
    fn labels_match_roles() {
        let code = RepetitionCode::bit_flip(3).build();
        let labels = code.qubit_labels();
        assert!(labels[0].starts_with("data"));
        assert!(labels[3].starts_with("mz"));
        assert_eq!(labels.last().unwrap(), "ancilla");
    }
}
