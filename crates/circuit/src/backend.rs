//! The backend abstraction both simulators implement.
//!
//! A [`Backend`] owns quantum state for a fixed number of qubits and knows
//! how to apply the Clifford gate set, measure, and reset. Execution of a
//! [`Circuit`] against a backend lives here so the stabilizer and
//! state-vector crates stay symmetric.

use crate::circuit::Circuit;
use crate::gate::{Gate, Qubit};
use rand::RngCore;

/// A quantum state that supports the `radqec` gate set.
///
/// Measurement and reset take the RNG explicitly so shot-level determinism
/// is controlled entirely by the caller.
pub trait Backend {
    /// Number of qubits of state held.
    fn num_qubits(&self) -> u32;

    /// Re-initialise to |0…0⟩.
    fn reset_all(&mut self);

    /// Apply a unitary gate from the Clifford set.
    ///
    /// # Panics
    /// Implementations panic on `Measure`/`Reset`/`Barrier` — use
    /// [`Backend::measure`] / [`Backend::reset`] instead.
    fn apply_unitary(&mut self, gate: &Gate);

    /// Measure `qubit` in the Z basis, collapsing the state.
    fn measure(&mut self, qubit: Qubit, rng: &mut dyn RngCore) -> bool;

    /// Project `qubit` to |0⟩ (measure, then flip if 1).
    fn reset(&mut self, qubit: Qubit, rng: &mut dyn RngCore) {
        if self.measure(qubit, rng) {
            self.apply_unitary(&Gate::X(qubit));
        }
    }
}

/// Classical-bit store produced by running a circuit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShotRecord {
    bits: Vec<bool>,
}

impl ShotRecord {
    /// All-zero record of `n` classical bits.
    pub fn new(n: u32) -> Self {
        ShotRecord { bits: vec![false; n as usize] }
    }

    /// Value of classical bit `i`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        self.bits[i as usize]
    }

    /// Set classical bit `i`.
    #[inline]
    pub fn set(&mut self, i: u32, v: bool) {
        self.bits[i as usize] = v;
    }

    /// The raw bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Number of classical bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when the record holds no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Render as a bitstring, most-significant (highest index) bit first,
    /// matching the common register-display convention.
    pub fn to_bitstring(&self) -> String {
        self.bits.iter().rev().map(|&b| if b { '1' } else { '0' }).collect()
    }
}

/// Execute `circuit` noiselessly on `backend` (which must already be
/// initialised; a fresh |0…0⟩ is the caller's to manage). The noise
/// executors run their own loops over the same gate dispatch.
///
/// Returns the classical record of the shot.
pub fn execute<B: Backend + ?Sized>(
    circuit: &Circuit,
    backend: &mut B,
    rng: &mut dyn RngCore,
) -> ShotRecord {
    assert!(
        circuit.num_qubits() <= backend.num_qubits(),
        "backend too small: circuit wants {}, backend has {}",
        circuit.num_qubits(),
        backend.num_qubits()
    );
    let mut record = ShotRecord::new(circuit.num_clbits());
    for gate in circuit.ops() {
        match *gate {
            Gate::Barrier => {}
            Gate::Measure { qubit, cbit } => record.set(cbit, backend.measure(qubit, rng)),
            Gate::Reset(q) => backend.reset(q, rng),
            ref unitary => backend.apply_unitary(unitary),
        }
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shot_record_roundtrip() {
        let mut r = ShotRecord::new(4);
        r.set(0, true);
        r.set(3, true);
        assert!(r.get(0));
        assert!(!r.get(1));
        assert_eq!(r.to_bitstring(), "1001");
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn empty_record() {
        let r = ShotRecord::new(0);
        assert!(r.is_empty());
        assert_eq!(r.to_bitstring(), "");
    }
}
