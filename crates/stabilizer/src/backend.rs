//! [`Backend`] implementation over the CHP [`Tableau`].

use crate::tableau::Tableau;
use radqec_circuit::{Backend, Gate, Qubit};
use rand::RngCore;

/// Stabilizer-simulator backend: exact for Clifford circuits. Over the
/// qubit-major [`Tableau`], a gate costs `O(⌈2n/64⌉)` word operations and
/// a measurement or reset `O(n · ⌈2n/64⌉)`.
///
/// This is the workhorse backend for every experiment in the paper; reuse a
/// single instance across shots via [`Backend::reset_all`] to avoid
/// reallocating the tableau.
#[derive(Debug, Clone)]
pub struct StabilizerBackend {
    tableau: Tableau,
}

impl StabilizerBackend {
    /// Fresh |0…0⟩ backend of `n` qubits.
    pub fn new(n: u32) -> Self {
        StabilizerBackend { tableau: Tableau::new(n as usize) }
    }

    /// Access the underlying tableau (for inspection in tests/analysis).
    pub fn tableau(&self) -> &Tableau {
        &self.tableau
    }

    /// Non-collapsing deterministic-outcome probe (None = outcome random).
    pub fn peek_z(&mut self, q: Qubit) -> Option<bool> {
        self.tableau.peek_z(q as usize)
    }
}

impl Backend for StabilizerBackend {
    fn num_qubits(&self) -> u32 {
        self.tableau.num_qubits() as u32
    }

    fn reset_all(&mut self) {
        self.tableau.clear();
    }

    fn apply_unitary(&mut self, gate: &Gate) {
        let t = &mut self.tableau;
        match *gate {
            Gate::I(_) => {}
            Gate::X(q) => t.x(q as usize),
            Gate::Y(q) => t.y(q as usize),
            Gate::Z(q) => t.z(q as usize),
            Gate::H(q) => t.h(q as usize),
            Gate::S(q) => t.s(q as usize),
            Gate::Sdg(q) => t.sdg(q as usize),
            Gate::Cx { control, target } => t.cx(control as usize, target as usize),
            Gate::Cz { a, b } => t.cz(a as usize, b as usize),
            Gate::Swap { a, b } => t.swap(a as usize, b as usize),
            Gate::Measure { .. } | Gate::Reset(_) | Gate::Barrier => {
                panic!("apply_unitary called with non-unitary gate {gate:?}")
            }
        }
    }

    fn measure(&mut self, qubit: Qubit, rng: &mut dyn RngCore) -> bool {
        self.tableau.measure(qubit as usize, rng)
    }

    fn reset(&mut self, qubit: Qubit, rng: &mut dyn RngCore) {
        self.tableau.reset(qubit as usize, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radqec_circuit::{execute, Circuit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn executes_bell_circuit() {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let mut b = StabilizerBackend::new(2);
            let rec = execute(&c, &mut b, &mut rng);
            assert_eq!(rec.get(0), rec.get(1));
        }
    }

    #[test]
    fn reset_all_reuses_backend() {
        let mut b = StabilizerBackend::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Circuit::new(2, 1);
        c.x(0).measure(0, 0);
        let r1 = execute(&c, &mut b, &mut rng);
        assert!(r1.get(0));
        b.reset_all();
        let mut c2 = Circuit::new(2, 1);
        c2.measure(0, 0);
        let r2 = execute(&c2, &mut b, &mut rng);
        assert!(!r2.get(0));
    }

    #[test]
    #[should_panic(expected = "non-unitary")]
    fn apply_unitary_rejects_measure() {
        let mut b = StabilizerBackend::new(1);
        b.apply_unitary(&Gate::Measure { qubit: 0, cbit: 0 });
    }

    #[test]
    fn circuit_reset_gate_works() {
        let mut c = Circuit::new(1, 1);
        c.x(0).reset(0).measure(0, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = StabilizerBackend::new(1);
        let rec = execute(&c, &mut b, &mut rng);
        assert!(!rec.get(0));
    }
}
