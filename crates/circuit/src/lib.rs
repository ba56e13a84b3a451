//! # radqec-circuit
//!
//! Quantum-circuit intermediate representation shared by every layer of the
//! `radqec` stack: the surface-code generators build [`Circuit`]s, the
//! transpiler rewrites them onto hardware topologies, the noise executor
//! interleaves fault operations, and both simulator backends consume them
//! through the [`Backend`] trait.
//!
//! The gate set ([`Gate`]) is the Clifford group plus measurement and reset —
//! exactly the operations needed by the paper's repetition and XXZZ surface
//! codes, its depolarizing intrinsic-noise model (Pauli errors) and its
//! radiation fault model (probabilistic resets).
//!
//! ## Quick example
//!
//! ```
//! use radqec_circuit::Circuit;
//!
//! let mut bell = Circuit::new(2, 2);
//! bell.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
//! assert_eq!(bell.depth(), 3);
//! assert_eq!(bell.two_qubit_gate_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod batch;
mod circuit;
mod dag;
mod gate;

pub mod display;

pub use backend::{execute, Backend, ShotRecord};
pub use batch::ShotBatch;
pub use circuit::Circuit;
pub use dag::{CircuitDag, DagNode};
pub use gate::{Clbit, Gate, GateQubits, Qubit};
