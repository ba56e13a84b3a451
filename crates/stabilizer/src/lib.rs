//! # radqec-stabilizer
//!
//! Bit-packed Aaronson–Gottesman (CHP) stabilizer simulator, plus the
//! Pauli-frame batch sampler that makes Monte-Carlo campaigns fast.
//!
//! Every circuit in the reproduced paper — repetition and XXZZ surface codes
//! under depolarizing Pauli noise and radiation-induced reset faults — is a
//! Clifford circuit, so this backend simulates them *exactly*. The tableau
//! is stored qubit-major (one X and one Z column of `⌈2n/64⌉` row words
//! per qubit), so a gate costs `O(⌈2n/64⌉)` word operations and a
//! measurement `O(n · ⌈2n/64⌉)`. This is the substitution for the Qiskit
//! Aer simulator used by the paper.
//!
//! The crate exposes:
//! * [`Tableau`] — the raw CHP tableau with per-gate methods;
//! * [`StabilizerBackend`] — the [`radqec_circuit::Backend`] adapter used by
//!   the execution and fault-injection layers;
//! * [`PauliFrameBatch`] and [`ReferenceTrace`] — the bit-packed Pauli-frame
//!   batch sampler (64 shots per `u64` word) and the one-time noiseless
//!   reference pass it replays against;
//! * [`PauliString`] — sign-tracked Pauli operators used by the code layer
//!   to express and verify stabilizer generators.
//!
//! ## The two sampler backends, and when each is exact
//!
//! The fault-injection engine (`radqec_core::InjectionEngine`) can sample
//! shots two ways:
//!
//! 1. **Tableau** (`SamplerKind::Tableau`): every shot replays the whole
//!    circuit on a fresh CHP tableau. This is the ground-truth model — exact
//!    for *every* noise and fault configuration, including mid-circuit
//!    radiation resets of entangled qubits — but costs
//!    `O(gates · ⌈2n/64⌉ + measurements · n · ⌈2n/64⌉)` word operations
//!    per shot. The engines run it on the qubits a routed circuit uses,
//!    not the whole device.
//! 2. **Frame batch** (`SamplerKind::FrameBatch`, the default): the circuit
//!    is simulated noiselessly **once** ([`ReferenceTrace`]), then each shot
//!    only tracks the Pauli *frame* relating it to that reference, 64 shots
//!    per machine word ([`PauliFrameBatch`]). Gates cost `O(words)` for the
//!    whole batch; measurements are single-row XORs.
//!
//! The frame sampler is exact (in distribution) for Clifford circuits under
//! Pauli noise, classical measurement flips, circuit resets, and
//! fault-injected resets of qubits whose reference state is a basis
//! eigenstate at the reset point — which covers the repetition codes'
//! entire circuits (Z-deterministic throughout) under every fault, and all
//! intrinsic-noise-only runs of every code. A fault reset that hits a qubit
//! whose reference value is non-deterministic in the reset basis (an
//! entangled XXZZ data qubit mid-round) is outside the Pauli-mixture
//! closure; it is modelled as erasure to the maximally mixed state (a
//! uniformly random frame on that qubit — the same substitution Stim makes
//! for heralded erasure), which biases logical-error estimates *upward*
//! under repeated entangled strikes. `tests/sampler_equivalence.rs` pins
//! exact agreement where exactness holds and bounds the bias envelope
//! elsewhere; keep `SamplerKind::Tableau` as the exact oracle.
//!
//! The same trade-off carries over verbatim to **multi-round syndrome
//! streaming** (`radqec_core::streaming::StreamEngine`): a memory
//! experiment of `R` stabilisation rounds is just a longer circuit, so one
//! [`ReferenceTrace`] spans all rounds and the batch executor replays the
//! evolving radiation transient as a piecewise-constant fault timeline
//! against it. For online detection the erasure substitution is
//! *conservative in the useful direction* — it can only raise
//! detection-event rates, never hide a strike —
//! and `tests/round_stream_equivalence.rs` pins the streamed per-round
//! event rates to the tableau oracle's.
//!
//! ```
//! use radqec_circuit::{execute, Circuit};
//! use radqec_stabilizer::StabilizerBackend;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut ghz = Circuit::new(3, 3);
//! ghz.h(0).cx(0, 1).cx(1, 2);
//! for q in 0..3 {
//!     ghz.measure(q, q);
//! }
//! let mut backend = StabilizerBackend::new(3);
//! let mut rng = StdRng::seed_from_u64(42);
//! let shot = execute(&ghz, &mut backend, &mut rng);
//! assert_eq!(shot.get(0), shot.get(1));
//! assert_eq!(shot.get(1), shot.get(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod frame;
mod pauli;
mod reference;
mod tableau;

pub use backend::StabilizerBackend;
pub use frame::PauliFrameBatch;
pub use pauli::PauliString;
pub use reference::{QubitKnowledge, RefOp, ReferenceTrace};
pub use tableau::Tableau;
