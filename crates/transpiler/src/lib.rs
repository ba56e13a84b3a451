//! # radqec-transpiler
//!
//! Maps logical circuits onto hardware topologies, the paper's Sec. II-A
//! "transpilation" step: an initial-layout pass places logical qubits on
//! physical sites, a routing pass inserts SWAPs so every two-qubit gate acts
//! on a device edge, and SWAPs decompose to 3 CX so routed circuits pay the
//! full gate-count (noise/fault surface) cost.
//!
//! The architecture analysis of the paper (Fig. 8 / Observation VIII) rests
//! on exactly this cost: poorly connected devices force SWAP chains that
//! enlarge the circuit and give radiation faults more gates to corrupt.
//!
//! ```
//! use radqec_circuit::Circuit;
//! use radqec_topology::generators::linear;
//! use radqec_transpiler::{transpile, LayoutStrategy, TranspileOptions};
//!
//! let mut c = Circuit::new(3, 0);
//! c.cx(0, 2); // not adjacent on a line under the trivial layout
//! let opts = TranspileOptions { layout: LayoutStrategy::Trivial, ..Default::default() };
//! let t = transpile(&c, &linear(3), &opts);
//! assert_eq!(t.swap_count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod layout;
mod router;
mod transpile;

pub use layout::{choose_layout, Layout, LayoutError, LayoutStrategy};
pub use router::{route, RoutedCircuit, RouterKind};
pub use transpile::{transpile, transpile_with_layout, TranspileOptions, Transpiled};
