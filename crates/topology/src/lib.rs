//! # radqec-topology
//!
//! Quantum-hardware architecture graphs and the graph algorithms the rest of
//! the stack builds on:
//!
//! * [`Topology`] — undirected unit-weight coupling graph with BFS
//!   distances, shortest paths and induced subgraphs;
//! * [`generators`] — linear / ring / complete / 2-D mesh / heavy-hex
//!   parametric families (the paper's lattices);
//! * [`devices`] — named IBM device graphs used in the paper's
//!   architecture analysis (Almaden, Johannesburg, Cairo, Cambridge,
//!   Brooklyn);
//! * [`subgraph`] — connected-subgraph sampling for the
//!   multi-qubit erasure experiments (paper Fig. 6/7).
//!
//! ```
//! use radqec_topology::generators::mesh;
//!
//! let lattice = mesh(5, 6); // the paper's reference architecture
//! assert_eq!(lattice.num_qubits(), 30);
//! assert_eq!(lattice.distances_from(0)[29], 9); // Manhattan distance
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;

pub mod devices;
pub mod generators;
pub mod subgraph;

pub use graph::{Topology, TopologyError};
