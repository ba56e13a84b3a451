//! # radqec-matching
//!
//! Exact matching algorithms for surface-code decoding:
//!
//! * [`max_weight_matching`] — Galil's blossom algorithm (port of Van
//!   Rantwijk's reference implementation, the engine behind NetworkX's
//!   `max_weight_matching` used by the paper via qtcodes), with integer
//!   weights and exact integral duals;
//! * [`min_weight_perfect_matching`] — MWPM by weight reflection;
//! * [`match_defects`] — pairs surface-code defects with each other or the
//!   lattice boundary, by subset DP for small defect sets and by the
//!   virtual-boundary blossom reduction otherwise (see below);
//! * [`min_weight_perfect_matching_dp`] — an independent `O(2ⁿ·n)` oracle
//!   used to validate the blossom solver in property tests;
//! * [`MatchingArena`] / [`BlossomScratch`] — allocation-reusing variants of
//!   the entry points above for decoding hot loops (bit-identical results).
//!
//! ## Small defect sets
//!
//! Decoders call [`MatchingArena::match_defects`] mostly on a handful of
//! defects, where blossom's `2k`-vertex reduction costs far more than the
//! problem needs. Up to 15 defects the arena first runs an exact
//! subset DP: the minimum weight `f(S)` of a defect set `S` is the best of
//! sending its lowest defect `i` to the boundary, `b(i) + f(S∖i)`, or
//! pairing it with some `j ∈ S`, `w(i, j) + f(S∖{i, j})`. The DP also
//! checks that its optimum is unique. A unique optimum is the answer of
//! every exact solver, blossom included, so returning it changes no
//! result. On a tie, or if a DP sum would overflow `i64`, the call runs the
//! unchanged blossom reduction, so tie-breaking, and hence every decoder
//! built on this crate, stays bit-identical to a blossom-only matcher.
//!
//! ```
//! use radqec_matching::min_weight_perfect_matching;
//!
//! let edges = [(0, 1, 5), (1, 2, 1), (2, 3, 5), (0, 3, 1)];
//! let mate = min_weight_perfect_matching(4, &edges).unwrap();
//! assert_eq!(mate[0], 3); // picks the two weight-1 edges
//! assert_eq!(mate[1], 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blossom;
mod dp;
mod mwpm;

pub use blossom::{
    is_valid_matching, matching_size, matching_weight, max_weight_matching, max_weight_matching_in,
    try_max_weight_matching, try_max_weight_matching_in, BlossomScratch, MatchingInputError,
    WeightedEdge,
};
pub use dp::min_weight_perfect_matching_dp;
pub use mwpm::{match_defects, min_weight_perfect_matching, DefectMatch, MatchingArena};
