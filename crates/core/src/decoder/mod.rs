//! Syndrome decoding (paper Sec. II-D).
//!
//! The primary decoder is MWPM (minimum-weight perfect matching, the
//! paper's choice), served by two implementations that are **bit-identical
//! on every record**:
//!
//! * [`MwpmDecoder`] — the reference path: build the defect list from a
//!   [`ShotRecord`](radqec_circuit::ShotRecord), run one blossom matching
//!   per shot.
//! * [`BulkDecoder`] — the production path (what the injection engine
//!   and the fleet hold): extracts defect **bit-planes** directly from a
//!   [`ShotBatch`](radqec_circuit::ShotBatch)'s words (64 shots per
//!   operation) and answers each syndrome from a cascade of solve tiers.
//!
//! They are plain types with no shared trait: each caller names the one
//! it decodes with, and both expose `decode(&ShotRecord) -> bool`. Both
//! operate on the same [`DetectorGraph`] and read only a shot's
//! classical record, so they work identically on logical and transpiled
//! circuits. Memory streams are decoded by the sliding-window
//! [`SpaceTimeDecoder`] over multi-layer graphs of the same kind, with
//! the same exact matcher behind one outcome memo per window context
//! (no tier cascade: see its module docs).
//!
//! # Tier selection ([`BulkDecoder`])
//!
//! Decoding factors as `decode(shot) = raw_readout XOR flip(defects)`,
//! where the defect pattern is `2P` bits for `P` primary stabilizers (bit
//! `2i` = round-1 syndrome of stabilizer `i`, bit `2i+1` = round-1/round-2
//! difference) and `flip` is a **pure function of that pattern**: the
//! matching sees only defect nodes and static graph distances. Each shot is
//! routed to the cheapest tier that can produce `flip`:
//!
//! 1. **Trivial** — pattern 0 (no defects): `flip = false`. Whole 64-shot
//!    words are skipped at once when no defect plane has a bit set.
//! 2. **LUT** — codes with `2P ≤ 16` detector bits (repetition `d ≤ 9`,
//!    XXZZ up to (3,5)/(5,3)): a direct-indexed, lazily filled, exhaustive
//!    table; decode is one array index. 64 KiB at worst.
//! 3. **Analytic** — 1–2-defect patterns on wider codes: closed-form from
//!    the [`DetectorGraph`] distance/parity tables. One defect has a unique
//!    matching (→ boundary); two defects have exactly two (pair up, or both
//!    to boundary) and the strictly cheaper one is chosen; an exact tie
//!    falls through to tier 5 so the blossom matcher's tie-breaking is
//!    preserved.
//! 4. **Cross-batch cache** — wider patterns: an engine-owned, sharded,
//!    approximately-LRU map from defect pattern to `flip`, shared across
//!    batches, rayon chunks and temporal samples of a campaign.
//! 5. **Exact-matcher fallback** — anything still unanswered runs the
//!    exact matcher via the same [`matching_flip`](MwpmDecoder) core
//!    `MwpmDecoder` uses, with a scratch arena
//!    ([`radqec_matching::MatchingArena`]) so repeated solves stop
//!    allocating; the result populates the LUT/cache. The arena solves
//!    small defect sets (up to a dozen) by subset DP and the rest, or any
//!    tied optimum, by blossom; a unique optimum is the same whichever
//!    solver finds it, so this tier returns blossom's answer either way.
//!
//! # Decode deadlines and graceful degradation
//!
//! Fleet endurance campaigns cannot let one pathological syndrome stall a
//! round stream, so the exact-matcher fallback runs under a per-shot budget
//! ([`TierConfig::deadline`], scaled to `deadline × shots` per batch).
//! While the budget lasts, every heavy shot gets the exact matcher and its
//! solve time is charged against the pool; once spent, remaining heavy
//! shots are answered by a deterministic greedy matching (cheapest
//! strictly-pair-beats-boundary partner, else boundary — exact for ≤ 2
//! defects, approximate beyond) and counted in
//! [`DecoderStats::degraded`]. Degraded answers are **never** written to
//! the LUT, the cross-batch cache, or a batch memo, so exactness of every
//! cached value — and therefore of every future non-degraded decode — is
//! preserved; the only cost is a possibly suboptimal correction on the
//! degraded shots themselves (a logical-error-rate cost bounded by the
//! fraction `degraded / shots`, which is 0 at the default deadline in
//! every workload this repo runs). `deadline: None` restores the
//! unbounded exact decoder bit-identically.
//!
//! # Exactness argument
//!
//! Tiers 2 and 4 only ever *store* values computed by tiers 3/5. Tier 5
//! **is** `MwpmDecoder`'s matching routine (same defect ordering, same
//! weight function, same arena-backed matcher — shared code, not a copy).
//! Tier 3 enumerates the full matching polytope for ≤ 2 defects and defers
//! ties. Hence every tier computes the same function and
//! `BulkDecoder::decode == MwpmDecoder::decode` on every record; the
//! equivalence suite (`tests/decoder_tiers.rs`) checks this exhaustively
//! over all `2^{2P}` syndromes for LUT-eligible codes and by property
//! testing elsewhere.
//!
//! # Strike-aware decoding
//!
//! A detected radiation strike changes the error prior: qubits inside the
//! struck region fail with probability far above the intrinsic scale, so
//! uniform edge weights mis-rank correction paths. [`DecoderMask`] —
//! usually projected from a `radqec_detect::StrikeMask` (the clusterer's
//! root + ring radius + decay estimate) — assigns log-likelihood integer
//! weights to the detector graph's edges ([`DetectorGraph::reweighted`]),
//! making struck-region paths cheap (erasure-style, after the Google
//! cosmic-ray line of work). [`BulkDecoder::decode_batch_masked`] runs the
//! very same tier cascade against a per-mask interned context (reweighted
//! graph + private syndrome LUT/cache — the mask-keyed cache dimension),
//! and [`MwpmDecoder::masked`] is the per-shot reference it is validated
//! against (`tests/strike_aware_decoding.rs`): the exactness argument
//! above is weight-agnostic, so it covers every masked context unchanged.
//! A no-op mask (zero radius, decayed to background) hands off to the
//! unaware path bit-identically.
//!
//! # One context table
//!
//! The bulk decoder's per-mask cores and the space-time decoder's
//! per-`(window layers, commit layers, mask)` contexts are interned in
//! one LRU table type (`contexts::ContextTable`, capped at
//! [`TierConfig::mask_capacity`]).
//! The bulk decoder's unmasked core is a plain field, so its unaware
//! per-shot and batch paths take no lock.

mod bulk;
mod cache;
mod contexts;
mod graph;
mod mask;
mod mwpm;
mod spacetime;
mod stream;

pub use bulk::{
    BulkDecoder, DecoderStats, TierConfig, TierError, DEFAULT_DECODE_DEADLINE,
    DEFAULT_MASK_CAPACITY,
};
pub use graph::{DetectorGraph, DetectorNode, EdgeKind};
pub use mask::{DecoderMask, MASK_BASE_WEIGHT, MASK_REF_PROB};
pub use mwpm::MwpmDecoder;
pub use spacetime::{
    SpaceTimeDecoder, SpaceTimeError, WindowConfig, WindowConfigError, WindowState,
};
pub use stream::{StreamDecodeReport, StreamDecoder, StreamDecoderConfig};
