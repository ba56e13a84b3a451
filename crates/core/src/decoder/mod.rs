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
//!   operation) and answers each syndrome from a memo, or from one exact
//!   solve per distinct missed syndrome.
//!
//! They are plain types with no shared trait: each caller names the one
//! it decodes with, and both expose `decode(&ShotRecord) -> bool`. Both
//! operate on the same [`DetectorGraph`] and read only a shot's
//! classical record, so they work identically on logical and transpiled
//! circuits. Memory streams are decoded by the sliding-window
//! [`SpaceTimeDecoder`] over multi-layer graphs of the same kind, with
//! the same exact matcher behind the same memo-or-solve pass (see its
//! module docs and "One solve context" below).
//!
//! # Memo, then one exact solve per distinct miss ([`BulkDecoder`])
//!
//! Decoding factors as `decode(shot) = raw_readout XOR flip(defects)`,
//! where the defect pattern is `2P` bits for `P` primary stabilizers (bit
//! `2i` = round-1 syndrome of stabilizer `i`, bit `2i+1` = round-1/round-2
//! difference) and `flip` is a **pure function of that pattern**: the
//! matching sees only defect nodes and static graph distances. A batch is
//! decoded in one pass:
//!
//! 1. **Trivial** — pattern 0 (no defects): `flip = false`. Whole 64-shot
//!    words are skipped at once when no defect plane has a bit set.
//! 2. **Memo** — every other shot probes an engine-lifetime memo from
//!    pattern to `flip`, shared across batches, rayon chunks and temporal
//!    samples of a campaign (storage: "One solve context" below).
//! 3. **One exact solve per distinct miss** — the misses are collected as
//!    `(pattern, shot)` pairs and sorted, and each distinct pattern that
//!    the memo still misses runs the exact matcher once, through the same
//!    [`matching_flip`](MwpmDecoder) core `MwpmDecoder` uses, with a
//!    scratch arena ([`radqec_matching::MatchingArena`]) so repeated
//!    solves stop allocating. Its flip is scattered to every shot of the
//!    group and stored in the memo. A per-shot decode runs the same pass
//!    over a batch of one.
//!
//! The arena solves small defect sets (up to 15) by subset DP and the
//! rest, or any tied optimum, by blossom; a unique optimum is the same
//! whichever solver finds it, so a solve returns blossom's answer either
//! way. The DP settles one or two defects (one or two candidate
//! matchings) in well under a microsecond, so they need no closed form.
//!
//! # Decode deadlines and graceful degradation
//!
//! Fleet endurance campaigns cannot let one pathological syndrome stall a
//! round stream, so the exact solves run under a per-shot budget
//! ([`TierConfig::deadline`], scaled to `deadline × shots` per batch).
//! While the budget lasts, every missed pattern gets the exact matcher and
//! its solve time is charged against the pool; once spent, remaining
//! missed patterns are answered by a deterministic greedy matching
//! (cheapest strictly-pair-beats-boundary partner, else boundary — exact
//! for ≤ 2 untied defects, approximate beyond) and their shots counted in
//! [`DecoderStats::degraded`]. Degraded answers are **never** written to
//! a memo, so exactness of every memoised value — and therefore of every
//! future non-degraded decode — is preserved; the only cost is a possibly suboptimal correction on the
//! degraded shots themselves (a logical-error-rate cost bounded by the
//! fraction `degraded / shots`, which is 0 at the default deadline in
//! every workload this repo runs). `deadline: None` restores the
//! unbounded exact decoder bit-identically.
//!
//! # Exactness argument
//!
//! The memo only ever *stores* values computed by the exact solve, and the
//! exact solve **is** `MwpmDecoder`'s matching routine (same defect
//! ordering, same weight function, same arena-backed matcher — shared
//! code, not a copy). Hence every answer is a value of the same function
//! and `BulkDecoder::decode == MwpmDecoder::decode` on every record; the
//! equivalence suite (`tests/decoder_tiers.rs`) checks this exhaustively
//! over all `2^{2P}` syndromes for the direct-table codes and by property
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
//! very same solve pass against a per-mask interned context (reweighted
//! graph + private syndrome memo — the mask-keyed context dimension),
//! and [`MwpmDecoder::masked`] is the per-shot reference it is validated
//! against (`tests/strike_aware_decoding.rs`): the exactness argument
//! above is weight-agnostic, so it covers every masked context unchanged.
//! A no-op mask (zero radius, decayed to background) hands off to the
//! unaware path bit-identically.
//!
//! # One solve context
//!
//! Both decoders solve through one context type, `memo::SolveContext`: a
//! detector graph plus one outcome memo (flips of `2P`-bit syndromes for
//! the bulk decoder; committed flip and survivors of `layers · P`-bit
//! keys for a window). Every key is one `u128`, so both decoders reject,
//! when they are built, a syndrome wider than 128 detector bits
//! ([`DecoderError::KeyTooWide`]; the reference [`MwpmDecoder`] has no
//! such limit). The key width alone picks the storage: a
//! lock-free direct table up to 16 bits (repetition `d ≤ 9`, XXZZ up to
//! (3,5)/(5,3) for the bulk decoder), else a 16-shard map capped at
//! [`TierConfig::cache_capacity`] that clears a full shard. Both answer
//! their keys through one memo-or-solve pass (`SolveContext::answer`):
//! probe, group the misses by key, re-probe each group, solve each
//! distinct miss once, store exact answers, scatter each answer to its
//! group. Only the solve differs: the bulk decoder feeds the matcher
//! stab-major under the deadline, a window node-major with its commit
//! rule. Per-mask and per-`(window layers, commit layers, mask)`
//! contexts are interned in one LRU table type (`contexts::ContextTable`,
//! capped at [`TierConfig::mask_capacity`]); the bulk decoder's unmasked
//! context is a plain field, so its unaware paths take no table lock.

mod bulk;
mod contexts;
mod graph;
mod mask;
mod memo;
mod mwpm;
mod spacetime;
mod stream;

pub use bulk::{
    BulkDecoder, DecoderError, DecoderStats, TierConfig, DEFAULT_DECODE_DEADLINE,
    DEFAULT_MASK_CAPACITY,
};
pub use graph::{DetectorGraph, DetectorNode, EdgeKind};
pub use mask::{DecoderMask, MASK_BASE_WEIGHT, MASK_REF_PROB};
pub use mwpm::MwpmDecoder;
pub use spacetime::{SpaceTimeDecoder, WindowConfig, WindowConfigError, WindowState};
pub use stream::{StreamDecodeReport, StreamDecoder, StreamDecoderConfig};
