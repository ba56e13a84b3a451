//! Tiered bulk MWPM decoder: bit-plane defect extraction + LUT / analytic
//! / blossom solve tiers + the engine-level cross-batch syndrome cache,
//! with a **mask-keyed cache dimension** for strike-aware decoding.
//!
//! See the [`crate::decoder`] module docs for the tier-selection rules and
//! the exactness argument; the short version is that every tier computes
//! the same pure function `flip(defect_pattern)` as
//! [`MwpmDecoder::decode_shot`], so [`BulkDecoder`] is bit-identical to
//! [`MwpmDecoder`] on every record (enforced exhaustively for LUT-eligible
//! codes and property-tested otherwise in `tests/decoder_tiers.rs`).
//!
//! Strike-aware decoding adds a second axis: a [`DecoderMask`] reweights
//! the detector graph inside a struck region, which changes `flip` — so
//! each distinct mask (keyed by its quantised integer edge weights) interns
//! its own [`SolveCore`] in a [`ContextTable`], the table type the
//! space-time decoder interns its window contexts in too. Warm-path
//! throughput survives because a sweep reuses a handful of mask keys, each
//! with its own fully warmed cache, and a no-op mask takes the lock-free
//! unmasked path outright (`tests/strike_aware_decoding.rs` pins both the
//! tier bit-identity per mask and the no-op handoff).

use crate::codes::CodeCircuit;
use crate::decoder::cache::{SyndromeCache, DEFAULT_CACHE_CAPACITY, LUT_MAX_BITS};
use crate::decoder::contexts::ContextTable;
use crate::decoder::graph::DetectorGraph;
use crate::decoder::mask::DecoderMask;
use crate::decoder::mwpm::{extract_defects, matching_flip, weight_of};
use crate::decoder::Decoder;
use radqec_circuit::{ShotBatch, ShotRecord};
use radqec_matching::MatchingArena;
use radqec_telemetry::{names, Counter, Histogram, MetricsRegistry, SpanTimer};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default per-shot decode deadline (see [`TierConfig::deadline`]): three
/// orders of magnitude above a worst-case blossom solve on the code sizes
/// this repo runs, so the default configuration never degrades a shot —
/// the deadline exists to bound tail latency under pathological inputs,
/// not to trade accuracy in the steady state.
pub const DEFAULT_DECODE_DEADLINE: Duration = Duration::from_millis(20);

/// Default ceiling on interned strike-mask contexts (each owns a
/// reweighted graph + private syndrome cache, so the map must not grow
/// with campaign length — a long multi-strike run revisits a handful of
/// quantised weight keys).
pub const DEFAULT_MASK_CAPACITY: usize = 64;

/// Which solve tiers a [`BulkDecoder`] may use (the blossom fallback and
/// the cross-batch cache are always available). Disabling tiers never
/// changes results — only where the work happens — and exists so the
/// equivalence suite and the `decoder_throughput` bench can time each tier
/// in isolation. The `deadline` knob is the one exception: a spent budget
/// swaps the exact matcher for the greedy fallback (see
/// [`DecoderStats::degraded`]), which may differ on ≥ 4-defect syndromes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Exhaustive direct-indexed lookup table for codes with at most
    /// `LUT_MAX_BITS` detector bits (lazily filled; decode = one index).
    pub lut: bool,
    /// Closed-form 1–2-defect solves straight from [`DetectorGraph`]
    /// distances (exact-tie cases still fall through to the matcher).
    pub analytic: bool,
    /// Entry budget of the sharded cross-batch cache used when the code is
    /// too wide for the LUT.
    pub cache_capacity: usize,
    /// Per-shot budget for the blossom fallback, or `None` for unbounded.
    /// Batch decoding scales it to `deadline × shots` and charges every
    /// blossom run against the pool; once spent, remaining heavy shots are
    /// answered by a deterministic greedy matching instead (counted in
    /// [`DecoderStats::degraded`], never cached), so a stuck matcher can
    /// not stall a round stream. `Duration::ZERO` degrades every heavy
    /// shot — the chaos-test configuration.
    pub deadline: Option<Duration>,
    /// Hard ceiling on interned mask contexts; the least-recently-used
    /// context is dropped to admit a new key (counted in
    /// [`DecoderStats::mask_evictions`]). Re-interning an evicted key
    /// rebuilds the same pure function, so eviction never changes results.
    pub mask_capacity: usize,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            lut: true,
            analytic: true,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            deadline: Some(DEFAULT_DECODE_DEADLINE),
            mask_capacity: DEFAULT_MASK_CAPACITY,
        }
    }
}

/// A [`TierConfig`] a decoder cannot be built from (see
/// [`BulkDecoder::try_with_tiers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierError {
    /// `cache_capacity` is zero — the sharded cache needs room for at
    /// least one entry per shard to make progress.
    ZeroCacheCapacity,
    /// `mask_capacity` is zero — every masked decode would rebuild its
    /// context from scratch, silently disabling the mask-keyed cache.
    ZeroMaskCapacity,
}

impl fmt::Display for TierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TierError::ZeroCacheCapacity => {
                write!(f, "tier config: cache_capacity must be at least 1")
            }
            TierError::ZeroMaskCapacity => {
                write!(f, "tier config: mask_capacity must be at least 1")
            }
        }
    }
}

impl std::error::Error for TierError {}

/// Counters describing where decode work went (snapshot of a
/// [`BulkDecoder`]'s atomics; see [`Decoder::decode_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecoderStats {
    /// Shots decoded in total.
    pub shots: u64,
    /// Shots with an all-zero syndrome (raw readout passes through).
    pub trivial: u64,
    /// Shots answered by the lookup table / cross-batch cache.
    pub cache_hits: u64,
    /// Shots answered by the closed-form 1–2-defect path.
    pub analytic: u64,
    /// Blossom matchings actually run (cache misses + analytic ties).
    pub matchings: u64,
    /// Shots answered by the greedy fallback because the decode budget was
    /// already spent (see [`TierConfig::deadline`]). Zero at the default
    /// deadline; degraded answers are never written to any cache.
    pub degraded: u64,
    /// Entries evicted from the sharded cache.
    pub cache_evictions: u64,
    /// Distinct syndromes currently held by the (unmasked) LUT/cache.
    pub cache_entries: usize,
    /// Distinct strike-mask reweightings interned (each owns a private
    /// graph + syndrome cache — the mask-keyed cache dimension).
    pub mask_contexts: usize,
    /// Masked decode calls answered by an already-interned mask context
    /// (the mask cache's hit counter; misses = `mask_contexts`).
    pub mask_hits: u64,
    /// Mask contexts dropped by the LRU ceiling
    /// ([`TierConfig::mask_capacity`]).
    pub mask_evictions: u64,
}

/// Registry-backed tier counters (the `decode.*` metric family): handles
/// are resolved once at decoder construction, so bumping them costs one
/// relaxed `fetch_add` — and the per-shot loop pays nothing, because
/// [`LocalStats`] batches a whole call before touching them.
pub(crate) struct StatCells {
    shots: Arc<Counter>,
    trivial: Arc<Counter>,
    cache_hits: Arc<Counter>,
    analytic: Arc<Counter>,
    matchings: Arc<Counter>,
    degraded: Arc<Counter>,
    pub(crate) mask_hits: Arc<Counter>,
    /// Wall time per decode call (`stage.decode_ns`).
    decode_ns: Arc<Histogram>,
}

impl StatCells {
    pub(crate) fn new(metrics: &MetricsRegistry) -> Self {
        StatCells {
            shots: metrics.counter(names::DECODE_SHOTS),
            trivial: metrics.counter(names::DECODE_TRIVIAL),
            cache_hits: metrics.counter(names::DECODE_CACHE_HITS),
            analytic: metrics.counter(names::DECODE_ANALYTIC),
            matchings: metrics.counter(names::DECODE_MATCHINGS),
            degraded: metrics.counter(names::DECODE_DEGRADED),
            mask_hits: metrics.counter(names::DECODE_MASK_HITS),
            decode_ns: metrics.histogram(names::STAGE_DECODE_NS),
        }
    }

    /// Flush a call's batched counters into the shared registry atomics.
    pub(crate) fn flush(&self, local: LocalStats) {
        self.shots.add(local.shots);
        self.trivial.add(local.trivial);
        self.cache_hits.add(local.cache_hits);
        self.analytic.add(local.analytic);
        self.matchings.add(local.matchings);
        self.degraded.add(local.degraded);
    }
}

/// Per-`decode_batch`-call counters, flushed to the shared atomics once per
/// batch so the per-shot hot loop stays free of atomic traffic.
#[derive(Default, Clone, Copy)]
pub(crate) struct LocalStats {
    pub(crate) shots: u64,
    pub(crate) trivial: u64,
    pub(crate) cache_hits: u64,
    pub(crate) analytic: u64,
    pub(crate) matchings: u64,
    pub(crate) degraded: u64,
}

/// Per-call scratch: matcher arena + defect-list buffer + the call's
/// decode-time budget. Cheap to create (no allocation until the blossom
/// tier actually runs) and reused across every syndrome of a batch.
#[derive(Default)]
pub(crate) struct Ctx {
    pub(crate) arena: MatchingArena,
    pub(crate) defects: Vec<usize>,
    /// Total blossom time this call may spend (`deadline × shots`), or
    /// `None` for unbounded.
    budget: Option<Duration>,
    /// Blossom time spent so far; once `spent >= budget` the heavy tier
    /// answers greedily.
    spent: Duration,
}

/// How a `u128` defect key's bit index maps onto detector-graph nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlaneOrder {
    /// The 2-round bulk layout: plane `2i + r` → node `(stab i, round r)`,
    /// so ascending bit index reproduces `MwpmDecoder::defects` order.
    StabMajor,
    /// Plane index *is* the node id (`layer · P + stab`) — the layout the
    /// multi-layer window graphs of the space-time decoder use, where
    /// ascending bit index is ascending `(round, stab)`.
    NodeIndex,
}

/// The solve state of one decoding context: a detector graph (uniform or
/// mask-reweighted), its engine-lifetime syndrome cache and the tier
/// switches. The unmasked decoder owns one; every distinct
/// [`DecoderMask`] weight key interns another — same tiers, same code
/// paths, different `flip` function. The space-time decoder
/// (`crate::decoder::spacetime`) interns one per `(window layers, mask)`
/// pair through [`SolveCore::window`], reusing the LUT / analytic /
/// cache / budgeted-blossom cascade unchanged.
pub(crate) struct SolveCore {
    graph: DetectorGraph,
    /// Detector-bit count (`2P` for the bulk layout, `L·P` for window
    /// graphs); see [`PlaneOrder`] for the bit → node mapping.
    planes: usize,
    order: PlaneOrder,
    tiers: TierConfig,
    /// Context-lifetime syndrome cache, shared by every batch / rayon
    /// chunk / temporal sample through `&self` (interior mutability
    /// inside).
    cache: SyndromeCache,
}

impl SolveCore {
    fn new(graph: DetectorGraph, tiers: TierConfig) -> Self {
        Self::build(graph, tiers, PlaneOrder::StabMajor)
    }

    /// A solve core over a multi-layer window graph: plane bits index
    /// nodes directly (`layer · P + stab`). Same tier cascade, caches and
    /// decode budget as the bulk layout.
    pub(crate) fn window(graph: DetectorGraph, tiers: TierConfig) -> Self {
        Self::build(graph, tiers, PlaneOrder::NodeIndex)
    }

    fn build(graph: DetectorGraph, tiers: TierConfig, order: PlaneOrder) -> Self {
        let planes = graph.layers() * graph.primary_count();
        let cache = if tiers.lut && planes <= LUT_MAX_BITS {
            SyndromeCache::direct(planes)
        } else {
            SyndromeCache::sharded(tiers.cache_capacity)
        };
        SolveCore { graph, planes, order, tiers, cache }
    }

    /// The graph this core solves on.
    pub(crate) fn graph(&self) -> &DetectorGraph {
        &self.graph
    }

    /// Detector node of key bit `plane` under this core's layout.
    #[inline]
    fn node_of_plane(&self, plane: usize) -> usize {
        match self.order {
            PlaneOrder::StabMajor => (plane % 2) * self.graph.primary_count() + plane / 2,
            PlaneOrder::NodeIndex => plane,
        }
    }

    /// Scratch context for a decode call over `shots` shots, carrying the
    /// call's blossom-time budget (`deadline × shots`, saturating).
    pub(crate) fn budget_ctx(&self, shots: usize) -> Ctx {
        Ctx {
            budget: self
                .tiers
                .deadline
                .map(|d| d.saturating_mul(shots.min(u32::MAX as usize) as u32)),
            ..Ctx::default()
        }
    }

    /// Flip parity of a non-zero defect pattern via the tier cascade —
    /// LUT/cache lookup, analytic, arena blossom matcher — populating the
    /// cache on the way out (degraded answers excepted: they are not
    /// values of the exact `flip` function, so they never enter a cache).
    #[inline]
    pub(crate) fn flip_of_key(&self, key: u128, ctx: &mut Ctx, local: &mut LocalStats) -> bool {
        if let Some(flip) = self.cheap_flip(key, local) {
            return flip;
        }
        let (flip, exact) = self.heavy_flip(key, ctx, local);
        if exact {
            self.cache.insert(key, flip);
        }
        flip
    }

    /// The cheap tiers — LUT/cache lookup and the analytic closed form —
    /// or `None` when the pattern needs the matcher. In sharded mode the
    /// analytic tier runs *before* the cache probe: 1–2-defect syndromes
    /// (the dominant non-trivial class at realistic noise) are never
    /// inserted, so probing first would take the shard mutex for a
    /// guaranteed miss on every such shot. On a LUT miss the closed form
    /// is exact, so the table keeps it.
    #[inline]
    fn cheap_flip(&self, key: u128, local: &mut LocalStats) -> Option<bool> {
        debug_assert_ne!(key, 0);
        if !self.cache.is_direct() && self.tiers.analytic && key.count_ones() <= 2 {
            if let Some(flip) = self.analytic_flip(key) {
                local.analytic += 1;
                return Some(flip);
            }
        }
        if let Some(flip) = self.cache.get(key) {
            local.cache_hits += 1;
            return Some(flip);
        }
        if self.cache.is_direct() && self.tiers.analytic && key.count_ones() <= 2 {
            if let Some(flip) = self.analytic_flip(key) {
                local.analytic += 1;
                self.cache.insert(key, flip);
                return Some(flip);
            }
        }
        None
    }

    /// The heavy tier under the decode budget: run the exact blossom
    /// matcher while `ctx` still has time, the deterministic greedy
    /// fallback once the budget is spent. Returns `(flip, exact)`; only
    /// exact answers may be cached.
    fn heavy_flip(&self, key: u128, ctx: &mut Ctx, local: &mut LocalStats) -> (bool, bool) {
        ctx.defects.clear();
        let mut k = key;
        while k != 0 {
            let plane = k.trailing_zeros() as usize;
            k &= k - 1;
            ctx.defects.push(self.node_of_plane(plane));
        }
        self.heavy_flip_defects(ctx, local)
    }

    /// Budget gate over an explicit defect list already in `ctx.defects`
    /// (shared with the > 128-detector-bit wide path, which never forms a
    /// `u128` key). Blossom runs are timed and charged against the
    /// budget, so one pathological solve cannot be followed by another.
    fn heavy_flip_defects(&self, ctx: &mut Ctx, local: &mut LocalStats) -> (bool, bool) {
        match ctx.budget {
            None => {
                local.matchings += 1;
                (matching_flip(&self.graph, &ctx.defects, &mut ctx.arena), true)
            }
            Some(budget) if ctx.spent >= budget => {
                local.degraded += 1;
                (self.greedy_flip(&ctx.defects), false)
            }
            Some(_) => {
                let start = Instant::now();
                local.matchings += 1;
                let flip = matching_flip(&self.graph, &ctx.defects, &mut ctx.arena);
                ctx.spent += start.elapsed();
                (flip, true)
            }
        }
    }

    /// Deterministic greedy matching — the graceful-degradation answer
    /// when the decode budget is spent. Walks defects in plane order; each
    /// unmatched defect takes its cheapest strictly-pair-beats-boundary
    /// partner, else the boundary. O(k²), exact for ≤ 2 defects (same
    /// two-matching enumeration as the analytic tier, boundary-preferring
    /// on ties), approximate beyond — which is why degraded answers never
    /// populate a cache.
    fn greedy_flip(&self, defects: &[usize]) -> bool {
        let g = &self.graph;
        let boundary = g.boundary();
        let mut used = vec![false; defects.len()];
        let mut flip = false;
        for i in 0..defects.len() {
            if used[i] {
                continue;
            }
            let a = defects[i];
            let wa = weight_of(g.distance(a, boundary));
            let mut best: Option<(i64, usize)> = None;
            for j in i + 1..defects.len() {
                if used[j] {
                    continue;
                }
                let b = defects[j];
                let cost = weight_of(g.pair_distance(a, b));
                if cost < wa + weight_of(g.distance(b, boundary))
                    && best.is_none_or(|(c, _)| cost < c)
                {
                    best = Some((cost, j));
                }
            }
            match best {
                Some((_, j)) => {
                    used[j] = true;
                    flip ^= g.pair_crossing_parity(a, defects[j]);
                }
                None => flip ^= g.crossing_parity(a, boundary),
            }
        }
        flip
    }

    /// Closed-form flip parity for 1–2-defect patterns, straight from the
    /// detector graph's distance/parity tables.
    ///
    /// Exactness: one defect admits a single perfect matching (defect →
    /// boundary). Two defects admit exactly two — pair up (weight `w_ab`)
    /// or both-to-boundary (weight `w_a + w_b`) — and the matcher picks the
    /// strictly cheaper one; on an exact tie this returns `None` and the
    /// caller defers to the blossom matcher so its tie-breaking (and hence
    /// bit-identity with [`MwpmDecoder`]) is preserved. The argument is
    /// weight-agnostic, so it holds on mask-reweighted graphs unchanged.
    ///
    /// [`MwpmDecoder`]: crate::decoder::MwpmDecoder
    fn analytic_flip(&self, key: u128) -> Option<bool> {
        let g = &self.graph;
        let boundary = g.boundary();
        let a = self.node_of_plane(key.trailing_zeros() as usize);
        if key.count_ones() == 1 {
            return Some(g.crossing_parity(a, boundary));
        }
        let b = self.node_of_plane((127 - key.leading_zeros()) as usize);
        let pair = weight_of(g.pair_distance(a, b));
        let via_boundary = weight_of(g.distance(a, boundary)) + weight_of(g.distance(b, boundary));
        match pair.cmp(&via_boundary) {
            std::cmp::Ordering::Less => Some(g.pair_crossing_parity(a, b)),
            std::cmp::Ordering::Greater => {
                Some(g.crossing_parity(a, boundary) ^ g.crossing_parity(b, boundary))
            }
            std::cmp::Ordering::Equal => None,
        }
    }
}

/// Tiered bulk decoder, bit-identical to [`MwpmDecoder`].
///
/// [`Decoder::decode_batch`] extracts defect bit-planes straight from the
/// [`ShotBatch`] words (64 shots per operation) instead of materialising a
/// [`ShotRecord`] per shot, then answers each shot's syndrome from the
/// cheapest applicable tier. The cache member is shared by every batch,
/// rayon chunk and temporal sample of the owning engine.
///
/// [`Decoder::decode_batch_masked`] runs the same pipeline against an
/// interned per-mask `SolveCore` (reweighted graph + private cache);
/// no-op masks hand off to the unmasked path bit-identically.
///
/// [`MwpmDecoder`]: crate::decoder::MwpmDecoder
pub struct BulkDecoder {
    core: SolveCore,
    cbits_round1: Vec<u32>,
    cbits_round2: Vec<u32>,
    readout_cbit: u32,
    name: String,
    /// Interned mask contexts, keyed by quantised edge weights — the
    /// mask-keyed cache dimension. Shared by every batch of the engine,
    /// bounded by [`TierConfig::mask_capacity`].
    masked: ContextTable<(), SolveCore>,
    /// Per-decoder metrics registry (the `decode.*` family), shareable
    /// via [`Self::try_with_tiers_metrics`].
    metrics: Arc<MetricsRegistry>,
    stats: StatCells,
}

impl BulkDecoder {
    /// Build the tiered decoder for `code` with default tiers.
    pub fn new(code: &CodeCircuit) -> Self {
        Self::with_metrics(code, Arc::new(MetricsRegistry::new()))
    }

    /// Build with default tiers, recording its `decode.*` counters and
    /// `stage.decode_ns` spans into `metrics` (the injection engine
    /// passes its own registry so one snapshot covers the pipeline).
    pub fn with_metrics(code: &CodeCircuit, metrics: Arc<MetricsRegistry>) -> Self {
        Self::build(code, TierConfig::default(), metrics)
    }

    /// Build with an explicit [`TierConfig`]. Panics on an invalid config;
    /// [`Self::try_with_tiers`] is the non-panicking form.
    pub fn with_tiers(code: &CodeCircuit, tiers: TierConfig) -> Self {
        Self::try_with_tiers(code, tiers).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build with an explicit [`TierConfig`], rejecting configurations the
    /// decoder cannot honour (zero cache or mask capacity). Any *valid*
    /// config with `deadline: None` yields results identical to the
    /// default; a finite deadline may degrade heavy shots (see
    /// [`DecoderStats::degraded`]).
    pub fn try_with_tiers(code: &CodeCircuit, tiers: TierConfig) -> Result<Self, TierError> {
        Self::try_with_tiers_metrics(code, tiers, Arc::new(MetricsRegistry::new()))
    }

    /// [`Self::try_with_tiers`] recording into a shared registry instead
    /// of a private one (fleet campaigns aggregate patch decoders this
    /// way).
    pub fn try_with_tiers_metrics(
        code: &CodeCircuit,
        tiers: TierConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<Self, TierError> {
        if tiers.cache_capacity == 0 {
            return Err(TierError::ZeroCacheCapacity);
        }
        if tiers.mask_capacity == 0 {
            return Err(TierError::ZeroMaskCapacity);
        }
        Ok(Self::build(code, tiers, metrics))
    }

    fn build(code: &CodeCircuit, tiers: TierConfig, metrics: Arc<MetricsRegistry>) -> Self {
        let stats = StatCells::new(&metrics);
        BulkDecoder {
            core: SolveCore::new(DetectorGraph::new(code), tiers),
            cbits_round1: code.primary_stabilizers().iter().map(|s| s.cbit_round1).collect(),
            cbits_round2: code.primary_stabilizers().iter().map(|s| s.cbit_round2).collect(),
            readout_cbit: code.readout_cbit,
            name: format!("mwpm[{}]", code.name),
            masked: ContextTable::new(tiers.mask_capacity, Arc::clone(&stats.mask_hits)),
            stats,
            metrics,
        }
    }

    /// This decoder's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The underlying (unmasked) detector graph.
    pub fn graph(&self) -> &DetectorGraph {
        &self.core.graph
    }

    /// Whether this decoder serves syndromes from the exhaustive LUT.
    pub fn uses_lut(&self) -> bool {
        self.core.cache.is_direct()
    }

    /// Eagerly fill the exhaustive LUT (all `2^bits` syndromes). No-op for
    /// non-LUT decoders; useful for benches that want cold-start excluded.
    /// Setup work — it does not count towards [`DecoderStats`] (which
    /// tracks decoded shots only).
    pub fn prefill_lut(&self) {
        if !self.uses_lut() {
            return;
        }
        let mut ctx = Ctx::default();
        let mut discard = LocalStats::default();
        for key in 1..(1u128 << self.core.planes) {
            self.core.flip_of_key(key, &mut ctx, &mut discard);
        }
    }

    /// Resolve the solve context of `mask`: `None` for a no-op mask (the
    /// unmasked path answers, bit-identically to unaware decoding), the
    /// interned per-weight-key [`SolveCore`] otherwise.
    fn masked_core(&self, mask: &DecoderMask) -> Option<Arc<SolveCore>> {
        let build = || SolveCore::new(mask.reweight(&self.core.graph), self.core.tiers);
        (!mask.is_noop()).then(|| self.masked.intern((), Some(mask.weight_key()), build))
    }

    /// Defect bit pattern of a single record: bit `2i` = round-1 syndrome
    /// of primary stabilizer `i`, bit `2i+1` = round-1/round-2 difference.
    #[inline]
    fn key_of_record(&self, shot: &ShotRecord) -> u128 {
        let mut key = 0u128;
        for i in 0..self.core.graph.primary_count() {
            let s1 = shot.get(self.cbits_round1[i]);
            let s2 = shot.get(self.cbits_round2[i]);
            key |= (s1 as u128) << (2 * i);
            key |= ((s1 != s2) as u128) << (2 * i + 1);
        }
        key
    }

    /// Batch path for codes wider than the 128-bit defect key (P > 64
    /// primary stabilizers): per-record defect extraction with a per-batch
    /// memo keyed by the *defect pattern* words — records differing only in
    /// readout/secondary bits share one matching — and exact tier
    /// accounting (memo hits count as cache hits).
    fn decode_batch_wide(&self, batch: &ShotBatch, core: &SolveCore) -> Vec<bool> {
        let mut out = Vec::with_capacity(batch.shots());
        let mut scratch = ShotRecord::new(batch.num_clbits());
        let mut memo: HashMap<Box<[u64]>, bool> = Default::default();
        let mut keybuf = vec![0u64; core.planes.div_ceil(64)];
        let mut ctx = core.budget_ctx(batch.shots());
        let mut local = LocalStats { shots: batch.shots() as u64, ..Default::default() };
        let p = core.graph.primary_count();
        for s in 0..batch.shots() {
            batch.fill_record(s, &mut scratch);
            let raw = scratch.get(self.readout_cbit);
            extract_defects(
                &core.graph,
                &self.cbits_round1,
                &self.cbits_round2,
                &scratch,
                &mut ctx.defects,
            );
            // Memo key: the defect pattern as plane bits (plane 2i+r for
            // node (stab i, round r)), derived from the node list.
            keybuf.iter_mut().for_each(|w| *w = 0);
            for &d in &ctx.defects {
                let plane = 2 * (d % p) + d / p;
                keybuf[plane / 64] |= 1u64 << (plane % 64);
            }
            if ctx.defects.is_empty() {
                local.trivial += 1;
                out.push(raw);
                continue;
            }
            let flip = match memo.get(keybuf.as_slice()) {
                Some(&f) => {
                    local.cache_hits += 1;
                    f
                }
                None => {
                    let (f, exact) = core.heavy_flip_defects(&mut ctx, &mut local);
                    if exact {
                        memo.insert(keybuf.clone().into_boxed_slice(), f);
                    }
                    f
                }
            };
            out.push(raw ^ flip);
        }
        self.stats.flush(local);
        out
    }

    /// Pass two of the sharded-mode batch decode: for every distinct
    /// defect pattern that missed the cross-batch cache, re-probe once (a
    /// concurrent chunk may have solved it since pass one), run the
    /// blossom matcher otherwise (analytic already declined in pass one),
    /// and scatter the flip to every waiting shot. Tier accounting
    /// matches the per-shot path exactly: the group's solving shot counts
    /// towards the solving tier, every other shot counts as a cache hit —
    /// which is what each would have been under immediate solving.
    fn solve_deferred(
        &self,
        pending: HashMap<u128, Vec<usize>>,
        out: &mut [bool],
        ctx: &mut Ctx,
        local: &mut LocalStats,
        core: &SolveCore,
    ) {
        for (key, group) in pending {
            let flip = match core.cache.get(key) {
                Some(flip) => {
                    local.cache_hits += group.len() as u64;
                    flip
                }
                None => {
                    let (flip, exact) = core.heavy_flip(key, ctx, local);
                    if exact {
                        core.cache.insert(key, flip);
                        local.cache_hits += group.len() as u64 - 1;
                    } else {
                        // The whole group rides the degraded answer; none
                        // of it is cached.
                        local.degraded += group.len() as u64 - 1;
                    }
                    flip
                }
            };
            if flip {
                for shot in group {
                    out[shot] = !out[shot];
                }
            }
        }
    }

    /// Decode one record against `core` (the per-shot path shared by the
    /// unmasked and masked entry points).
    fn decode_in(&self, shot: &ShotRecord, core: &SolveCore) -> bool {
        if core.planes > 128 {
            // Wider than the u128 key (P > 64 primary stabilizers): a
            // one-shot batch through the wide path.
            let mut batch = ShotBatch::new(shot.len() as u32, 1);
            for (c, _) in shot.bits().iter().enumerate().filter(|(_, &b)| b) {
                batch.flip(c as u32, 0);
            }
            return self.decode_batch_wide(&batch, core)[0];
        }
        let raw = shot.get(self.readout_cbit);
        let key = self.key_of_record(shot);
        let mut local = LocalStats { shots: 1, ..Default::default() };
        let v = if key == 0 {
            local.trivial += 1;
            raw
        } else {
            raw ^ core.flip_of_key(key, &mut core.budget_ctx(1), &mut local)
        };
        self.stats.flush(local);
        v
    }

    /// Decode a batch against `core` — the bit-plane bulk pipeline shared
    /// by the unmasked and masked entry points (see
    /// [`Decoder::decode_batch`] for the tier walk).
    fn decode_batch_in(&self, batch: &ShotBatch, core: &SolveCore) -> Vec<bool> {
        let _span = SpanTimer::start(&self.stats.decode_ns);
        if core.planes > 128 {
            return self.decode_batch_wide(batch, core);
        }
        let words = batch.words();
        let shots = batch.shots();
        let p = core.graph.primary_count();
        // Interleaved defect planes: row 2i = round-1 syndrome of stab i,
        // row 2i+1 = round-1/round-2 XOR; `union` flags words with any
        // defect so all-trivial word spans skip per-shot work entirely.
        let mut planes = vec![0u64; core.planes * words];
        let mut union = vec![0u64; words];
        for i in 0..p {
            let r1 = batch.row(self.cbits_round1[i]);
            let r2 = batch.row(self.cbits_round2[i]);
            for w in 0..words {
                let d0 = r1[w];
                let d1 = r1[w] ^ r2[w];
                planes[2 * i * words + w] = d0;
                planes[(2 * i + 1) * words + w] = d1;
                union[w] |= d0 | d1;
            }
        }
        let readout = batch.row(self.readout_cbit);
        let mut out = Vec::with_capacity(shots);
        let mut ctx = core.budget_ctx(shots);
        let mut local = LocalStats { shots: shots as u64, ..Default::default() };
        // Deferred heavy syndromes (sharded mode): distinct pattern → the
        // shots awaiting its flip.
        let defer = !core.cache.is_direct();
        let mut pending: HashMap<u128, Vec<usize>> = Default::default();
        for w in 0..words {
            let in_word = (shots - w * 64).min(64);
            let raw_word = readout[w];
            if union[w] == 0 {
                // Entire word of trivial syndromes: readout passes through.
                for b in 0..in_word {
                    out.push((raw_word >> b) & 1 == 1);
                }
                local.trivial += in_word as u64;
                continue;
            }
            for b in 0..in_word {
                let mut key = 0u128;
                for plane in 0..core.planes {
                    key |= (((planes[plane * words + w] >> b) & 1) as u128) << plane;
                }
                let raw = (raw_word >> b) & 1 == 1;
                if key == 0 {
                    local.trivial += 1;
                    out.push(raw);
                } else if defer {
                    // Cheap tiers and cache hits inline; only cache
                    // *misses* join their pattern group.
                    match core.cheap_flip(key, &mut local) {
                        Some(flip) => out.push(raw ^ flip),
                        None => {
                            pending.entry(key).or_default().push(out.len());
                            out.push(raw);
                        }
                    }
                } else {
                    out.push(raw ^ core.flip_of_key(key, &mut ctx, &mut local));
                }
            }
        }
        self.solve_deferred(pending, &mut out, &mut ctx, &mut local, core);
        self.stats.flush(local);
        out
    }
}

impl Decoder for BulkDecoder {
    fn decode(&self, shot: &ShotRecord) -> bool {
        self.decode_in(shot, &self.core)
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// Bulk path: bit-plane defect extraction (64 shots per word op), then
    /// the tier cascade per shot — no per-shot [`ShotRecord`]. Codes wider
    /// than the 128-bit key decode per record with a per-batch
    /// syndrome-keyed memo (`decode_batch_wide`).
    ///
    /// In sharded-cache mode the *miss path* runs deferred: pass one
    /// resolves trivial, analytic and cache-hit shots inline (the warm
    /// steady state stays untouched) and groups cache *misses* by
    /// distinct defect pattern; pass two solves each distinct missed
    /// pattern with at most one blossom matching and scatters the flip to
    /// every shot of the group (`solve_deferred`). A cold
    /// radiation-impact batch repeats the same heavy syndromes across
    /// many shots, so this collapses its matcher work to one solve per
    /// *distinct* syndrome per batch instead of racing per-shot solves.
    fn decode_batch(&self, batch: &ShotBatch) -> Vec<bool> {
        self.decode_batch_in(batch, &self.core)
    }

    /// Strike-aware per-shot decode: the tier cascade against `mask`'s
    /// interned reweighted context (no-op masks take the unaware path).
    fn decode_masked(&self, shot: &ShotRecord, mask: &DecoderMask) -> bool {
        self.decode_in(shot, self.masked_core(mask).as_deref().unwrap_or(&self.core))
    }

    /// Strike-aware batch decode — the same bit-plane pipeline as
    /// [`Decoder::decode_batch`], answered from the mask's interned
    /// context so repeated masked sweeps stay on a warm per-mask cache.
    fn decode_batch_masked(&self, batch: &ShotBatch, mask: &DecoderMask) -> Vec<bool> {
        self.decode_batch_in(batch, self.masked_core(mask).as_deref().unwrap_or(&self.core))
    }

    /// A thin view over the `decode.*` registry counters (plus cache and
    /// mask-table occupancy, derived on read and mirrored into gauges).
    fn decode_stats(&self) -> Option<DecoderStats> {
        let (_, mask_contexts) = self.masked.counts();
        let mask_evictions = self.masked.evictions();
        self.metrics.gauge(names::DECODE_CACHE_ENTRIES).set(self.core.cache.len() as u64);
        self.metrics.gauge(names::DECODE_CACHE_EVICTIONS).set(self.core.cache.evictions());
        self.metrics.gauge(names::DECODE_MASK_CONTEXTS).set(mask_contexts as u64);
        self.metrics.gauge(names::DECODE_MASK_EVICTIONS).set(mask_evictions);
        Some(DecoderStats {
            shots: self.stats.shots.get(),
            trivial: self.stats.trivial.get(),
            cache_hits: self.stats.cache_hits.get(),
            analytic: self.stats.analytic.get(),
            matchings: self.stats.matchings.get(),
            degraded: self.stats.degraded.get(),
            cache_evictions: self.core.cache.evictions(),
            cache_entries: self.core.cache.len(),
            mask_contexts,
            mask_hits: self.stats.mask_hits.get(),
            mask_evictions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{QecCode, RepetitionCode, XxzzCode};
    use crate::decoder::MwpmDecoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_record(nc: u32, rng: &mut StdRng) -> ShotRecord {
        let mut r = ShotRecord::new(nc);
        for c in 0..nc {
            r.set(c, rng.gen_bool(0.3));
        }
        r
    }

    #[test]
    fn lut_mode_matches_mwpm_on_random_records() {
        for code in [RepetitionCode::bit_flip(5).build(), XxzzCode::new(3, 3).build()] {
            let bulk = BulkDecoder::new(&code);
            assert!(bulk.uses_lut(), "{}", code.name);
            let mwpm = MwpmDecoder::new(&code);
            let mut rng = StdRng::seed_from_u64(11);
            for _ in 0..300 {
                let shot = random_record(code.circuit.num_clbits(), &mut rng);
                assert_eq!(bulk.decode(&shot), mwpm.decode(&shot), "{}", code.name);
            }
        }
    }

    #[test]
    fn sharded_mode_matches_mwpm_on_random_records() {
        // xxzz-(5,5) has 12 primary stabilizers → 24 detector bits > LUT.
        let code = XxzzCode::new(5, 5).build();
        let bulk = BulkDecoder::new(&code);
        assert!(!bulk.uses_lut());
        let mwpm = MwpmDecoder::new(&code);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..100 {
            let shot = random_record(code.circuit.num_clbits(), &mut rng);
            assert_eq!(bulk.decode(&shot), mwpm.decode(&shot));
        }
    }

    #[test]
    fn batch_decode_matches_per_shot_decode() {
        let code = RepetitionCode::bit_flip(7).build();
        let bulk = BulkDecoder::new(&code);
        let mwpm = MwpmDecoder::new(&code);
        let nc = code.circuit.num_clbits();
        let mut rng = StdRng::seed_from_u64(13);
        let mut batch = ShotBatch::new(nc, 200);
        for s in 0..200 {
            for c in 0..nc {
                if rng.gen_bool(0.25) {
                    batch.flip(c, s);
                }
            }
        }
        let got = bulk.decode_batch(&batch);
        for (s, &v) in got.iter().enumerate() {
            assert_eq!(v, mwpm.decode(&batch.record(s)), "shot {s}");
        }
    }

    #[test]
    fn prefill_makes_every_syndrome_a_cache_hit() {
        let code = RepetitionCode::bit_flip(3).build();
        let bulk = BulkDecoder::new(&code);
        bulk.prefill_lut();
        let baseline = bulk.decode_stats().unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let mut n_nontrivial = 0;
        for _ in 0..50 {
            let shot = random_record(code.circuit.num_clbits(), &mut rng);
            let _ = bulk.decode(&shot);
            if bulk.key_of_record(&shot) != 0 {
                n_nontrivial += 1;
            }
        }
        let after = bulk.decode_stats().unwrap();
        assert_eq!(after.matchings, baseline.matchings, "prefilled LUT must not re-match");
        assert_eq!(after.cache_hits - baseline.cache_hits, n_nontrivial);
    }

    #[test]
    fn sharded_batch_solves_each_distinct_syndrome_once() {
        // xxzz-(5,5) decodes through the sharded cache: the deferred
        // solve-and-scatter path must stay bit-identical to MwpmDecoder
        // and run exactly one matching per distinct heavy syndrome.
        let code = XxzzCode::new(5, 5).build();
        let bulk = BulkDecoder::new(&code);
        assert!(!bulk.uses_lut());
        let mwpm = MwpmDecoder::new(&code);
        let nc = code.circuit.num_clbits();
        let mut batch = ShotBatch::new(nc, 192);
        // Two distinct heavy 4-defect syndromes (round-1-only firings put
        // a defect in both detector layers per stabilizer, dodging the
        // 1–2-defect analytic tier), repeated across the batch; readout
        // bits vary freely.
        for s in 0..192 {
            if s % 2 == 0 {
                batch.flip(code.readout_cbit, s);
            }
            match s % 3 {
                0 => {}
                1 => {
                    for i in [0usize, 3] {
                        batch.flip(code.stabilizers[i].cbit_round1, s);
                    }
                }
                _ => {
                    for i in [2usize, 5] {
                        batch.flip(code.stabilizers[i].cbit_round1, s);
                    }
                }
            }
        }
        let got = bulk.decode_batch(&batch);
        for (s, &v) in got.iter().enumerate() {
            assert_eq!(v, mwpm.decode(&batch.record(s)), "shot {s}");
        }
        let stats = bulk.decode_stats().unwrap();
        assert_eq!(stats.shots, 192);
        assert_eq!(stats.trivial, 64);
        assert_eq!(stats.matchings, 2, "one blossom per distinct heavy syndrome");
        assert_eq!(stats.cache_hits, 126, "the other 2×63 shots scatter from the group solve");
        assert_eq!(stats.degraded, 0, "default deadline must never degrade");
        assert_eq!(
            stats.shots,
            stats.trivial + stats.cache_hits + stats.analytic + stats.matchings + stats.degraded
        );
        // A second batch of the same syndromes is pure cross-batch cache.
        let again = bulk.decode_batch(&batch);
        assert_eq!(again, got);
        let after = bulk.decode_stats().unwrap();
        assert_eq!(after.matchings, 2, "warm cache must answer the repeat batch");
    }

    #[test]
    fn wide_code_batch_memoises_by_syndrome_with_exact_stats() {
        // rep-(67,1): 66 primary stabilizers → 132 detector bits > 128.
        let code = RepetitionCode::bit_flip(67).build();
        let bulk = BulkDecoder::new(&code);
        let mwpm = MwpmDecoder::new(&code);
        let nc = code.circuit.num_clbits();
        let mut batch = ShotBatch::new(nc, 90);
        // Three distinct syndromes (one trivial), repeated; shots 1 mod 3
        // additionally dirty the readout bit, which must not split the memo.
        for s in 0..90 {
            match s % 3 {
                0 => {}
                1 => {
                    batch.flip(code.stabilizers[5].cbit_round1, s);
                    batch.flip(code.readout_cbit, s);
                }
                _ => {
                    batch.flip(code.stabilizers[9].cbit_round1, s);
                    batch.flip(code.stabilizers[9].cbit_round2, s);
                }
            }
        }
        let got = bulk.decode_batch(&batch);
        for (s, &v) in got.iter().enumerate() {
            assert_eq!(v, mwpm.decode(&batch.record(s)), "shot {s}");
        }
        let stats = bulk.decode_stats().unwrap();
        assert_eq!(stats.shots, 90);
        assert_eq!(stats.trivial, 30);
        assert_eq!(stats.matchings, 2, "two distinct non-trivial syndromes");
        assert_eq!(stats.cache_hits, 58);
        assert_eq!(
            stats.shots,
            stats.trivial + stats.cache_hits + stats.analytic + stats.matchings + stats.degraded
        );
    }

    #[test]
    fn tier_configs_agree_with_each_other() {
        let code = XxzzCode::new(3, 3).build();
        let configs = [
            TierConfig::default(),
            TierConfig { lut: false, ..Default::default() },
            TierConfig { lut: false, analytic: false, ..Default::default() },
        ];
        let decoders: Vec<BulkDecoder> =
            configs.iter().map(|&t| BulkDecoder::with_tiers(&code, t)).collect();
        let mwpm = MwpmDecoder::new(&code);
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..200 {
            let shot = random_record(code.circuit.num_clbits(), &mut rng);
            let want = mwpm.decode(&shot);
            for d in &decoders {
                assert_eq!(d.decode(&shot), want);
            }
        }
    }

    #[test]
    fn zero_deadline_degrades_heavy_shots_without_caching() {
        // A spent budget must (a) answer every heavy shot greedily, (b)
        // keep the caches free of approximate values, and (c) stay
        // deterministic across repeats. xxzz-(5,5) routes through the
        // sharded cache; 4-defect syndromes dodge the analytic tier.
        let code = XxzzCode::new(5, 5).build();
        let tiers = TierConfig { deadline: Some(Duration::ZERO), ..Default::default() };
        let bulk = BulkDecoder::with_tiers(&code, tiers);
        let nc = code.circuit.num_clbits();
        let mut batch = ShotBatch::new(nc, 128);
        for s in 0..128 {
            for i in [0usize, 3] {
                batch.flip(code.stabilizers[i].cbit_round1, s);
            }
        }
        let got = bulk.decode_batch(&batch);
        let stats = bulk.decode_stats().unwrap();
        assert_eq!(stats.matchings, 0, "zero budget must never reach the blossom tier");
        assert_eq!(stats.degraded, 128);
        assert_eq!(stats.cache_entries, 0, "degraded answers must not be cached");
        assert_eq!(
            stats.shots,
            stats.trivial + stats.cache_hits + stats.analytic + stats.matchings + stats.degraded
        );
        // Re-decoding degrades again (nothing was cached) with the same
        // answers — the fallback is a pure function too.
        let again = bulk.decode_batch(&batch);
        assert_eq!(again, got);
        let after = bulk.decode_stats().unwrap();
        assert_eq!(after.degraded, 256);
        assert_eq!(after.cache_entries, 0);
        // Per-shot path degrades identically.
        assert_eq!(bulk.decode(&batch.record(0)), got[0]);
        assert_eq!(bulk.decode_stats().unwrap().degraded, 257);
    }

    #[test]
    fn greedy_fallback_is_exact_on_analytic_eligible_syndromes() {
        // On 1–2-defect syndromes the greedy fallback enumerates the same
        // two matchings as the analytic tier, so a degraded decoder still
        // answers those exactly. Disable the analytic tier to force the
        // degraded path, and compare against the exact reference.
        let code = XxzzCode::new(5, 5).build();
        let tiers =
            TierConfig { analytic: false, deadline: Some(Duration::ZERO), ..Default::default() };
        let degraded = BulkDecoder::with_tiers(&code, tiers);
        let exact = MwpmDecoder::new(&code);
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..200 {
            let mut shot = ShotRecord::new(code.circuit.num_clbits());
            // At most two firing stabilizers → ≤ 2 defects total (round-1
            // and round-2 both set leaves only the round-1 detector bit).
            for _ in 0..2 {
                if rng.gen_bool(0.7) {
                    let i = rng.gen_range(0..code.primary_count);
                    shot.set(code.stabilizers[i].cbit_round1, true);
                    shot.set(code.stabilizers[i].cbit_round2, true);
                }
            }
            let key = degraded.key_of_record(&shot);
            if key != 0 && degraded.core.analytic_flip(key).is_none() {
                // Exact tie between the two matchings: the blossom
                // tie-break is not contractual, so skip.
                continue;
            }
            assert_eq!(degraded.decode(&shot), exact.decode(&shot));
        }
        assert!(degraded.decode_stats().unwrap().degraded > 0);
    }

    #[test]
    fn try_with_tiers_rejects_zero_capacities() {
        let code = RepetitionCode::bit_flip(5).build();
        let zero_cache = TierConfig { cache_capacity: 0, ..Default::default() };
        assert_eq!(
            BulkDecoder::try_with_tiers(&code, zero_cache).err(),
            Some(TierError::ZeroCacheCapacity)
        );
        let zero_mask = TierConfig { mask_capacity: 0, ..Default::default() };
        let err = BulkDecoder::try_with_tiers(&code, zero_mask).err().unwrap();
        assert_eq!(err, TierError::ZeroMaskCapacity);
        assert!(err.to_string().contains("mask_capacity"));
        assert!(BulkDecoder::try_with_tiers(&code, TierConfig::default()).is_ok());
    }

    #[test]
    fn mask_contexts_evict_at_ceiling_without_changing_results() {
        let code = RepetitionCode::bit_flip(5).build();
        let tiers = TierConfig { mask_capacity: 2, ..Default::default() };
        let bulk = BulkDecoder::with_tiers(&code, tiers);
        let nc = code.circuit.num_clbits();
        let mut batch = ShotBatch::new(nc, 64);
        for s in 0..64 {
            if s % 2 == 0 {
                batch.flip(code.stabilizers[1].cbit_round1, s);
            }
        }
        let hot = DecoderMask::from_probs(vec![1.0, 0.25, 0.0, 0.0, 0.0], vec![0.0; 4]);
        let masks = [hot.clone(), hot.scaled(0.5), hot.scaled(0.3)];
        let first: Vec<Vec<bool>> =
            masks.iter().map(|m| bulk.decode_batch_masked(&batch, m)).collect();
        let stats = bulk.decode_stats().unwrap();
        assert_eq!(stats.mask_contexts, 2, "ceiling must hold");
        assert_eq!(stats.mask_evictions, 1, "third intern evicts the LRU context");
        // Re-interning the evicted key rebuilds the same pure function.
        let again = bulk.decode_batch_masked(&batch, &masks[0]);
        assert_eq!(again, first[0]);
        let stats = bulk.decode_stats().unwrap();
        assert_eq!(stats.mask_contexts, 2);
        assert_eq!(stats.mask_evictions, 2);
    }

    #[test]
    fn mask_contexts_intern_by_weight_key() {
        let code = RepetitionCode::bit_flip(5).build();
        let bulk = BulkDecoder::new(&code);
        let nc = code.circuit.num_clbits();
        let batch = ShotBatch::new(nc, 64);
        let hot = DecoderMask::from_probs(vec![1.0, 0.25, 0.0, 0.0, 0.0], vec![0.0; 4]);
        let noop = hot.scaled(0.0);
        // No-op mask: unaware path, no context interned.
        let _ = bulk.decode_batch_masked(&batch, &noop);
        let stats = bulk.decode_stats().unwrap();
        assert_eq!(stats.mask_contexts, 0);
        assert_eq!(stats.mask_hits, 0);
        // First real mask interns; repeats hit; an equivalent mask (same
        // quantised weights) shares the context.
        let _ = bulk.decode_batch_masked(&batch, &hot);
        let _ = bulk.decode_batch_masked(&batch, &hot);
        let _ = bulk.decode_batch_masked(&batch, &hot.clone());
        let stats = bulk.decode_stats().unwrap();
        assert_eq!(stats.mask_contexts, 1);
        assert_eq!(stats.mask_hits, 2);
        // A differently-quantised mask opens a second dimension.
        let _ = bulk.decode_batch_masked(&batch, &hot.scaled(0.3));
        let stats = bulk.decode_stats().unwrap();
        assert_eq!(stats.mask_contexts, 2);
    }
}
