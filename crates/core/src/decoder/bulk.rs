//! Bulk MWPM decoder: bit-plane defect extraction and one memo-or-solve
//! pass per call over an engine-lifetime syndrome memo (direct lookup
//! table or sharded map), with one budgeted exact solve per distinct
//! missed syndrome and a **mask-keyed context dimension** for
//! strike-aware decoding.
//!
//! See the [`crate::decoder`] module docs for the solve pass and the
//! exactness argument; the short version is that every memo entry is a
//! value of the same pure function `flip(defect_pattern)` that
//! [`MwpmDecoder::decode`] computes, so [`BulkDecoder`] is bit-identical to
//! [`MwpmDecoder`] on every record (enforced exhaustively for the
//! direct-table codes and property-tested otherwise in
//! `tests/decoder_tiers.rs`).
//!
//! Strike-aware decoding adds a second axis: a [`DecoderMask`] reweights
//! the detector graph inside a struck region, which changes `flip` — so
//! each distinct mask (keyed by its quantised integer edge weights) interns
//! its own [`SolveContext`] in a [`ContextTable`], the context and table
//! types the space-time decoder uses for its windows too. Warm-path
//! throughput survives because a sweep reuses a handful of mask keys, each
//! with its own fully warmed memo, and a no-op mask takes the lock-free
//! unmasked path outright (`tests/strike_aware_decoding.rs` pins both the
//! bit-identity per mask and the no-op handoff).

use crate::codes::CodeCircuit;
use crate::decoder::contexts::ContextTable;
use crate::decoder::graph::DetectorGraph;
use crate::decoder::mask::DecoderMask;
use crate::decoder::memo::{SolveContext, DEFAULT_CACHE_CAPACITY};
use crate::decoder::mwpm::{matching_flip, weight_of};
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
/// reweighted graph + private outcome cache, so the map must not grow
/// with campaign length — a long multi-strike run revisits a handful of
/// quantised weight keys).
pub const DEFAULT_MASK_CAPACITY: usize = 64;

/// The resource limits of both matching decoders, [`BulkDecoder`] and
/// [`SpaceTimeDecoder`]. A memo's storage is not a setting: keys of at
/// most `LUT_MAX_BITS` (16) detector bits get the exhaustive
/// direct-indexed table, wider ones the sharded map. Only `deadline` can
/// change a decode: a spent budget swaps the exact matcher for the greedy
/// fallback (see [`DecoderStats::degraded`]), which may differ on
/// syndromes of three or more defects, or of two tied ones.
///
/// [`SpaceTimeDecoder`]: crate::decoder::SpaceTimeDecoder
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// Entry budget of every sharded outcome memo, one per solve context
    /// of either decoder (the unmasked context, each mask context, each
    /// window context). A shard that is full when a new entry arrives is
    /// cleared, and its entries count as evictions; the memo holds values
    /// of a pure function, so eviction never changes a decode. A
    /// direct-indexed table holds one slot per possible key and needs no
    /// cap.
    pub cache_capacity: usize,
    /// Per-shot budget for the bulk decoder's exact solves, or `None` for
    /// unbounded. Batch decoding scales it to `deadline × shots` and
    /// charges every solve against the pool; once spent, remaining missed
    /// syndromes are answered by a deterministic greedy matching instead
    /// (counted in [`DecoderStats::degraded`], never cached), so a stuck
    /// matcher can not stall a round stream. `Duration::ZERO` degrades
    /// every missed syndrome — the chaos-test configuration. Window solves
    /// are bounded by the window instead and ignore it.
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
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            deadline: Some(DEFAULT_DECODE_DEADLINE),
            mask_capacity: DEFAULT_MASK_CAPACITY,
        }
    }
}

impl TierConfig {
    /// Whether a decoder can be built from this config: both capacities
    /// must be at least 1. Both decoders' fallible constructors call it.
    pub fn validate(&self) -> Result<(), TierError> {
        if self.cache_capacity == 0 {
            return Err(TierError::ZeroCacheCapacity);
        }
        if self.mask_capacity == 0 {
            return Err(TierError::ZeroMaskCapacity);
        }
        Ok(())
    }
}

/// A [`TierConfig`] a decoder cannot be built from (see
/// [`TierConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierError {
    /// `cache_capacity` is zero — a sharded memo needs room for at least
    /// one entry per shard to make progress.
    ZeroCacheCapacity,
    /// `mask_capacity` is zero — every masked decode would rebuild its
    /// context from scratch, silently disabling the mask-keyed contexts.
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
/// [`BulkDecoder`]'s atomics; see [`BulkDecoder::decode_stats`]). Every
/// decoded shot lands in exactly one of `trivial`, `cache_hits`,
/// `matchings` and `degraded`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecoderStats {
    /// Shots decoded in total.
    pub shots: u64,
    /// Shots with an all-zero syndrome (raw readout passes through).
    pub trivial: u64,
    /// Shots answered by the lookup table / cross-batch cache, or by the
    /// solve of another shot of the same call with the same syndrome.
    pub cache_hits: u64,
    /// Exact matchings actually run: one per distinct syndrome a call
    /// missed in the memo.
    pub matchings: u64,
    /// Shots answered by the greedy fallback because the decode budget was
    /// already spent (see [`TierConfig::deadline`]). Zero at the default
    /// deadline; degraded answers are never written to any cache.
    pub degraded: u64,
    /// Entries cleared from the (unmasked) sharded memo by full shards.
    pub cache_evictions: u64,
    /// Distinct syndromes currently held by the (unmasked) memo.
    pub cache_entries: usize,
    /// Distinct strike-mask reweightings interned (each owns a private
    /// graph + syndrome memo — the mask-keyed context dimension).
    pub mask_contexts: usize,
    /// Masked decode calls answered by an already-interned mask context
    /// (the mask cache's hit counter; misses = `mask_contexts`).
    pub mask_hits: u64,
    /// Mask contexts dropped by the LRU ceiling
    /// ([`TierConfig::mask_capacity`]).
    pub mask_evictions: u64,
}

/// Registry-backed decode counters (the `decode.*` metric family): handles
/// are resolved once at decoder construction, so bumping them costs one
/// relaxed `fetch_add` — and the per-shot loop pays nothing, because
/// [`LocalStats`] batches a whole call before touching them.
pub(crate) struct StatCells {
    shots: Arc<Counter>,
    trivial: Arc<Counter>,
    cache_hits: Arc<Counter>,
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
    pub(crate) matchings: u64,
    pub(crate) degraded: u64,
}

/// Per-call scratch: matcher arena + defect-list buffer + the call's
/// decode-time budget. Cheap to create (no allocation until a solve
/// actually runs) and reused across every syndrome of a batch.
#[derive(Default)]
struct Ctx {
    arena: MatchingArena,
    defects: Vec<usize>,
    /// Total solve time this call may spend (`deadline × shots`), or
    /// `None` for unbounded.
    budget: Option<Duration>,
    /// Solve time spent so far; once `spent >= budget` missed syndromes
    /// are answered greedily.
    spent: Duration,
}

impl Ctx {
    /// The budgeted solve of the defect list in `self.defects` on `graph`:
    /// the exact matcher while the budget lasts, the deterministic greedy
    /// fallback once it is spent. Returns `(flip, exact)`; only exact
    /// answers may be memoised. Solves are timed and charged against the
    /// budget, so one pathological solve cannot be followed by another.
    fn solve(&mut self, graph: &DetectorGraph) -> (bool, bool) {
        match self.budget {
            None => (matching_flip(graph, &self.defects, &mut self.arena), true),
            Some(budget) if self.spent >= budget => (greedy_flip(graph, &self.defects), false),
            Some(_) => {
                let start = Instant::now();
                let flip = matching_flip(graph, &self.defects, &mut self.arena);
                self.spent += start.elapsed();
                (flip, true)
            }
        }
    }
}

/// Deterministic greedy matching — the graceful-degradation answer when
/// the decode budget is spent. Walks defects in plane order; each
/// unmatched defect takes its cheapest strictly-pair-beats-boundary
/// partner, else the boundary. O(k²), exact for ≤ 2 defects whose pair and
/// boundary distances do not tie (it weighs the same two matchings the
/// exact matcher chooses between), approximate beyond — which is why
/// degraded answers never populate a memo.
fn greedy_flip(g: &DetectorGraph, defects: &[usize]) -> bool {
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
            if cost < wa + weight_of(g.distance(b, boundary)) && best.is_none_or(|(c, _)| cost < c)
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

/// Bulk decoder, bit-identical to [`MwpmDecoder`].
///
/// [`BulkDecoder::decode_batch`] extracts defect bit-planes straight from the
/// [`ShotBatch`] words (64 shots per operation) instead of materialising a
/// [`ShotRecord`] per shot, then answers each shot's syndrome from the
/// memo or from one exact solve per distinct missed syndrome. The memo is
/// shared by every batch, rayon chunk and temporal sample of the owning
/// engine.
///
/// [`BulkDecoder::decode_batch_masked`] runs the same pipeline against an
/// interned per-mask solve context (reweighted graph + private memo);
/// no-op masks hand off to the unmasked path bit-identically.
///
/// [`MwpmDecoder`]: crate::decoder::MwpmDecoder
pub struct BulkDecoder {
    /// The unmasked solve context: the code's two-layer detector graph and
    /// its engine-lifetime syndrome memo, shared by every batch / rayon
    /// chunk / temporal sample through `&self`.
    core: SolveContext<bool>,
    /// Detector-bit count `2P`; key bit `2i + r` is stabilizer `i` in
    /// round `r` (see `node_of_plane`).
    planes: usize,
    tiers: TierConfig,
    cbits_round1: Vec<u32>,
    cbits_round2: Vec<u32>,
    readout_cbit: u32,
    /// Interned mask contexts, keyed by quantised edge weights — the
    /// mask-keyed context dimension. Shared by every batch of the engine,
    /// bounded by [`TierConfig::mask_capacity`].
    masked: ContextTable<(), SolveContext<bool>>,
    /// Per-decoder metrics registry (the `decode.*` family), shareable
    /// via [`Self::try_with_tiers_metrics`].
    metrics: Arc<MetricsRegistry>,
    stats: StatCells,
}

impl BulkDecoder {
    /// Build the bulk decoder for `code` with the default [`TierConfig`].
    pub fn new(code: &CodeCircuit) -> Self {
        Self::with_metrics(code, Arc::new(MetricsRegistry::new()))
    }

    /// Build with the default [`TierConfig`], recording its `decode.*`
    /// counters and `stage.decode_ns` spans into `metrics` (the injection
    /// engine passes its own registry so one snapshot covers the
    /// pipeline).
    pub fn with_metrics(code: &CodeCircuit, metrics: Arc<MetricsRegistry>) -> Self {
        Self::build(code, TierConfig::default(), metrics)
    }

    /// Build with an explicit [`TierConfig`]. Panics on an invalid config;
    /// [`Self::try_with_tiers`] is the non-panicking form.
    pub fn with_tiers(code: &CodeCircuit, tiers: TierConfig) -> Self {
        Self::try_with_tiers(code, tiers).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build with an explicit [`TierConfig`], rejecting configurations the
    /// decoder cannot honour ([`TierConfig::validate`]). Any *valid*
    /// config with `deadline: None` yields results identical to the
    /// default; a finite deadline may degrade missed syndromes (see
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
        tiers.validate()?;
        Ok(Self::build(code, tiers, metrics))
    }

    fn build(code: &CodeCircuit, tiers: TierConfig, metrics: Arc<MetricsRegistry>) -> Self {
        let stats = StatCells::new(&metrics);
        let graph = DetectorGraph::new(code);
        BulkDecoder {
            planes: graph.layers() * graph.primary_count(),
            core: SolveContext::new(graph, tiers.cache_capacity),
            tiers,
            cbits_round1: code.primary_stabilizers().iter().map(|s| s.cbit_round1).collect(),
            cbits_round2: code.primary_stabilizers().iter().map(|s| s.cbit_round2).collect(),
            readout_cbit: code.readout_cbit,
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
        self.core.memo.is_direct()
    }

    /// Eagerly fill the exhaustive LUT (all `2^bits` syndromes). No-op for
    /// non-LUT decoders; useful for benches that want cold-start excluded.
    /// Setup work — it does not count towards [`DecoderStats`] (which
    /// tracks decoded shots only).
    pub fn prefill_lut(&self) {
        if !self.uses_lut() {
            return;
        }
        let mut flips = vec![false; (1 << self.planes) - 1];
        let key_of = |i: usize, _: &mut bool| Some(i as u128 + 1);
        self.answer(&self.core, &mut flips, key_of, &mut Ctx::default(), &mut Default::default());
    }

    /// Detector node of key bit `plane`: plane `2i + r` is node
    /// `(stab i, round r)`, so ascending bit index reproduces
    /// `MwpmDecoder::defects` order.
    #[inline]
    fn node_of_plane(&self, plane: usize) -> usize {
        (plane % 2) * self.core.graph.primary_count() + plane / 2
    }

    /// Scratch context for a decode call over `shots` shots, carrying the
    /// call's solve-time budget (`deadline × shots`, saturating).
    fn budget_ctx(&self, shots: usize) -> Ctx {
        Ctx {
            budget: self
                .tiers
                .deadline
                .map(|d| d.saturating_mul(shots.min(u32::MAX as usize) as u32)),
            ..Ctx::default()
        }
    }

    /// Resolve the solve context of `mask`: `None` for a no-op mask (the
    /// unmasked path answers, bit-identically to unaware decoding), the
    /// interned per-weight-key context otherwise.
    fn masked_core(&self, mask: &DecoderMask) -> Option<Arc<SolveContext<bool>>> {
        let build =
            || SolveContext::new(mask.reweight(&self.core.graph), self.tiers.cache_capacity);
        (!mask.is_noop()).then(|| self.masked.intern((), Some(mask.weight_key()), build))
    }

    /// Decode one record into the corrected logical readout value (`true`
    /// = logical |1⟩, the expected outcome of every experiment circuit in
    /// the paper).
    ///
    /// Never inlined, on purpose: inlined into the tableau shot loop, the
    /// decode path once cost that loop about 7 % at ~55 µs per shot
    /// (radbench `paper_d3`, 2-vCPU VM; not re-measured since shots became
    /// ~4× cheaper).
    #[inline(never)]
    pub fn decode(&self, shot: &ShotRecord) -> bool {
        self.decode_in(shot, &self.core)
    }

    /// Decode every shot of a batch. Bit-plane defect extraction (64
    /// shots per word op), then one memo-or-solve pass: each non-trivial
    /// shot probes the memo, the misses are grouped by defect pattern,
    /// and each distinct missed pattern gets one exact solve whose flip is
    /// scattered to every shot of its group (see `decode_planes`). A cold
    /// radiation-impact batch repeats the same heavy syndromes across many
    /// shots, so its matcher work is one solve per *distinct* syndrome per
    /// batch. Codes wider than the 128-bit key walk the same planes shot
    /// by shot with a per-batch syndrome-keyed memo.
    pub fn decode_batch(&self, batch: &ShotBatch) -> Vec<bool> {
        self.decode_batch_in(batch, &self.core)
    }

    /// Strike-aware per-shot decode against `mask`'s interned reweighted
    /// context (no-op masks take the unaware path).
    pub fn decode_masked(&self, shot: &ShotRecord, mask: &DecoderMask) -> bool {
        self.decode_in(shot, self.masked_core(mask).as_deref().unwrap_or(&self.core))
    }

    /// Strike-aware batch decode — the same bit-plane pipeline as
    /// [`Self::decode_batch`], answered from the mask's interned context
    /// so repeated masked sweeps stay on a warm per-mask memo.
    pub fn decode_batch_masked(&self, batch: &ShotBatch, mask: &DecoderMask) -> Vec<bool> {
        self.decode_batch_in(batch, self.masked_core(mask).as_deref().unwrap_or(&self.core))
    }

    /// Where decode work went so far: a thin view over the `decode.*`
    /// registry counters (plus memo and mask-table occupancy, derived on
    /// read and mirrored into gauges).
    pub fn decode_stats(&self) -> DecoderStats {
        let (_, mask_contexts) = self.masked.counts();
        let mask_evictions = self.masked.evictions();
        let memo = &self.core.memo;
        self.metrics.gauge(names::DECODE_CACHE_ENTRIES).set(memo.len() as u64);
        self.metrics.gauge(names::DECODE_CACHE_EVICTIONS).set(memo.evictions());
        self.metrics.gauge(names::DECODE_MASK_CONTEXTS).set(mask_contexts as u64);
        self.metrics.gauge(names::DECODE_MASK_EVICTIONS).set(mask_evictions);
        DecoderStats {
            shots: self.stats.shots.get(),
            trivial: self.stats.trivial.get(),
            cache_hits: self.stats.cache_hits.get(),
            matchings: self.stats.matchings.get(),
            degraded: self.stats.degraded.get(),
            cache_evictions: memo.evictions(),
            cache_entries: memo.len(),
            mask_contexts,
            mask_hits: self.stats.mask_hits.get(),
            mask_evictions,
        }
    }

    /// Decode `shots` replicas straight from two rounds of primary
    /// detection events: `rows(i, r)` is the event row (one bit per
    /// replica) of primary stabilizer `i` in round `r ∈ {0, 1}`. Those
    /// rows *are* the defect planes `2i + r`, and the readout is taken as
    /// zero, so each returned bit says whether the matching applies a
    /// logical correction. One `stage.decode_ns` span per call, like
    /// [`Self::decode_batch`].
    pub(crate) fn decode_event_rows<'a>(
        &self,
        shots: usize,
        rows: impl Fn(usize, usize) -> &'a [u64],
    ) -> Vec<bool> {
        let _span = SpanTimer::start(&self.stats.decode_ns);
        let words = shots.div_ceil(64);
        let mut planes = Vec::with_capacity(self.planes * words);
        for i in 0..self.core.graph.primary_count() {
            planes.extend_from_slice(rows(i, 0));
            planes.extend_from_slice(rows(i, 1));
        }
        self.decode_planes(&planes, &vec![0; words], shots, &self.core)
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

    /// Decode path for codes wider than the 128-bit defect key (P > 64
    /// primary stabilizers), over the same defect planes as the narrow
    /// path: each shot's defect list is read off the planes in ascending
    /// plane order (the canonical `MwpmDecoder::defects` order), with a
    /// per-call memo keyed by the *defect pattern* words — shots sharing
    /// a syndrome share one matching — and exact accounting (memo hits
    /// count as cache hits).
    fn decode_planes_wide(
        &self,
        planes: &[u64],
        readout: &[u64],
        shots: usize,
        core: &SolveContext<bool>,
    ) -> Vec<bool> {
        let words = shots.div_ceil(64);
        let mut out = Vec::with_capacity(shots);
        let mut memo: HashMap<Box<[u64]>, bool> = Default::default();
        let mut keybuf = vec![0u64; self.planes.div_ceil(64)];
        let mut ctx = self.budget_ctx(shots);
        let mut local = LocalStats { shots: shots as u64, ..Default::default() };
        for s in 0..shots {
            let (w, b) = (s / 64, s % 64);
            let raw = (readout[w] >> b) & 1 == 1;
            keybuf.iter_mut().for_each(|k| *k = 0);
            ctx.defects.clear();
            for plane in 0..self.planes {
                if (planes[plane * words + w] >> b) & 1 == 1 {
                    keybuf[plane / 64] |= 1u64 << (plane % 64);
                    ctx.defects.push(self.node_of_plane(plane));
                }
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
                    let (f, exact) = ctx.solve(&core.graph);
                    if exact {
                        local.matchings += 1;
                        memo.insert(keybuf.clone().into_boxed_slice(), f);
                    } else {
                        local.degraded += 1;
                    }
                    f
                }
            };
            out.push(raw ^ flip);
        }
        self.stats.flush(local);
        out
    }

    /// The memo-or-solve pass ([`SolveContext::answer`]) over `out`'s raw
    /// readouts: each flip is XORed into its shot, and a miss is solved
    /// under `ctx`'s budget with its defects fed stab-major.
    fn answer(
        &self,
        core: &SolveContext<bool>,
        out: &mut [bool],
        key_of: impl FnMut(usize, &mut bool) -> Option<u128>,
        ctx: &mut Ctx,
        local: &mut LocalStats,
    ) {
        let solve = |key: u128| {
            ctx.defects.clear();
            let mut k = key;
            while k != 0 {
                let plane = k.trailing_zeros() as usize;
                k &= k - 1;
                ctx.defects.push(self.node_of_plane(plane));
            }
            ctx.solve(&core.graph)
        };
        core.answer(out, key_of, |raw, flip| *raw ^= flip, local, solve);
    }

    /// Decode one record against `core` (the per-shot path shared by the
    /// unmasked and masked entry points): a group of one.
    fn decode_in(&self, shot: &ShotRecord, core: &SolveContext<bool>) -> bool {
        if self.planes > 128 {
            // Wider than the u128 key (P > 64 primary stabilizers): a
            // one-shot batch through the wide path.
            let batch = ShotBatch::from_records(std::slice::from_ref(shot));
            let planes = self.defect_planes(&batch);
            return self.decode_planes_wide(&planes, batch.row(self.readout_cbit), 1, core)[0];
        }
        let key = self.key_of_record(shot);
        let mut out = [shot.get(self.readout_cbit)];
        let mut local = LocalStats { shots: 1, trivial: u64::from(key == 0), ..Default::default() };
        let key_of = |_: usize, _: &mut bool| (key != 0).then_some(key);
        self.answer(core, &mut out, key_of, &mut self.budget_ctx(1), &mut local);
        self.stats.flush(local);
        out[0]
    }

    /// Decode a batch against `core` — one `stage.decode_ns` span around
    /// plane extraction and the solve pass (see [`Self::decode_batch`]).
    fn decode_batch_in(&self, batch: &ShotBatch, core: &SolveContext<bool>) -> Vec<bool> {
        let _span = SpanTimer::start(&self.stats.decode_ns);
        let planes = self.defect_planes(batch);
        self.decode_planes(&planes, batch.row(self.readout_cbit), batch.shots(), core)
    }

    /// Interleaved defect planes of a batch, `batch.words()` words each:
    /// row `2i` = round-1 syndrome of primary stabilizer `i`, row `2i+1`
    /// = its round-1/round-2 XOR.
    fn defect_planes(&self, batch: &ShotBatch) -> Vec<u64> {
        let mut planes = Vec::with_capacity(self.planes * batch.words());
        for (&c1, &c2) in self.cbits_round1.iter().zip(&self.cbits_round2) {
            let (r1, r2) = (batch.row(c1), batch.row(c2));
            planes.extend_from_slice(r1);
            planes.extend(r1.iter().zip(r2).map(|(a, b)| a ^ b));
        }
        planes
    }

    /// The solve pass over interleaved defect planes (see
    /// [`Self::defect_planes`]) and the raw readout row — the pipeline
    /// behind both batch entry points and the event-row entry. Every shot
    /// starts as its raw readout; the non-trivial ones go through one
    /// memo-or-solve pass (`answer`). Words whose planes are all zero
    /// skip key extraction.
    fn decode_planes(
        &self,
        planes: &[u64],
        readout: &[u64],
        shots: usize,
        core: &SolveContext<bool>,
    ) -> Vec<bool> {
        if self.planes > 128 {
            return self.decode_planes_wide(planes, readout, shots, core);
        }
        let words = shots.div_ceil(64);
        // `union` flags words with any defect.
        let mut union = vec![0u64; words];
        for plane in planes.chunks_exact(words) {
            union.iter_mut().zip(plane).for_each(|(u, &d)| *u |= d);
        }
        let mut out: Vec<bool> =
            (0..shots).map(|s| (readout[s / 64] >> (s % 64)) & 1 == 1).collect();
        let mut local = LocalStats { shots: shots as u64, ..Default::default() };
        let mut trivial = 0;
        let key_of = |s: usize, _: &mut bool| {
            let (w, b) = (s / 64, s % 64);
            let mut key = 0u128;
            if union[w] != 0 {
                for plane in 0..self.planes {
                    key |= (((planes[plane * words + w] >> b) & 1) as u128) << plane;
                }
            }
            trivial += u64::from(key == 0);
            (key != 0).then_some(key)
        };
        self.answer(core, &mut out, key_of, &mut self.budget_ctx(shots), &mut local);
        local.trivial = trivial;
        self.stats.flush(local);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{RepetitionCode, XxzzCode};
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
        let baseline = bulk.decode_stats();
        let mut rng = StdRng::seed_from_u64(14);
        let mut n_nontrivial = 0;
        for _ in 0..50 {
            let shot = random_record(code.circuit.num_clbits(), &mut rng);
            let _ = bulk.decode(&shot);
            if bulk.key_of_record(&shot) != 0 {
                n_nontrivial += 1;
            }
        }
        let after = bulk.decode_stats();
        assert_eq!(after.matchings, baseline.matchings, "prefilled LUT must not re-match");
        assert_eq!(after.cache_hits - baseline.cache_hits, n_nontrivial);
    }

    #[test]
    fn sharded_batch_solves_each_distinct_syndrome_once() {
        // xxzz-(5,5) decodes through the sharded cache, rep-(5,1) through
        // the direct table; both share the grouped solve-and-scatter pass,
        // which must stay bit-identical to MwpmDecoder and run exactly one
        // matching per distinct missed syndrome.
        for (code, lut, groups) in [
            (XxzzCode::new(5, 5).build(), false, [[0usize, 3], [2, 5]]),
            (RepetitionCode::bit_flip(5).build(), true, [[0, 3], [1, 2]]),
        ] {
            let bulk = BulkDecoder::new(&code);
            assert_eq!(bulk.uses_lut(), lut, "{}", code.name);
            let mwpm = MwpmDecoder::new(&code);
            let nc = code.circuit.num_clbits();
            let mut batch = ShotBatch::new(nc, 192);
            // Two distinct 4-defect syndromes (a round-1-only firing puts
            // a defect in both detector layers of its stabilizer),
            // repeated across the batch; readout bits vary freely.
            for s in 0..192 {
                if s % 2 == 0 {
                    batch.flip(code.readout_cbit, s);
                }
                if s % 3 != 0 {
                    for i in groups[s % 3 - 1] {
                        batch.flip(code.stabilizers[i].cbit_round1, s);
                    }
                }
            }
            let got = bulk.decode_batch(&batch);
            for (s, &v) in got.iter().enumerate() {
                assert_eq!(v, mwpm.decode(&batch.record(s)), "{} shot {s}", code.name);
            }
            let stats = bulk.decode_stats();
            assert_eq!(stats.shots, 192);
            assert_eq!(stats.trivial, 64);
            assert_eq!(stats.matchings, 2, "{}: one solve per distinct syndrome", code.name);
            assert_eq!(stats.cache_hits, 126, "the other 2×63 shots scatter from the group solve");
            assert_eq!(stats.degraded, 0, "default deadline must never degrade");
            assert_eq!(
                stats.shots,
                stats.trivial + stats.cache_hits + stats.matchings + stats.degraded
            );
            // A second batch of the same syndromes is pure cross-batch cache.
            let again = bulk.decode_batch(&batch);
            assert_eq!(again, got);
            let after = bulk.decode_stats();
            assert_eq!(after.matchings, 2, "{}: warm memo must answer the repeat batch", code.name);
        }
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
        let stats = bulk.decode_stats();
        assert_eq!(stats.shots, 90);
        assert_eq!(stats.trivial, 30);
        assert_eq!(stats.matchings, 2, "two distinct non-trivial syndromes");
        assert_eq!(stats.cache_hits, 58);
        assert_eq!(
            stats.shots,
            stats.trivial + stats.cache_hits + stats.matchings + stats.degraded
        );
    }

    #[test]
    fn zero_deadline_degrades_heavy_shots_without_caching() {
        // A spent budget must (a) answer every heavy shot greedily, (b)
        // keep the caches free of approximate values, and (c) stay
        // deterministic across repeats. xxzz-(5,5) routes through the
        // sharded cache.
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
        let stats = bulk.decode_stats();
        assert_eq!(stats.matchings, 0, "zero budget must never reach the exact matcher");
        assert_eq!(stats.degraded, 128);
        assert_eq!(stats.cache_entries, 0, "degraded answers must not be cached");
        assert_eq!(
            stats.shots,
            stats.trivial + stats.cache_hits + stats.matchings + stats.degraded
        );
        // Re-decoding degrades again (nothing was cached) with the same
        // answers — the fallback is a pure function too.
        let again = bulk.decode_batch(&batch);
        assert_eq!(again, got);
        let after = bulk.decode_stats();
        assert_eq!(after.degraded, 256);
        assert_eq!(after.cache_entries, 0);
        // Per-shot path degrades identically.
        assert_eq!(bulk.decode(&batch.record(0)), got[0]);
        assert_eq!(bulk.decode_stats().degraded, 257);
    }

    #[test]
    fn greedy_fallback_is_exact_on_untied_one_and_two_defect_syndromes() {
        // On 1–2-defect syndromes the greedy fallback weighs the same two
        // matchings the exact matcher chooses between, so a degraded
        // decoder still answers those exactly unless the two tie.
        let code = XxzzCode::new(5, 5).build();
        let tiers = TierConfig { deadline: Some(Duration::ZERO), ..Default::default() };
        let degraded = BulkDecoder::with_tiers(&code, tiers);
        let exact = MwpmDecoder::new(&code);
        let g = exact.graph();
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
            if let [a, b] = exact.defects(&shot)[..] {
                let to_boundary = |n| weight_of(g.distance(n, g.boundary()));
                if weight_of(g.pair_distance(a, b)) == to_boundary(a) + to_boundary(b) {
                    // Both matchings are minimum-weight: which one the
                    // matcher takes is its tie-break, not greedy's.
                    continue;
                }
            }
            assert_eq!(degraded.decode(&shot), exact.decode(&shot));
        }
        assert!(degraded.decode_stats().degraded > 0);
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
        let stats = bulk.decode_stats();
        assert_eq!(stats.mask_contexts, 2, "ceiling must hold");
        assert_eq!(stats.mask_evictions, 1, "third intern evicts the LRU context");
        // Re-interning the evicted key rebuilds the same pure function.
        let again = bulk.decode_batch_masked(&batch, &masks[0]);
        assert_eq!(again, first[0]);
        let stats = bulk.decode_stats();
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
        let stats = bulk.decode_stats();
        assert_eq!(stats.mask_contexts, 0);
        assert_eq!(stats.mask_hits, 0);
        // First real mask interns; repeats hit; an equivalent mask (same
        // quantised weights) shares the context.
        let _ = bulk.decode_batch_masked(&batch, &hot);
        let _ = bulk.decode_batch_masked(&batch, &hot);
        let _ = bulk.decode_batch_masked(&batch, &hot.clone());
        let stats = bulk.decode_stats();
        assert_eq!(stats.mask_contexts, 1);
        assert_eq!(stats.mask_hits, 2);
        // A differently-quantised mask opens a second dimension.
        let _ = bulk.decode_batch_masked(&batch, &hot.scaled(0.3));
        let stats = bulk.decode_stats();
        assert_eq!(stats.mask_contexts, 2);
    }
}
