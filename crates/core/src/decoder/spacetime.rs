//! Sliding-window space-time MWPM — the streaming decoder.
//!
//! The bulk decoder ([`BulkDecoder`]) answers the paper's *two-round*
//! experiment: its detector graph has exactly two time layers and every
//! shot is decoded after the fact. A memory stream is different — `R`
//! detector layers arrive one round at a time, and a decoder that waits
//! for the full history holds `O(R)` state and `O(R)` latency at the end
//! of every shot. [`SpaceTimeDecoder`] instead matches on a **sliding
//! window** of `W` layers and retires the stream incrementally.
//!
//! # The commit/discard contract
//!
//! Defects (detection events) enter a replica's pending set as rounds
//! arrive. Whenever the pending window spans `W` layers — and more rounds
//! are still to come — the decoder solves that window with the exact
//! matcher ([`MatchingArena::match_defects`]: subset DP for small defect
//! sets with a unique optimum, blossom otherwise, the same answer either
//! way) and *commits the oldest `C` layers*:
//!
//! * every defect inside the commit region has its match **finalized** —
//!   boundary matches and commit–commit pairs contribute their crossing
//!   parity to the replica's running flip, and a commit–tentative pair
//!   additionally **consumes** its tentative partner (both leave the
//!   pending set);
//! * every other tentative defect's match is **discarded** — the defect
//!   is carried forward verbatim and re-matched in the next window, where
//!   more future context is visible.
//!
//! The final window (once all `R` layers have arrived) commits everything.
//! With `W = C = R` the decoder degenerates to whole-history offline MWPM
//! — that configuration ([`WindowConfig::offline`]) is the reference the
//! window-equivalence suite pins the streaming path against. The commit
//! rule is exact whenever no minimum-weight match needs to pair a
//! commit-region defect with one more than `W − C` layers in its future.
//! Degenerate optima (common at realistic stream densities: two
//! neighbouring defects pairing for the same weight as two boundary
//! matches, with opposite readout parity) are *not* a second caveat —
//! all solves match on the canonically perturbed weights of
//! `super::mwpm::match_weights`, whose translation-invariant tie-break
//! makes the windowed and whole-history decoders select the same
//! optimum. The property suites verify bit-identity both on synthetic
//! streams and on real engine streams at the paper's noise, ±strike.
//!
//! # One window clock per chunk
//!
//! The window schedule depends only on the round count, so a chunk's
//! replicas advance in lockstep through one [`WindowState`]: it holds the
//! clock (window base, next round), the chunk's [`MatchingArena`] and its
//! batched counters once. Each replica keeps only three things: its
//! pending defects as a window-local `u128` key (bit
//! `(round − base) · P + stab`, the window graph's node id), its
//! committed flip and whether it ever saw a defect.
//! [`SpaceTimeDecoder::push_round`] ORs one round's `P` event rows (one
//! bit per replica) into the keys; a solve re-bases each key's survivors
//! by shifting out the committed bits.
//!
//! # One solve pass, one outcome memo per window context
//!
//! Every window solve, mid-stream (`W` layers, commit `C`) or final (the
//! remaining `R − base` layers, commit all), is one grouped pass over
//! the chunk. Its context is a [`SolveContext`], the type the bulk
//! decoder uses too: a window graph ([`DetectorGraph::space_time`],
//! reweighted by the mask active at solve time) plus a memo of outcomes
//! (committed flip and survivors) by defect key, interned per
//! `(layers, commit layers, mask)`. The commit belongs in the key: when
//! `R − base = W`, the final and the mid-stream windows share a graph,
//! but one key commits differently under the two. A masked context
//! reweights the unmasked context's graph ([`DetectorGraph::reweighted`])
//! instead of building the geometry again, and every graph carries its
//! table of perturbed match weights.
//!
//! A pass shifts every key with no defect in the commit region (it
//! commits nothing) while it collects the keys, and answers the rest
//! through the memo-or-solve pass both decoders share
//! ([`SolveContext::answer`]): repeats come from the memo, and each
//! distinct miss is solved once with [`commit_matching`]. The bulk
//! decoder's decode deadline is not used: the window bounds a matching at
//! `W · P` nodes. Contexts are interned in the same [`ContextTable`] type
//! the bulk decoder keys its mask contexts by, so masked window contexts
//! are LRU-capped at [`TierConfig::mask_capacity`] and counted as
//! `decode.mask_hits` the same way, and every memo is capped at
//! [`TierConfig::cache_capacity`].
//!
//! [`BulkDecoder`]: crate::decoder::BulkDecoder
//! [`ContextTable`]: super::contexts::ContextTable
//! [`SolveContext`]: super::memo::SolveContext
//! [`SolveContext::answer`]: super::memo::SolveContext::answer
//! [`MatchingArena`]: radqec_matching::MatchingArena
//! [`MatchingArena::match_defects`]: radqec_matching::MatchingArena::match_defects
//! [`commit_matching`]: super::mwpm::commit_matching

use super::bulk::{LocalStats, StatCells};
use super::contexts::ContextTable;
use super::graph::DetectorGraph;
use super::mask::DecoderMask;
use super::memo::{check_key_width, MemoValue, SolveContext};
use super::mwpm::commit_matching;
use super::{DecoderError, TierConfig};
use crate::codes::MemoryCircuit;
use radqec_matching::MatchingArena;
use radqec_telemetry::MetricsRegistry;
use std::fmt;
use std::sync::Arc;

/// Sliding-window geometry: solve on `window` layers, commit the oldest
/// `commit` (see the module docs for the commit/discard contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Layers per window solve `W`.
    pub window: usize,
    /// Layers committed per mid-stream solve `C` (`1 ≤ C ≤ W`).
    pub commit: usize,
}

/// A `(window, commit)` pair [`WindowConfig::try_new`] rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowConfigError {
    /// `commit` is zero: a solve that retires no layer never advances.
    ZeroCommit,
    /// `commit` exceeds `window`: a solve cannot retire layers it did not
    /// see.
    CommitExceedsWindow {
        /// The requested commit region `C`.
        commit: usize,
        /// The requested window `W`.
        window: usize,
    },
}

impl fmt::Display for WindowConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WindowConfigError::ZeroCommit => {
                write!(f, "commit region must span at least one layer")
            }
            WindowConfigError::CommitExceedsWindow { commit, window } => {
                write!(f, "commit {commit} exceeds window {window}")
            }
        }
    }
}

impl std::error::Error for WindowConfigError {}

impl WindowConfig {
    /// A `(window, commit)` configuration.
    ///
    /// # Panics
    /// Panics unless `1 ≤ commit ≤ window`; [`WindowConfig::try_new`]
    /// returns the reason as a typed error instead.
    pub fn new(window: usize, commit: usize) -> Self {
        Self::try_new(window, commit).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A `(window, commit)` configuration, or the reason it is invalid
    /// unless `1 ≤ commit ≤ window`.
    pub fn try_new(window: usize, commit: usize) -> Result<Self, WindowConfigError> {
        if commit == 0 {
            return Err(WindowConfigError::ZeroCommit);
        }
        if commit > window {
            return Err(WindowConfigError::CommitExceedsWindow { commit, window });
        }
        Ok(WindowConfig { window, commit })
    }

    /// The whole-history configuration (`W = C = detector_rounds`): one
    /// window covering the full stream, committed at once — offline MWPM,
    /// the reference the windowed path is validated against.
    pub fn offline(detector_rounds: usize) -> Self {
        WindowConfig::new(detector_rounds.max(1), detector_rounds.max(1))
    }
}

impl Default for WindowConfig {
    /// `W = 6, C = 2`: six layers of context per solve — past any
    /// plausible time-like error chain at the acceptance codes' noise —
    /// retiring two layers per step.
    fn default() -> Self {
        WindowConfig { window: 6, commit: 2 }
    }
}

/// Outcome of one window solve (memoised per defect pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct WindowOutcome {
    /// Crossing parity of every finalized match.
    pub(super) flip: bool,
    /// Window-node bitmask of tentative defects carried forward.
    pub(super) survivors: u128,
}

/// A direct-table slot packs the flip below the survivors, which are a
/// subset of a key of at most `LUT_MAX_BITS` (16) bits.
impl MemoValue for WindowOutcome {
    fn pack(self) -> u32 {
        debug_assert!(self.survivors >> 16 == 0, "survivors exceed a direct-table key");
        u32::from(self.flip) | (self.survivors as u32) << 1
    }

    fn unpack(bits: u32) -> Self {
        WindowOutcome { flip: bits & 1 == 1, survivors: u128::from(bits >> 1) }
    }
}

/// One replica's share of a chunk's window state.
#[derive(Debug, Clone, Copy, Default)]
struct Replica {
    /// Pending defects, window-local: bit `(round − base) · P + stab`.
    pending: u128,
    /// Crossing parity committed so far.
    flip: bool,
    /// Whether any detection event arrived (trivial-shot accounting).
    saw_defect: bool,
}

/// A chunk of replicas streaming through one window schedule (module
/// docs: one window clock per chunk). Create with
/// [`SpaceTimeDecoder::begin`]; drive with [`SpaceTimeDecoder::push_round`];
/// close with [`SpaceTimeDecoder::finish`].
pub struct WindowState {
    /// First detector round of the current window.
    base: usize,
    /// Next detector round the chunk expects.
    next_round: usize,
    replicas: Vec<Replica>,
    /// The chunk's matching arena and defect-list buffer.
    arena: MatchingArena,
    defects: Vec<usize>,
    /// Batched counters, flushed by `finish`.
    local: LocalStats,
}

impl WindowState {
    /// First detector round of the current window.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Defects `replica` currently carries (not yet committed).
    pub fn pending_defects(&self, replica: usize) -> usize {
        self.replicas[replica].pending.count_ones() as usize
    }
}

/// The sliding-window space-time decoder (see module docs).
pub struct SpaceTimeDecoder {
    data_qubits: Vec<u32>,
    /// Primary-stabilizer supports (also the stream sink's terminal-layer
    /// projection).
    pub(super) supports: Vec<Vec<u32>>,
    /// Logical readout chain.
    pub(super) readout_support: Vec<u32>,
    primary_count: usize,
    detector_rounds: usize,
    cfg: WindowConfig,
    /// Entry cap of each context's memo ([`TierConfig::cache_capacity`]).
    cache_capacity: usize,
    /// Solve contexts keyed by `((window layers, commit layers), mask)`.
    contexts: ContextTable<(usize, usize), SolveContext<WindowOutcome>>,
    stats: StatCells,
}

impl SpaceTimeDecoder {
    /// Build a decoder for a readout-terminated memory stream: `rounds`
    /// syndrome layers plus the terminal detector layer the projected
    /// data readout induces (`detector_rounds = rounds + 1`), or the
    /// [`DecoderError`] saying why it cannot: no final data readout, an
    /// invalid window, `tiers` failing [`TierConfig::validate`], or a
    /// window wider than the 128-bit defect key.
    ///
    /// `tiers` caps each context's memo at [`TierConfig::cache_capacity`]
    /// and the masked contexts at [`TierConfig::mask_capacity`]; window
    /// solves ignore the decode deadline (module docs).
    pub fn try_for_memory(
        memory: &MemoryCircuit,
        cfg: WindowConfig,
        tiers: TierConfig,
        metrics: &MetricsRegistry,
    ) -> Result<Self, DecoderError> {
        let readout = memory.final_readout.as_ref().ok_or(DecoderError::NoFinalReadout)?;
        WindowConfig::try_new(cfg.window, cfg.commit).map_err(DecoderError::Window)?;
        tiers.validate()?;
        let supports: Vec<Vec<u32>> =
            memory.primary_stabilizers().iter().map(|s| s.support.clone()).collect();
        let primary_count = supports.len();
        let detector_rounds = memory.rounds + 1;
        check_key_width(cfg.window.min(detector_rounds) * primary_count)?;
        let stats = StatCells::new(metrics);
        Ok(SpaceTimeDecoder {
            data_qubits: (0..memory.n_data).collect(),
            supports,
            readout_support: readout.support.clone(),
            primary_count,
            detector_rounds,
            cfg,
            cache_capacity: tiers.cache_capacity,
            contexts: ContextTable::new(tiers.mask_capacity, Arc::clone(&stats.mask_hits)),
            stats,
        })
    }

    /// Primary stabilizer count `P` (defects per detector layer).
    pub fn primary_count(&self) -> usize {
        self.primary_count
    }

    /// Detector layers per replica (`R`).
    pub fn detector_rounds(&self) -> usize {
        self.detector_rounds
    }

    /// Fresh streaming state for a chunk of `replicas` replicas.
    pub fn begin(&self, replicas: usize) -> WindowState {
        WindowState {
            base: 0,
            next_round: 0,
            replicas: vec![Replica::default(); replicas],
            arena: MatchingArena::default(),
            defects: Vec::new(),
            local: LocalStats::default(),
        }
    }

    /// Push one detector round for the whole chunk: `row(i)` is primary
    /// stabilizer `i`'s event row, bit `shot` set when replica `shot`
    /// fired it. Solves (and commits) a window when one fills and more
    /// rounds are still due; the mask active *at solve time* reweights
    /// that window's graph.
    ///
    /// # Panics
    /// Panics when more rounds arrive than the decoder was built for.
    pub fn push_round<'a>(
        &self,
        state: &mut WindowState,
        row: impl Fn(usize) -> &'a [u64],
        mask: Option<&DecoderMask>,
    ) {
        let round = state.next_round;
        assert!(round < self.detector_rounds, "stream already has all {round} rounds");
        let layer = (round - state.base) * self.primary_count;
        for stab in 0..self.primary_count {
            let bit = 1u128 << (layer + stab);
            for (w, &word) in row(stab).iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let shot = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if let Some(rep) = state.replicas.get_mut(shot) {
                        rep.pending |= bit;
                        rep.saw_defect = true;
                    }
                }
            }
        }
        state.next_round += 1;
        if state.next_round == state.base + self.cfg.window
            && state.base + self.cfg.window < self.detector_rounds
        {
            state.base += self.cfg.commit;
            self.solve(state, self.cfg.window, self.cfg.commit, mask);
        }
    }

    /// Close the stream: commit every replica's final window in full,
    /// flush the chunk's counters into the decoder's metrics, and return
    /// each replica's accumulated flip (XOR against its raw logical
    /// readout to correct it).
    ///
    /// # Panics
    /// Panics unless exactly `detector_rounds` rounds were pushed.
    pub fn finish(&self, mut state: WindowState, mask: Option<&DecoderMask>) -> Vec<bool> {
        assert_eq!(state.next_round, self.detector_rounds, "stream is missing rounds");
        let layers = self.detector_rounds - state.base;
        self.solve(&mut state, layers, layers, mask);
        let WindowState { replicas, mut local, .. } = state;
        local.shots += replicas.len() as u64;
        local.trivial += replicas.iter().filter(|rep| !rep.saw_defect).count() as u64;
        self.stats.flush(local);
        replicas.iter().map(|rep| rep.flip).collect()
    }

    /// Decode one replica's full event history in one call (tests and the
    /// offline reference): `rounds[r]` lists the primary stabilizers that
    /// fired at detector round `r`.
    pub fn decode_history(&self, rounds: &[Vec<usize>], mask: Option<&DecoderMask>) -> bool {
        assert_eq!(rounds.len(), self.detector_rounds, "history has wrong round count");
        let mut state = self.begin(1);
        for events in rounds {
            let rows: Vec<_> =
                (0..self.primary_count).map(|i| [u64::from(events.contains(&i))]).collect();
            self.push_round(&mut state, |i| &rows[i], mask);
        }
        self.finish(state, mask)[0]
    }

    /// Solve every replica's window of `layers` layers and commit its
    /// oldest `commit` layers (module docs: the commit/discard contract,
    /// and one solve pass), both counted from the window's first layer,
    /// key bit 0. An empty chunk commits nothing and fetches no context.
    ///
    /// The key collection of the memo-or-solve pass visits each replica
    /// once and shifts a key with no defect in the commit region on the
    /// spot, so only keys that commit something are probed or solved. A
    /// solve feeds the matcher the key's defects in ascending node order.
    fn solve(
        &self,
        state: &mut WindowState,
        layers: usize,
        commit: usize,
        mask: Option<&DecoderMask>,
    ) {
        if state.replicas.iter().all(|rep| rep.pending == 0) {
            return;
        }
        // `layers · P ≤ 128` (`try_for_memory`), so the commit region is
        // 1 to 128 key bits; a full-key commit leaves no survivor.
        let commit_nodes = commit * self.primary_count;
        let commit_region = u128::MAX >> (128 - commit_nodes);
        let apply = |rep: &mut Replica, outcome: WindowOutcome| {
            rep.flip ^= outcome.flip;
            rep.pending = outcome.survivors.checked_shr(commit_nodes as u32).unwrap_or(0);
        };
        let key_of = |_: usize, rep: &mut Replica| {
            if rep.pending & commit_region == 0 {
                apply(rep, WindowOutcome { flip: false, survivors: rep.pending });
                return None;
            }
            Some(rep.pending)
        };
        let wctx = self.context(layers, commit, mask);
        let WindowState { replicas, arena, defects, local, .. } = state;
        let solve = |key: u128| {
            defects.clear();
            let mut bits = key;
            while bits != 0 {
                defects.push(bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
            let (flip, survivors) = commit_matching(&wctx.graph, defects, arena, commit_nodes);
            (WindowOutcome { flip, survivors }, true)
        };
        wctx.answer(replicas, key_of, &apply, local, solve);
    }

    /// Intern (or fetch) the solve context of `(layers, commit, mask)`.
    /// Unmasked contexts persist for the decoder's lifetime (there are at
    /// most two live pairs: `(W, C)` and the final remainder); masked
    /// contexts are LRU-evicted past [`TierConfig::mask_capacity`]. A
    /// masked context reweights the graph of the unmasked context of the
    /// same pair (interned first if need be — [`ContextTable`] builds
    /// outside its lock, so the nested intern is safe) instead of
    /// rebuilding the window geometry.
    fn context(
        &self,
        layers: usize,
        commit: usize,
        mask: Option<&DecoderMask>,
    ) -> Arc<SolveContext<WindowOutcome>> {
        let mask = mask.filter(|m| !m.is_noop());
        self.contexts.intern((layers, commit), mask.map(DecoderMask::weight_key), || {
            let graph = match mask {
                Some(m) => m.reweight(&self.context(layers, commit, None).graph),
                None => DetectorGraph::space_time(
                    &self.data_qubits,
                    &self.supports,
                    &self.readout_support,
                    layers,
                ),
            };
            SolveContext::new(graph, self.cache_capacity)
        })
    }

    /// Live solve contexts `(unmasked, masked)` — test/telemetry hook.
    pub fn context_counts(&self) -> (usize, usize) {
        self.contexts.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{RepetitionCode, XxzzCode};
    use radqec_telemetry::names;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn rep5_decoder(
        rounds: usize,
        cfg: WindowConfig,
        metrics: &MetricsRegistry,
    ) -> SpaceTimeDecoder {
        let memory = RepetitionCode::bit_flip(5).build_memory_readout(rounds);
        SpaceTimeDecoder::try_for_memory(&memory, cfg, TierConfig::default(), metrics).unwrap()
    }

    /// A seeded random event history: each (round, primary stab) plane
    /// fires independently with probability `density`.
    fn random_history(
        detector_rounds: usize,
        primary: usize,
        density: f64,
        seed: u64,
    ) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..detector_rounds)
            .map(|_| (0..primary).filter(|_| rng.gen_bool(density)).collect())
            .collect()
    }

    #[test]
    fn window_config_rejects_bad_geometry_with_typed_errors() {
        assert_eq!(WindowConfig::try_new(4, 0), Err(WindowConfigError::ZeroCommit));
        let err = WindowConfig::try_new(4, 5).unwrap_err();
        assert_eq!(err, WindowConfigError::CommitExceedsWindow { commit: 5, window: 4 });
        assert_eq!(err.to_string(), "commit 5 exceeds window 4");
        assert_eq!(WindowConfig::try_new(4, 4), Ok(WindowConfig { window: 4, commit: 4 }));
        assert_eq!(WindowConfig::try_new(6, 2), Ok(WindowConfig::new(6, 2)));
    }

    #[test]
    #[should_panic(expected = "commit region must span at least one layer")]
    fn window_config_new_panics_on_zero_commit() {
        WindowConfig::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "commit 5 exceeds window 4")]
    fn window_config_new_panics_when_commit_exceeds_window() {
        WindowConfig::new(4, 5);
    }

    #[test]
    fn try_for_memory_rejects_unkeyable_streams_with_typed_errors() {
        let (metrics, tiers) = (MetricsRegistry::new(), TierConfig::default());
        let build = |memory, cfg| SpaceTimeDecoder::try_for_memory(memory, cfg, tiers, &metrics);
        // xxzz-(7,7): P = 24, so the default W = 6 needs 144 key bits.
        let d7 = XxzzCode::new(7, 7).build_memory_readout(9);
        let err = build(&d7, WindowConfig::default()).err();
        assert_eq!(err, Some(DecoderError::KeyTooWide { bits: 144 }));
        assert_eq!(build(&d7, WindowConfig::new(5, 2)).unwrap().primary_count(), 24);
        let bare = RepetitionCode::bit_flip(5).build_memory(9);
        let err = build(&bare, WindowConfig::new(5, 2)).err().unwrap();
        assert_eq!(err, DecoderError::NoFinalReadout);
        assert!(err.to_string().contains("readout-terminated"));
        let rep5 = RepetitionCode::bit_flip(5).build_memory_readout(9);
        for (zero, field, reason) in [
            (
                TierConfig { mask_capacity: 0, ..tiers },
                "mask_capacity",
                DecoderError::ZeroMaskCapacity,
            ),
            (
                TierConfig { cache_capacity: 0, ..tiers },
                "cache_capacity",
                DecoderError::ZeroCacheCapacity,
            ),
        ] {
            let err =
                SpaceTimeDecoder::try_for_memory(&rep5, WindowConfig::default(), zero, &metrics)
                    .err()
                    .unwrap();
            assert_eq!(err, reason);
            assert!(err.to_string().contains(field));
        }
    }

    #[test]
    fn empty_history_is_trivial_and_counted() {
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(9, WindowConfig::new(4, 2), &metrics);
        let history = vec![Vec::new(); dec.detector_rounds()];
        assert!(!dec.decode_history(&history, None));
        assert_eq!(metrics.counter(names::DECODE_SHOTS).get(), 1);
        assert_eq!(metrics.counter(names::DECODE_TRIVIAL).get(), 1);
        assert_eq!(metrics.counter(names::DECODE_MATCHINGS).get(), 0);
    }

    #[test]
    fn single_defect_takes_its_boundary_parity() {
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(9, WindowConfig::new(4, 2), &metrics);
        let graph = DetectorGraph::space_time(
            &[0, 1, 2, 3, 4],
            &[vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]],
            &[0],
            dec.detector_rounds(),
        );
        for stab in 0..4 {
            let mut history = vec![Vec::new(); dec.detector_rounds()];
            history[5] = vec![stab];
            let flip = dec.decode_history(&history, None);
            let want = graph.crossing_parity(graph.node(stab, 5), graph.boundary());
            assert_eq!(flip, want, "stab {stab}");
            // Stab 0's cheapest boundary exit crosses readout qubit 0.
            if stab == 0 {
                assert!(flip);
            }
        }
    }

    #[test]
    fn straddling_pair_is_committed_exactly_once() {
        // Adjacent-round same-stab defects straddling the first commit
        // boundary (commit region = rounds [0, 2), partner at round 2):
        // the time-edge pairing carries no readout crossing, so the flip
        // must be false — a double-count would also show as a mismatch
        // against the offline reference.
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(9, WindowConfig::new(4, 2), &metrics);
        let offline = rep5_decoder(9, WindowConfig::offline(10), &metrics);
        let mut history = vec![Vec::new(); dec.detector_rounds()];
        history[1] = vec![2];
        history[2] = vec![2];
        let windowed = dec.decode_history(&history, None);
        assert!(!windowed, "time-like pair crosses no readout qubit");
        assert_eq!(windowed, offline.decode_history(&history, None));
    }

    #[test]
    fn survivors_are_carried_forward_not_dropped() {
        // A defect just past the commit region survives the first window
        // solve and must still be matched later (to the boundary), not
        // silently dropped with its parity lost.
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(9, WindowConfig::new(4, 2), &metrics);
        let mut state = dec.begin(1);
        let (fired, quiet) = ([[1u64], [0], [0], [0]], [[0u64]; 4]);
        // Rounds 0..3 fill the first window; the lone defect at round 3
        // (stab 0) is tentative when the window solves after round 3.
        for r in 0..4 {
            let events = if r == 3 { &fired } else { &quiet };
            dec.push_round(&mut state, |i| &events[i], None);
        }
        assert_eq!(state.pending_defects(0), 1, "tentative defect must survive the commit");
        for _ in 4..dec.detector_rounds() {
            dec.push_round(&mut state, |i| &quiet[i], None);
        }
        let flip = dec.finish(state, None)[0];
        // Stab 0 at any round exits through readout qubit 0: flip = true.
        assert!(flip, "survivor's boundary parity must land in the final flip");
        // The final window is solved by the matcher.
        assert_eq!(metrics.counter(names::DECODE_MATCHINGS).get(), 1);
    }

    #[test]
    fn window_clock_follows_the_commit_schedule() {
        // W = 6, C = 2 over 11 detector layers: the first window fills at
        // layer 5, each later solve two layers on, and the terminal push
        // (layer 10) solves nothing — the final window starts at layer 6.
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(10, WindowConfig::new(6, 2), &metrics);
        let mut state = dec.begin(3);
        let quiet = [0u64; 1];
        let bases: Vec<usize> = (0..dec.detector_rounds())
            .map(|_| {
                dec.push_round(&mut state, |_| &quiet, None);
                state.base()
            })
            .collect();
        assert_eq!(bases, [0, 0, 0, 0, 0, 2, 2, 4, 4, 6, 6]);
        assert_eq!(dec.finish(state, None), [false; 3]);
    }

    #[test]
    fn windowed_matches_offline_on_random_rep5_streams() {
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(11, WindowConfig::new(6, 2), &metrics);
        let offline = rep5_decoder(11, WindowConfig::offline(12), &metrics);
        for seed in 0..200 {
            let history = random_history(12, 4, 0.03, 0xA11CE + seed);
            let w = dec.decode_history(&history, None);
            let o = offline.decode_history(&history, None);
            assert_eq!(w, o, "seed {seed}: windowed vs whole-history diverged");
        }
    }

    #[test]
    fn windowed_matches_offline_on_real_streamed_events() {
        // The random-history suites above exercise synthetic defect
        // patterns; this one replays *real* engine streams — intrinsic
        // noise with and without a central strike, readout-terminated —
        // through the windowed and whole-history decoders and demands
        // bit-identical flips shot for shot at a fixed seed.
        use crate::codes::CodeSpec;
        use crate::streaming::{StreamEngine, StreamFault};
        use radqec_detect::EventStream;
        use radqec_noise::{NoiseSpec, RadiationModel};

        let rounds = 10;
        let noise = NoiseSpec::paper_default();
        let metrics = MetricsRegistry::new();
        // Fixed seeds where no minimum-weight match needs more future
        // context than `W - C` layers (dense strike cores can exceed any
        // finite horizon -- the documented window caveat; at these seeds
        // the horizon suffices and bit-identity is exact).
        for (seed, code) in [3u64, 4, 5, 6].into_iter().flat_map(|s| {
            [
                CodeSpec::from(RepetitionCode::bit_flip(3)),
                CodeSpec::from(RepetitionCode::bit_flip(5)),
                CodeSpec::from(XxzzCode::new(3, 3)),
            ]
            .map(|c| (s, c))
        }) {
            let engine = StreamEngine::builder(code, rounds)
                .shots(64)
                .seed(seed)
                .native()
                .final_readout()
                .build();
            let memory = engine.memory();
            let primary = memory.primary_stabilizers().len();
            let windowed = SpaceTimeDecoder::try_for_memory(
                memory,
                WindowConfig::default(),
                TierConfig::default(),
                &metrics,
            )
            .unwrap();
            let offline = SpaceTimeDecoder::try_for_memory(
                memory,
                WindowConfig::offline(rounds + 1),
                TierConfig::default(),
                &metrics,
            )
            .unwrap();
            let root = engine.transpiled().initial_layout.physical(memory.n_data / 2);
            let strike = StreamFault::Strike { model: RadiationModel::default(), root };
            for fault in [StreamFault::None, strike] {
                for batch in engine.stream_batches(&fault, &noise) {
                    let events = EventStream::extract(&batch, engine.stream_spec());
                    let bit =
                        |cbit: u32, shot: usize| batch.row(cbit)[shot / 64] >> (shot % 64) & 1;
                    for shot in 0..events.shots() {
                        // Detector layers 0..rounds come straight from
                        // the extracted event stream; the terminal layer
                        // is the data readout's projected stabilizer
                        // parity XOR the last measured syndrome.
                        let mut history: Vec<Vec<usize>> = (0..rounds)
                            .map(|r| (0..primary).filter(|&i| events.event(r, i, shot)).collect())
                            .collect();
                        history.push(
                            (0..primary)
                                .filter(|&i| {
                                    let s = &memory.primary_stabilizers()[i];
                                    let mut parity = bit(memory.cbit(rounds - 1, i), shot);
                                    for &d in &s.support {
                                        parity ^= bit(memory.data_cbit(d), shot);
                                    }
                                    parity == 1
                                })
                                .collect(),
                        );
                        let w = windowed.decode_history(&history, None);
                        let o = offline.decode_history(&history, None);
                        assert_eq!(
                            w, o,
                            "{}, {fault:?}, shot {shot}: windowed vs offline diverged",
                            memory.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn commit_choices_are_invariant_on_rep3_and_xxzz33() {
        let metrics = MetricsRegistry::new();
        for (memory, primary) in [
            (RepetitionCode::bit_flip(3).build_memory_readout(9), 2),
            (XxzzCode::new(3, 3).build_memory_readout(9), 4),
        ] {
            let offline = SpaceTimeDecoder::try_for_memory(
                &memory,
                WindowConfig::offline(10),
                TierConfig::default(),
                &metrics,
            )
            .unwrap();
            let configs =
                [WindowConfig::new(4, 1), WindowConfig::new(6, 2), WindowConfig::new(6, 3)];
            let decoders: Vec<_> = configs
                .iter()
                .map(|&cfg| {
                    SpaceTimeDecoder::try_for_memory(&memory, cfg, TierConfig::default(), &metrics)
                        .unwrap()
                })
                .collect();
            for seed in 0..120 {
                let history = random_history(10, primary, 0.03, 0xBEEF + seed);
                let want = offline.decode_history(&history, None);
                for (dec, cfg) in decoders.iter().zip(&configs) {
                    let got = dec.decode_history(&history, None);
                    assert_eq!(got, want, "{} seed {seed} cfg {cfg:?}", memory.name);
                }
            }
        }
    }

    #[test]
    fn warm_windows_hit_the_outcome_memo() {
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(11, WindowConfig::new(6, 2), &metrics);
        let history = random_history(12, 4, 0.1, 77);
        let cold = dec.decode_history(&history, None);
        let cold_matchings = metrics.counter(names::DECODE_MATCHINGS).get();
        let warm = dec.decode_history(&history, None);
        assert_eq!(cold, warm);
        assert_eq!(
            metrics.counter(names::DECODE_MATCHINGS).get(),
            cold_matchings,
            "replaying an identical stream must answer every window from the memo"
        );
        assert!(metrics.counter(names::DECODE_CACHE_HITS).get() > 0);
    }

    #[test]
    fn a_masked_chunk_of_repeated_replicas_solves_each_distinct_key_once() {
        for (memory, mask) in [
            (
                RepetitionCode::bit_flip(5).build_memory_readout(10),
                DecoderMask::from_probs(vec![1.0, 0.3, 0.0, 0.05, 0.7], vec![0.0, 0.9, 0.2, 0.0]),
            ),
            (
                XxzzCode::new(3, 3).build_memory_readout(10),
                DecoderMask::from_probs(
                    (0..9).map(|d| [0.0, 0.4, 1.0][d % 3]).collect(),
                    vec![0.6, 0.0, 0.0, 0.15],
                ),
            ),
        ] {
            let metrics = MetricsRegistry::new();
            let cfg = WindowConfig::new(6, 2);
            let dec =
                SpaceTimeDecoder::try_for_memory(&memory, cfg, TierConfig::default(), &metrics)
                    .unwrap();
            let (rounds, p) = (dec.detector_rounds(), dec.primary_count());
            // Seven distinct histories (one empty), dealt to 70 replicas so
            // that every history repeats, never in adjacent replicas.
            let mut histories: Vec<_> =
                (0..6).map(|s| random_history(rounds, p, 0.15, 0x6A0 + s)).collect();
            histories.push(vec![Vec::new(); rounds]);
            let of_replica: Vec<usize> = (0..70).map(|i| (i * 3) % histories.len()).collect();
            let mut state = dec.begin(of_replica.len());
            // The `(layers, commit, key)` solves the chunk needs: a
            // mid-stream key with a commit-region defect, or any non-zero
            // final key.
            let mut solves = std::collections::BTreeSet::new();
            // Round `r`'s event rows, one bit per replica.
            let rows_of = |r: usize| -> Vec<Vec<u64>> {
                (0..p)
                    .map(|i| {
                        let mut row = vec![0u64; of_replica.len().div_ceil(64)];
                        for (shot, &h) in of_replica.iter().enumerate() {
                            if histories[h][r].contains(&i) {
                                row[shot / 64] |= 1 << (shot % 64);
                            }
                        }
                        row
                    })
                    .collect()
            };
            for r in 0..rounds {
                let rows = rows_of(r);
                // The keys the solve this push triggers (if any) sees.
                let layer = (r - state.base()) * p;
                if r + 1 == state.base() + cfg.window && r + 1 < rounds {
                    let commit_region = (1u128 << (cfg.commit * p)) - 1;
                    for shot in 0..of_replica.len() {
                        let key = (0..p).fold(state.replicas[shot].pending, |key, i| {
                            key | u128::from(rows[i][shot / 64] >> (shot % 64) & 1) << (layer + i)
                        });
                        if key & commit_region != 0 {
                            solves.insert((cfg.window, cfg.commit, key));
                        }
                    }
                }
                dec.push_round(&mut state, |i| &rows[i], Some(&mask));
            }
            let last = rounds - state.base();
            for rep in state.replicas.iter().filter(|rep| rep.pending != 0) {
                solves.insert((last, last, rep.pending));
            }
            let flips = dec.finish(state, Some(&mask));
            let matchings = metrics.counter(names::DECODE_MATCHINGS).get() as usize;
            assert_eq!(
                matchings,
                solves.len(),
                "{}: one matching per distinct (context, key) solve",
                memory.name
            );
            let reference =
                SpaceTimeDecoder::try_for_memory(&memory, cfg, TierConfig::default(), &metrics)
                    .unwrap();
            for (shot, (&flip, &h)) in flips.iter().zip(&of_replica).enumerate() {
                let want = reference.decode_history(&histories[h], Some(&mask));
                assert_eq!(flip, want, "{}: replica {shot} (history {h})", memory.name);
            }
        }
    }

    #[test]
    fn masked_windows_reweight_and_masked_contexts_are_capped() {
        let metrics = MetricsRegistry::new();
        let memory = RepetitionCode::bit_flip(5).build_memory_readout(9);
        let tiers = TierConfig { mask_capacity: 2, ..TierConfig::default() };
        let dec =
            SpaceTimeDecoder::try_for_memory(&memory, WindowConfig::new(4, 2), tiers, &metrics)
                .unwrap();
        let history = random_history(10, 4, 0.1, 5);
        // Three distinct quantised masks plus a no-op: masked contexts
        // stay within the cap, the no-op shares the unmasked context.
        for p in [0.9, 0.6, 0.3, 0.0001] {
            let mask = DecoderMask::from_probs(vec![p; 5], vec![p; 4]);
            dec.decode_history(&history, Some(&mask));
        }
        let (unmasked, masked) = dec.context_counts();
        assert!(masked <= 2, "mask contexts must be LRU-capped, got {masked}");
        assert!(unmasked >= 1);
        // A saturating mask on the struck qubit changes the decode of a
        // two-defect pattern whose tie the weights break differently.
        let offline = SpaceTimeDecoder::try_for_memory(
            &memory,
            WindowConfig::offline(10),
            TierConfig::default(),
            &metrics,
        )
        .unwrap();
        let hot = DecoderMask::from_probs(vec![1.0, 0.0, 0.0, 0.0, 0.0], vec![0.0; 4]);
        let mut diverged = false;
        for seed in 0..80 {
            let history = random_history(10, 4, 0.12, 0xD00D + seed);
            let plain = offline.decode_history(&history, None);
            let masked = offline.decode_history(&history, Some(&hot));
            diverged |= plain != masked;
        }
        assert!(diverged, "a saturating mask must change at least one decode");
    }

    #[test]
    #[should_panic(expected = "missing rounds")]
    fn finish_requires_every_round() {
        let metrics = MetricsRegistry::new();
        let dec = rep5_decoder(9, WindowConfig::new(4, 2), &metrics);
        let mut state = dec.begin(1);
        let fired = [[1u64], [0], [0], [0]];
        dec.push_round(&mut state, |i| &fired[i], None);
        dec.finish(state, None);
    }
}
