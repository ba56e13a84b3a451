//! Multi-round syndrome streaming: the engine that feeds online
//! radiation-event detection (`radqec-detect`).
//!
//! Where [`InjectionEngine`](crate::injection::InjectionEngine) answers the
//! paper's *offline* question — the logical error rate of the two-round
//! experiment at temporal sample `t_k`, shots split across samples — the
//! [`StreamEngine`] runs `R` stabilisation rounds *per shot* with the
//! radiation transient decaying across rounds **within** the shot: round
//! `r` maps to transient time `t = r / (R−1)` and gets the fault
//! probabilities `F(t, d) = T(t)·S(d)` (the same `transient_decay`
//! factorisation as the offline model, just sampled along the round axis).
//!
//! Streams also model **multiple overlapping strikes**
//! ([`StreamFault::MultiStrike`]): each [`StrikeEvent`] carries its own
//! impact point and onset round, runs its transient on its own clock from
//! that onset, and the per-qubit reset probabilities combine as
//! independent sources (`1 − Π(1 − p_i)`) before the per-round
//! [`ActiveFault`] ladder is handed to the segmented executors — both
//! samplers consume the timeline unchanged, so the tableau oracle
//! cross-validates multi-strike streams exactly like single ones
//! (`tests/multi_strike_equivalence.rs`).
//!
//! Both shot samplers carry over: the **frame batch** replays the memory
//! circuit as bit-packed Pauli frames against one extended
//! [`ReferenceTrace`], one round's ops at a time under that round's fault
//! ([`run_noisy_ops_segmented`]), with the offline sampler's exactness
//! properties; the **tableau** oracle replays each shot through
//! [`TableauSampler`](crate::campaign::TableauSampler), exact everywhere
//! (`tests/round_stream_equivalence.rs` checks the frame path against it).
//!
//! ## The campaign core
//!
//! The engine sits on the campaign core ([`crate::campaign`]) it shares
//! with the offline engine: the builder knobs, the host step (placement,
//! transpilation, tableau sampler, per-seed reference traces), the chunk
//! grid and the pool of [`StreamWorkspace`]s, whose recycled buffers
//! replay a fresh buffer's exact draws (`tests/golden_stream.rs`). It
//! keeps what is its own: the memory circuit, the round markers, the
//! [`StreamSpec`], the supervised chunk driver and a process-wide cache
//! of `(code, rounds, host)` contexts, so every point of a detection
//! sweep, the null calibration and the throughput benches reuse one
//! transpile and one reference trace.
//!
//! ## Decode-as-you-stream
//!
//! One chunk generator hands out each syndrome round the moment its ops
//! have executed (the frame sampler advances the executor one round at a
//! time; the tableau oracle replays the chunk's shots, then hands out its
//! rounds), and one pool of self-scheduling workers drives it over the
//! chunk grid (a work-stealing queue: idle workers pull the next
//! unclaimed chunk), overlapping generation of round `r+1` with the
//! consumer's processing of round `r`. Every public driver is a consumer
//! of that one path: [`StreamEngine::for_each_round`] and
//! [`StreamEngine::for_each_round_supervised`] slice each round into a
//! [`RoundSlice`], and [`StreamEngine::stream_batches`] collects each
//! chunk's finished record — on either sampler.
//!
//! ## Supervision
//!
//! Every chunk runs under chunk-level fault isolation: a panic anywhere
//! in one chunk's generation or sink is caught, the worker's workspace is
//! quarantined (dropped, never pooled — a poisoned buffer cannot leak
//! into later chunks), and the chunk is retried once on a fresh
//! workspace. A second failure becomes a typed [`ChunkFailure`] in the
//! [`CampaignReport`] of [`StreamEngine::for_each_round_supervised`] —
//! the driver endurance campaigns ([`crate::experiments::fleet`]) run on
//! — and a panic carrying that failure's message from the drivers that
//! return no report. Chunk generation is deterministic per chunk index,
//! so a clean retry is bit-identical to a never-failed run; the `skip`
//! filter lets checkpointed campaigns replay exactly the missing chunks.
//!
//! The engine hands detection consumers a [`StreamSpec`] describing the
//! classical layout plus the *physical* ancilla position per (round,
//! stabilizer) — recovered from the transpiled circuit's measure ops, so
//! routing SWAPs that migrate an ancilla are tracked round by round.

use crate::campaign::{
    Campaign, EngineBuildError, EngineBuilder, Host, HostKind, Placement, SamplerKind,
};
use crate::codes::{CodeSpec, MemoryCircuit};
use crate::injection::mix_seed;
use radqec_circuit::{Gate, ShotBatch};
use radqec_detect::StreamSpec;
use radqec_noise::{
    run_noisy_ops_segmented, temporal_decay, ActiveFault, NoiseSpec, RadiationModel,
    StreamWorkspace,
};
use radqec_stabilizer::ReferenceTrace;
use radqec_telemetry::{
    names, Counter, FlightEvent, FlightRecorder, Histogram, MetricsRegistry, MetricsSnapshot,
    SpanTimer,
};
use radqec_topology::Topology;
use radqec_transpiler::Transpiled;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Fault injected into a streamed campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFault {
    /// Intrinsic noise only — the null streams of a ROC sweep.
    None,
    /// A radiation strike at physical qubit `root` at the start of round 0,
    /// decaying across rounds with the model's `γ` (`model.num_samples` is
    /// ignored: the round count plays that role).
    Strike {
        /// Fault model parameters (γ, spatial constant).
        model: RadiationModel,
        /// Struck physical qubit.
        root: u32,
    },
    /// Two or more radiation strikes with independent impact points and
    /// onset rounds, overlapping freely in time — each contributes its own
    /// `F(t, d)` ladder from its onset on, and the per-qubit reset
    /// probabilities combine as independent sources
    /// (`1 − Π(1 − p_i)`). A single strike at onset 0 is bit-identical to
    /// [`StreamFault::Strike`].
    MultiStrike(MultiStrike),
}

/// One strike of a [`MultiStrike`] timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrikeEvent {
    /// Fault model parameters (γ, spatial constant; `num_samples` is
    /// ignored — the round count plays that role).
    pub model: RadiationModel,
    /// Struck physical qubit.
    pub root: u32,
    /// Round at which the strike lands (its transient starts there and
    /// decays over the remaining rounds at the model's per-round rate).
    pub onset_round: usize,
    /// Rounds over which the transient's unit time interval is stretched:
    /// round `onset_round + k` sees `T(k / decay_rounds)`. `None` uses the
    /// whole-stream clock (`R − 1` rounds — the legacy behaviour, where a
    /// strike's decay always spans the full stream). Fleet campaigns with
    /// thousands of rounds set a small `Some(n)` so a strike flares and
    /// dies in `n` rounds instead of smearing across hours of simulated
    /// uptime; the exponential keeps decaying past `t = 1`, so rounds
    /// beyond the window carry the (negligible) tail, not a cutoff.
    pub decay_rounds: Option<usize>,
}

/// A validated multi-strike timeline (see [`MultiStrike::try_new`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStrike {
    strikes: Vec<StrikeEvent>,
}

impl MultiStrike {
    /// Validate and build a multi-strike timeline: at least one strike,
    /// onsets in non-decreasing order (overlap is the point — two strikes
    /// may share an onset — but an out-of-order list is almost certainly a
    /// configuration slip, so it is rejected with a typed error rather
    /// than silently reordered). Roots and onsets are range-checked
    /// against the engine at stream time
    /// ([`StreamEngine::try_round_faults`]), where the topology and round
    /// count are known.
    pub fn try_new(strikes: Vec<StrikeEvent>) -> Result<Self, MultiStrikeError> {
        if strikes.is_empty() {
            return Err(MultiStrikeError::Empty);
        }
        if let Some(index) = strikes.iter().position(|s| s.decay_rounds == Some(0)) {
            return Err(MultiStrikeError::ZeroDecayRounds { index });
        }
        for (i, w) in strikes.windows(2).enumerate() {
            if w[1].onset_round < w[0].onset_round {
                return Err(MultiStrikeError::OnsetsOutOfOrder {
                    index: i + 1,
                    onset: w[1].onset_round,
                    previous: w[0].onset_round,
                });
            }
        }
        Ok(MultiStrike { strikes })
    }

    /// The validated strikes, in onset order.
    pub fn strikes(&self) -> &[StrikeEvent] {
        &self.strikes
    }
}

/// Validation failure of a [`MultiStrike`] timeline (see
/// [`MultiStrike::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiStrikeError {
    /// No strikes — use [`StreamFault::None`] for null streams.
    Empty,
    /// Strike `index`'s onset precedes its predecessor's.
    OnsetsOutOfOrder {
        /// Position of the offending strike.
        index: usize,
        /// Its onset round.
        onset: usize,
        /// The preceding strike's onset round.
        previous: usize,
    },
    /// Strike `index` has `decay_rounds: Some(0)` — the transient clock
    /// needs at least one round to tick over.
    ZeroDecayRounds {
        /// Position of the offending strike.
        index: usize,
    },
}

impl std::fmt::Display for MultiStrikeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiStrikeError::Empty => write!(f, "multi-strike timeline needs at least one strike"),
            MultiStrikeError::OnsetsOutOfOrder { index, onset, previous } => write!(
                f,
                "strike {index} onset {onset} precedes the previous strike's onset {previous}"
            ),
            MultiStrikeError::ZeroDecayRounds { index } => {
                write!(f, "strike {index} has zero decay rounds; use at least 1")
            }
        }
    }
}

impl std::error::Error for MultiStrikeError {}

/// Failure to resolve a [`StreamFault`] into per-round fault ladders (see
/// [`StreamEngine::try_round_faults`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamFaultError {
    /// A strike root outside the engine's topology.
    BadRoot(radqec_noise::StrikeError),
    /// A strike onset at or beyond the stream's round count.
    OnsetBeyondRounds {
        /// The offending onset round.
        onset: usize,
        /// Rounds per shot of this engine.
        rounds: usize,
    },
}

impl std::fmt::Display for StreamFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamFaultError::BadRoot(e) => write!(f, "{e}"),
            StreamFaultError::OnsetBeyondRounds { onset, rounds } => {
                write!(f, "strike onset round {onset} outside a {rounds}-round stream")
            }
        }
    }
}

impl std::error::Error for StreamFaultError {}

/// The one-time artefacts of a `(code, rounds, host)` streaming target:
/// assembled memory experiment, its host (transpiled circuit, tableau
/// sampler, per-seed reference traces), round markers and stream layout.
/// Shared process-wide so sweep points never re-pay transpilation.
struct StreamContext {
    memory: MemoryCircuit,
    host: Host,
    /// Op index in the *transpiled* circuit where each round begins.
    round_starts: Vec<usize>,
    stream_spec: StreamSpec,
}

/// Context-cache key: `(code, rounds, final readout, host kind)`.
type ContextKey = (CodeSpec, usize, bool, HostKind);

/// Process-wide stream-context cache (see [`StreamContext`]).
fn context_cache() -> &'static Mutex<HashMap<ContextKey, Arc<StreamContext>>> {
    static CACHE: OnceLock<Mutex<HashMap<ContextKey, Arc<StreamContext>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The stream engine's own knobs (see [`StreamEngineBuilder`]).
pub struct StreamKnobs {
    rounds: usize,
    final_readout: bool,
    metrics: Option<Arc<MetricsRegistry>>,
    recorder: Option<Arc<FlightRecorder>>,
}

/// Fluent configuration for [`StreamEngine`]: the shared campaign knobs
/// plus the stream's own.
pub type StreamEngineBuilder = EngineBuilder<StreamKnobs>;

impl StreamEngineBuilder {
    /// Terminate the memory with a transversal data readout
    /// ([`CodeSpec::build_memory_readout`]): the last round measures every
    /// data qubit in the primary basis, each round slice of the final
    /// round carries the data bit-planes, and the space-time decoder can
    /// score each replica's absolute logical frame.
    ///
    /// [`CodeSpec::build_memory_readout`]: crate::codes::CodeSpec::build_memory_readout
    pub fn final_readout(mut self) -> Self {
        self.engine.final_readout = true;
        self
    }

    /// Use the code's native SWAP-free embedding
    /// ([`CodeSpec::native_embedding`]) — topology and placement together.
    /// Falls back to the default fitted mesh + layout search for codes
    /// without one (the degenerate XXZZ line codes).
    pub fn native(mut self) -> Self {
        if let Some((topo, l2p)) = self.spec.native_embedding() {
            self.placement = Placement {
                topology: Some(topo),
                initial_layout: Some(l2p),
                kind: HostKind::Native,
            };
        }
        self
    }

    /// Record this engine's stats into a shared registry instead of a
    /// fresh private one (fleet campaigns aggregate patches this way).
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.engine.metrics = Some(registry);
        self
    }

    /// Record this engine's flight events into a shared recorder instead
    /// of a fresh private ring.
    pub fn flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.engine.recorder = Some(recorder);
        self
    }

    /// Build the engine. Fitted and native hosts resolve through the
    /// process-wide context cache (one transpile per `(code, rounds,
    /// host)` target); custom topologies/placements build privately.
    ///
    /// # Panics
    /// Panics on a configuration [`Self::try_build`] rejects.
    pub fn build(self) -> StreamEngine {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::build`]: `Err` on fewer than 2 rounds, zero shots,
    /// a zero frame chunk, a topology smaller than the memory circuit, or
    /// an invalid or too short initial layout.
    pub fn try_build(mut self) -> Result<StreamEngine, EngineBuildError> {
        let (rounds, final_readout) = (self.engine.rounds, self.engine.final_readout);
        if rounds < 2 {
            return Err(EngineBuildError::TooFewRounds { rounds });
        }
        // Resolve every metric handle once here: the hot path bumps the
        // returned `Arc<Counter>`s directly and never touches the
        // registry's name map again.
        let metrics = self.engine.metrics.take().unwrap_or_default();
        let recorder = self.engine.recorder.take().unwrap_or_default();
        let campaign = self.campaign(Arc::clone(&metrics))?;
        let cache = || context_cache().lock().unwrap_or_else(PoisonError::into_inner);
        let kind = self.placement.kind;
        let key = (kind != HostKind::Custom).then_some((self.spec, rounds, final_readout, kind));
        let ctx = match key.and_then(|key| cache().get(&key).cloned()) {
            Some(ctx) => ctx,
            None => {
                // Build outside the lock (transpilation is the slow part);
                // last writer wins on a race, which only costs a duplicate
                // build.
                let memory = if final_readout {
                    self.spec.build_memory_readout(rounds)
                } else {
                    self.spec.build_memory(rounds)
                };
                let host = Host::place(&memory.circuit, &memory.name, self.placement)?;
                let round_starts = MemoryCircuit::round_starts_of(&host.transpiled.circuit, rounds);
                let stream_spec = stream_spec_of(&memory, &host.transpiled);
                let ctx = Arc::new(StreamContext { memory, host, round_starts, stream_spec });
                match key {
                    Some(key) => cache().entry(key).or_insert(ctx).clone(),
                    None => ctx,
                }
            }
        };
        Ok(StreamEngine {
            ctx,
            campaign,
            rounds_generated: metrics.counter(names::STREAM_ROUNDS_GENERATED),
            chunks_generated: metrics.counter(names::STREAM_CHUNKS_GENERATED),
            chunks_stolen: metrics.counter(names::STREAM_CHUNKS_STOLEN),
            chunk_retries: metrics.counter(names::STREAM_CHUNK_RETRIES),
            workspaces_quarantined: metrics.counter(names::STREAM_WORKSPACES_QUARANTINED),
            generate_ns: metrics.histogram(names::STAGE_GENERATE_NS),
            round_ns: metrics.histogram(names::STREAM_ROUND_NS),
            recorder,
        })
    }
}

/// Recover the per-(round, stabilizer) classical layout and physical
/// ancilla positions from the transpiled circuit's measure ops.
fn stream_spec_of(memory: &MemoryCircuit, transpiled: &Transpiled) -> StreamSpec {
    let grid = memory.rounds * memory.num_stabs();
    let mut ancilla_physical = vec![u32::MAX; grid];
    for gate in transpiled.circuit.ops() {
        if let Gate::Measure { qubit, cbit } = *gate {
            // Readout-terminated memories measure the data qubits into
            // classical bits past the syndrome grid — not ancilla planes.
            if (cbit as usize) < grid {
                ancilla_physical[cbit as usize] = qubit;
            }
        }
    }
    assert!(
        ancilla_physical.iter().all(|&q| q != u32::MAX),
        "transpiled memory circuit is missing measurements"
    );
    StreamSpec {
        rounds: memory.rounds,
        num_stabs: memory.num_stabs(),
        first_round_deterministic: memory.first_round_deterministic.clone(),
        ancilla_physical,
    }
}

/// Perf counters of a [`StreamEngine`]'s lifetime (see
/// [`StreamEngine::stream_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Syndrome rounds generated (frame chunks × rounds + tableau rounds).
    pub rounds_generated: u64,
    /// Chunks generated across all campaigns.
    pub chunks_generated: u64,
    /// Chunks claimed by secondary workers of the self-scheduling round
    /// driver (0 on a single core, where stealing cannot happen).
    pub chunks_stolen: u64,
    /// Workspace buffer allocations (frame/record/mask) — stays flat once
    /// the pool is warm.
    pub workspace_allocations: u64,
    /// Chunk set-ups that reused every pooled buffer.
    pub workspace_reuses: u64,
    /// Chunk attempts retried after a caught worker panic
    /// ([`StreamEngine::for_each_round_supervised`]).
    pub chunk_retries: u64,
    /// Workspaces quarantined (dropped instead of pooled) because their
    /// chunk was abandoned mid-stream by a panic.
    pub workspaces_quarantined: u64,
    /// Reference traces currently cached by this engine's (shared) stream
    /// context — bounded by the reference-cache ceiling.
    pub reference_entries: usize,
    /// Reference traces evicted from the shared context's cache so far.
    pub reference_evictions: u64,
}

/// One chunk that failed both of its attempts under the supervised round
/// driver ([`StreamEngine::for_each_round_supervised`]): the campaign
/// completed without its shots, and this records why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFailure {
    /// Chunk index on the engine's chunk grid.
    pub chunk: usize,
    /// Attempts made (always 2: the original and one retry).
    pub attempts: u32,
    /// The panic payload's message, when it carried one.
    pub message: String,
}

impl std::fmt::Display for ChunkFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chunk {} failed after {} attempts: {}", self.chunk, self.attempts, self.message)
    }
}

/// One retried chunk attempt under the supervised round driver: which
/// chunk panicked, and the in-shot round the panic interrupted (the
/// round whose generation or sink call did not complete).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryRecord {
    /// Chunk index on the engine's chunk grid.
    pub chunk: usize,
    /// 0-based round the caught panic interrupted.
    pub round: u64,
}

/// What happened to a supervised streaming campaign (see
/// [`StreamEngine::for_each_round_supervised`]): every chunk is accounted
/// for as completed, skipped (by the caller's resume filter) or failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Chunks whose every round reached the sink.
    pub chunks_completed: u64,
    /// Chunks the caller's skip filter excluded (checkpoint resume).
    pub chunks_skipped: u64,
    /// Chunk attempts retried after a caught panic.
    pub chunk_retries: u64,
    /// Workspaces quarantined (abandoned mid-chunk by a panic, dropped
    /// instead of pooled) during this campaign.
    pub workspaces_quarantined: u64,
    /// Every retried attempt with the round its panic interrupted, in
    /// chunk order (also flight-recorded as [`FlightEvent::ChunkRetry`]).
    pub retries: Vec<RetryRecord>,
    /// Chunks that failed both attempts, in chunk order.
    pub failures: Vec<ChunkFailure>,
}

impl CampaignReport {
    /// Whether every non-skipped chunk completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Round of the campaign's earliest retry (`None` on a clean run) —
    /// the fleet CSV's `first_retry_round` column.
    pub fn first_retry_round(&self) -> Option<u64> {
        self.retries.iter().map(|r| r.round).min()
    }
}

/// Render a caught panic payload as text (`&str` and `String` payloads —
/// everything `panic!`/`assert!` produce — pass through verbatim).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// One syndrome round of one chunk, handed to the round drivers' sinks
/// the moment its ops have executed: the raw (un-XORed) syndrome
/// bit-planes of every stabilizer, 64 shots per word.
///
/// Rows are stabilizer-major and each `words()` long —
/// `radqec_detect::EventAccumulator::push_round` consumes exactly this
/// layout.
#[derive(Debug, Clone)]
pub struct RoundSlice {
    /// Chunk index on the engine's chunk grid.
    pub chunk: usize,
    /// Round index within the shot (0-based).
    pub round: usize,
    /// First global shot index of the chunk.
    pub shot_offset: usize,
    /// Shots in this chunk.
    pub shots: usize,
    num_stabs: usize,
    words: usize,
    /// Stabilizer-major syndrome planes of this round.
    syndromes: Vec<u64>,
    /// Data-qubit readout planes (data-qubit-major), populated only on
    /// the final round of a readout-terminated memory — empty otherwise.
    data: Vec<u64>,
}

impl RoundSlice {
    /// Words per stabilizer row.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of stabilizers measured this round.
    #[inline]
    pub fn num_stabs(&self) -> usize {
        self.num_stabs
    }

    /// The syndrome bit-plane of stabilizer `stab` (one bit per shot).
    #[inline]
    pub fn syndrome_row(&self, stab: usize) -> &[u64] {
        &self.syndromes[stab * self.words..(stab + 1) * self.words]
    }

    /// All rows, stabilizer-major (the `EventAccumulator` input layout).
    #[inline]
    pub fn syndrome_rows(&self) -> &[u64] {
        &self.syndromes
    }

    /// Whether this slice carries the final transversal data readout
    /// (last round of a [`StreamEngineBuilder::final_readout`] stream).
    #[inline]
    pub fn has_data_readout(&self) -> bool {
        !self.data.is_empty()
    }

    /// The readout bit-plane of data qubit `d` (one bit per shot).
    ///
    /// # Panics
    /// Panics when the slice carries no data readout
    /// ([`RoundSlice::has_data_readout`]).
    #[inline]
    pub fn data_row(&self, d: usize) -> &[u64] {
        assert!(!self.data.is_empty(), "round slice carries no data readout");
        &self.data[d * self.words..(d + 1) * self.words]
    }
}

/// A ready-to-run multi-round streaming campaign for one (code, rounds,
/// topology) triple. With [`SamplerKind::Tableau`], shots replay the
/// transpiled circuit on its used qubits only
/// ([`TableauSampler`](crate::campaign::TableauSampler), built once per
/// shared context), record for record as on the full device.
pub struct StreamEngine {
    ctx: Arc<StreamContext>,
    /// Sampler, seed, chunk grid, workspace pool and the registry behind
    /// every handle below (per-engine unless the builder shares one).
    campaign: Campaign,
    /// Campaign flight recorder (retries, quarantines, cache events).
    recorder: Arc<FlightRecorder>,
    rounds_generated: Arc<Counter>,
    chunks_generated: Arc<Counter>,
    chunks_stolen: Arc<Counter>,
    chunk_retries: Arc<Counter>,
    workspaces_quarantined: Arc<Counter>,
    /// Per chunk-round generation wall time (`stage.generate_ns`).
    generate_ns: Arc<Histogram>,
    /// Full chunk-round wall time incl. the sink (`stream.round_ns`).
    round_ns: Arc<Histogram>,
}

impl StreamEngine {
    /// Start configuring a `rounds`-round streaming engine for `spec`.
    pub fn builder(spec: CodeSpec, rounds: usize) -> StreamEngineBuilder {
        let knobs = StreamKnobs { rounds, final_readout: false, metrics: None, recorder: None };
        EngineBuilder::new(spec, knobs)
    }

    /// The assembled memory experiment.
    pub fn memory(&self) -> &MemoryCircuit {
        &self.ctx.memory
    }

    /// The architecture graph in use.
    pub fn topology(&self) -> &Topology {
        &self.ctx.host.topology
    }

    /// The transpiled physical circuit and layouts.
    pub fn transpiled(&self) -> &Transpiled {
        &self.ctx.host.transpiled
    }

    /// The stream layout handed to `radqec-detect` consumers.
    pub fn stream_spec(&self) -> &StreamSpec {
        &self.ctx.stream_spec
    }

    /// Streamed shots per campaign.
    pub fn shots(&self) -> usize {
        self.campaign.grid.shots
    }

    /// Stabilisation rounds per shot.
    pub fn rounds(&self) -> usize {
        self.ctx.memory.rounds
    }

    /// Shots per chunk on the frame path's chunk grid.
    pub fn frame_chunk(&self) -> usize {
        self.campaign.grid.frame_chunk
    }

    /// The sampler backing this engine's shots.
    pub fn sampler(&self) -> SamplerKind {
        self.campaign.sampler
    }

    /// Lifetime perf counters: rounds/chunks generated, chunks stolen by
    /// secondary workers, workspace reuse. Workspace numbers cover pooled
    /// (returned) workspaces, so read them between campaigns, not
    /// mid-flight.
    pub fn stream_stats(&self) -> StreamStats {
        // A thin view over the registry: the counters *live* there (see
        // `radqec_telemetry::names`); pool and cache occupancy are
        // derived on read and mirrored into registry gauges so metric
        // snapshots carry them too.
        let workspaces = self.campaign.workspace_stats();
        let (reference_entries, reference_evictions) = self.ctx.host.reference_stats();
        let metrics = &self.campaign.metrics;
        metrics.gauge(names::REFERENCE_ENTRIES).set(reference_entries as u64);
        metrics.gauge(names::REFERENCE_EVICTIONS).set(reference_evictions);
        StreamStats {
            rounds_generated: self.rounds_generated.get(),
            chunks_generated: self.chunks_generated.get(),
            chunks_stolen: self.chunks_stolen.get(),
            workspace_allocations: workspaces.allocated,
            workspace_reuses: workspaces.reused,
            chunk_retries: self.chunk_retries.get(),
            workspaces_quarantined: self.workspaces_quarantined.get(),
            reference_entries,
            reference_evictions,
        }
    }

    /// This engine's metrics registry (private unless the builder was
    /// handed a shared one).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.campaign.metrics
    }

    /// This engine's campaign flight recorder.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Snapshot the engine's registry with the derived gauges (workspace
    /// pool, reference cache) refreshed first.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let _ = self.stream_stats();
        self.campaign.metrics.snapshot()
    }

    /// The per-round fault ladder of `fault`: round `r` gets the transient
    /// at `t = r / (R−1)` (`F(t, d) = T(t)·S(d)`, Eq. 7 sampled along the
    /// round axis). Multi-strike timelines shift each strike's clock to
    /// its onset round and combine the per-qubit probabilities as
    /// independent reset sources.
    ///
    /// # Panics
    /// Panics on an invalid configuration (root outside the topology,
    /// onset beyond the round count) — use
    /// [`StreamEngine::try_round_faults`] for untrusted input.
    pub fn round_faults(&self, fault: &StreamFault) -> Vec<ActiveFault> {
        self.try_round_faults(fault).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::round_faults`]: `Err` on a strike root outside the
    /// engine's topology or an onset round at or beyond the stream's
    /// round count, instead of panicking — the entry point for
    /// user-facing sweep configuration.
    pub fn try_round_faults(
        &self,
        fault: &StreamFault,
    ) -> Result<Vec<ActiveFault>, StreamFaultError> {
        let rounds = self.ctx.memory.rounds;
        let n = self.ctx.host.topology.num_qubits() as usize;
        // A lone strike is one strike at onset 0 on the whole-stream clock.
        let lone;
        let strikes = match fault {
            StreamFault::None => return Ok(vec![ActiveFault::none(n); rounds]),
            StreamFault::Strike { model, root } => {
                lone = [StrikeEvent {
                    model: *model,
                    root: *root,
                    onset_round: 0,
                    decay_rounds: None,
                }];
                &lone[..]
            }
            StreamFault::MultiStrike(multi) => multi.strikes(),
        };
        let mut events = Vec::with_capacity(strikes.len());
        for strike in strikes {
            if strike.onset_round >= rounds {
                return Err(StreamFaultError::OnsetBeyondRounds {
                    onset: strike.onset_round,
                    rounds,
                });
            }
            let event = strike
                .model
                .try_strike(&self.ctx.host.topology, strike.root)
                .map_err(StreamFaultError::BadRoot)?;
            events.push((strike, event));
        }
        Ok((0..rounds)
            .map(|r| {
                let mut probs = vec![0.0f64; n];
                for (strike, event) in &events {
                    if r < strike.onset_round {
                        continue;
                    }
                    // Each strike's transient runs on its own clock from
                    // its onset: `decay_rounds` spans the unit time
                    // interval when set, the whole stream (`R − 1` rounds)
                    // when not. `Some(0)` is rejected at
                    // `MultiStrike::try_new`; `.max(1)` keeps a hand-rolled
                    // event finite regardless.
                    let span = strike.decay_rounds.unwrap_or(rounds - 1).max(1);
                    let t = (r - strike.onset_round) as f64 / span as f64;
                    let temporal = temporal_decay(t, strike.model.gamma);
                    // Independent reset sources compose as complement
                    // products; the running update `p ← p + q·(1−p)` keeps
                    // a lone strike's probabilities exactly `q`
                    // (0 + q·1 = q).
                    for (p, s) in probs.iter_mut().zip(event.spatial_profile()) {
                        let q = temporal * s;
                        *p += q * (1.0 - *p);
                    }
                }
                ActiveFault::from_probs(probs)
            })
            .collect())
    }

    /// Number of chunks on the engine's chunk grid.
    pub fn num_chunks(&self) -> usize {
        self.campaign.grid.count()
    }

    /// Stream one campaign: every shot's full multi-round record, as
    /// bit-packed batches on the engine's chunk grid. A collect over the
    /// round driver — each chunk's record is taken once its last round
    /// has run — so batches are bit-identical to the round-by-round feed.
    ///
    /// # Panics
    /// Panics on an invalid `fault` (see [`StreamEngine::round_faults`])
    /// and with the [`ChunkFailure`] message when a chunk fails twice.
    pub fn stream_batches(&self, fault: &StreamFault, noise: &NoiseSpec) -> Vec<ShotBatch> {
        let last = self.rounds() - 1;
        let batches = Mutex::new(vec![None; self.num_chunks()]);
        let report = self.run_chunks(
            &self.round_faults(fault),
            noise,
            |_| false,
            |chunk, r, rec| {
                if r == last {
                    let rec = rec.clone();
                    batches.lock().unwrap_or_else(PoisonError::into_inner)[chunk] = Some(rec);
                }
            },
        );
        expect_clean(&report);
        let batches = batches.into_inner().unwrap_or_else(PoisonError::into_inner);
        batches.into_iter().map(|b| b.expect("a clean campaign completes every chunk")).collect()
    }

    /// Op range of round `r` in the transpiled circuit. Round 0 absorbs
    /// the initialisation layer; the last round runs to the end (final
    /// data measurements, if any).
    fn round_ops(&self, r: usize) -> std::ops::Range<usize> {
        let starts = &self.ctx.round_starts;
        let end = starts.get(r + 1).copied().unwrap_or(self.ctx.host.transpiled.circuit.len());
        (if r == 0 { 0 } else { starts[r] })..end
    }

    /// The derived seed of the frame path's reference trace.
    fn reference_seed(&self) -> u64 {
        mix_seed(self.campaign.seed, 0x57E4, 0x5EED)
    }

    /// The RNG for frame chunk `chunk` (one independent stream per chunk,
    /// identical no matter which worker claims it).
    fn chunk_rng(&self, chunk: usize) -> StdRng {
        StdRng::seed_from_u64(mix_seed(self.campaign.seed ^ 0x57E4_0000_0000_0001, 0, chunk as u64))
    }

    /// Copy round `r`'s syndrome rows out of a chunk record.
    fn round_slice(&self, chunk: usize, round: usize, record: &ShotBatch) -> RoundSlice {
        let num_stabs = self.ctx.stream_spec.num_stabs;
        let words = record.words();
        let mut syndromes = Vec::with_capacity(num_stabs * words);
        for stab in 0..num_stabs {
            syndromes.extend_from_slice(record.row(self.ctx.stream_spec.cbit(round, stab)));
        }
        let memory = &self.ctx.memory;
        let mut data = Vec::new();
        if round + 1 == memory.rounds && memory.final_readout.is_some() {
            data.reserve(memory.n_data as usize * words);
            for d in 0..memory.n_data {
                data.extend_from_slice(record.row(memory.data_cbit(d)));
            }
        }
        RoundSlice {
            chunk,
            round,
            shot_offset: self.campaign.grid.offset(chunk),
            shots: record.shots(),
            num_stabs,
            words,
            syndromes,
            data,
        }
    }

    /// Generate chunk `chunk` round by round, handing `on_round` each
    /// round's index and the chunk record as soon as that round is in it.
    /// The frame sampler advances the executor one round's ops at a time
    /// in `ws`, on the chunk's own RNG stream; the tableau oracle
    /// (`reference == None`) replays the chunk's shots first, then hands
    /// out its rounds. Every handed-out round is one `stream.round_ns`
    /// sample, sink included.
    fn chunk_rounds(
        &self,
        chunk: usize,
        faults: &[ActiveFault],
        noise: &NoiseSpec,
        reference: Option<&ReferenceTrace>,
        ws: &mut StreamWorkspace,
        mut on_round: impl FnMut(usize, &ShotBatch),
    ) {
        match reference {
            Some(reference) => {
                let circuit = &self.ctx.host.transpiled.circuit;
                let n_phys = self.ctx.host.topology.num_qubits() as usize;
                let width = self.campaign.grid.width(chunk);
                let mut rng = self.chunk_rng(chunk);
                ws.begin_chunk(circuit, n_phys, width, &mut rng);
                for (r, fault) in faults.iter().enumerate() {
                    let round_span = SpanTimer::start(&self.round_ns);
                    let generate_span = SpanTimer::start(&self.generate_ns);
                    let (frame, record, mask) = ws.parts(width.div_ceil(64));
                    // Every op of round `r` runs under that round's fault, so
                    // a one-segment timeline replays the chunk's timeline
                    // exactly, without rescanning all of it every round.
                    run_noisy_ops_segmented(
                        circuit,
                        reference,
                        frame,
                        noise,
                        &[(0, fault)],
                        self.round_ops(r),
                        record,
                        mask,
                        &mut rng,
                    );
                    generate_span.finish();
                    on_round(r, record);
                    round_span.finish();
                }
                ws.finish_chunk();
            }
            None => {
                let batch = self.tableau_chunk(chunk, faults, noise);
                for r in 0..self.rounds() {
                    let round_span = SpanTimer::start(&self.round_ns);
                    on_round(r, &batch);
                    round_span.finish();
                }
            }
        }
        self.rounds_generated.add(self.rounds() as u64);
        self.chunks_generated.inc();
    }

    /// One tableau-oracle chunk: per-shot CHP replay on the circuit's used
    /// qubits (shot-parallel) under the fault timeline segmented at the
    /// round starts. The first segment is pinned to op 0 so any
    /// initialisation layer before round 0's barrier shares round 0's
    /// fault (the strike is live from `t = 0`).
    fn tableau_chunk(&self, chunk: usize, faults: &[ActiveFault], noise: &NoiseSpec) -> ShotBatch {
        let mut segments: Vec<(usize, &ActiveFault)> =
            self.ctx.round_starts.iter().copied().zip(faults).collect();
        segments[0].0 = 0;
        let grid = self.campaign.grid;
        let seed = |shot: usize| {
            let global = grid.offset(chunk) + shot;
            mix_seed(self.campaign.seed ^ 0x57E4_0000_0000_0002, 0, global as u64)
        };
        self.ctx.host.tableau().batch(grid.width(chunk), noise, &segments, seed)
    }

    /// The one worker loop behind every driver: self-scheduling workers
    /// claim the next unclaimed chunk (a work-stealing queue, no fixed
    /// pre-partition) and run [`StreamEngine::chunk_rounds`] on it under
    /// the supervision of [`StreamEngine::for_each_round_supervised`],
    /// handing `on_round` the chunk index, round index and chunk record.
    fn run_chunks(
        &self,
        faults: &[ActiveFault],
        noise: &NoiseSpec,
        skip: impl Fn(usize) -> bool + Sync,
        on_round: impl Fn(usize, usize, &ShotBatch) + Sync,
    ) -> CampaignReport {
        let reference = match self.campaign.sampler {
            SamplerKind::FrameBatch => Some(self.ctx.host.reference(self.reference_seed())),
            SamplerKind::Tableau => None,
        };
        let chunks = self.num_chunks();
        let next = AtomicUsize::new(0);
        let skipped = AtomicU64::new(0);
        let retries: Mutex<Vec<RetryRecord>> = Mutex::new(Vec::new());
        let failures: Mutex<Vec<ChunkFailure>> = Mutex::new(Vec::new());
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(chunks);
        // A workspace abandoned by a caught panic is dropped, never
        // pooled, so the pool only ever holds clean entries.
        let pool = &self.campaign.pool;
        let run_worker = |worker: usize| {
            let mut claimed = 0u64;
            loop {
                let chunk = next.fetch_add(1, Ordering::Relaxed);
                if chunk >= chunks {
                    break;
                }
                claimed += 1;
                if skip(chunk) {
                    skipped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                for attempt in 0..2u32 {
                    let mut w = pool.take();
                    // Count rounds the sink actually received, so a caught
                    // panic can be stamped with the round it interrupted.
                    let rounds_delivered = Cell::new(0u64);
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        self.chunk_rounds(
                            chunk,
                            faults,
                            noise,
                            reference.as_deref(),
                            &mut w,
                            |round, record| {
                                on_round(chunk, round, record);
                                rounds_delivered.set(rounds_delivered.get() + 1);
                            },
                        );
                    }));
                    match outcome {
                        Ok(()) => {
                            pool.put(w);
                            break;
                        }
                        Err(payload) => {
                            // The workspace was abandoned mid-chunk:
                            // quarantine it (drop, never pool).
                            drop(w);
                            let round = rounds_delivered.get();
                            self.workspaces_quarantined.inc();
                            self.recorder.record(round, FlightEvent::ChunkQuarantined { chunk });
                            if attempt == 0 {
                                retries
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push(RetryRecord { chunk, round });
                                self.chunk_retries.inc();
                                self.recorder.record(round, FlightEvent::ChunkRetry { chunk });
                            } else {
                                failures.lock().unwrap_or_else(PoisonError::into_inner).push(
                                    ChunkFailure {
                                        chunk,
                                        attempts: 2,
                                        message: panic_message(payload),
                                    },
                                );
                            }
                        }
                    }
                }
            }
            if worker > 0 {
                self.chunks_stolen.add(claimed);
            }
        };
        // The calling thread is worker 0; the rest are spawned.
        std::thread::scope(|scope| {
            for worker in 1..workers {
                let run_worker = &run_worker;
                scope.spawn(move || run_worker(worker));
            }
            run_worker(0);
        });
        let mut failures = failures.into_inner().unwrap_or_else(PoisonError::into_inner);
        failures.sort_by_key(|f| f.chunk);
        let mut retries = retries.into_inner().unwrap_or_else(PoisonError::into_inner);
        retries.sort_by_key(|r| r.chunk);
        // Every non-skipped chunk completes or fails, and every caught
        // panic quarantined one workspace and became a retry or a failure.
        let skipped = skipped.into_inner();
        CampaignReport {
            chunks_completed: chunks as u64 - skipped - failures.len() as u64,
            chunks_skipped: skipped,
            chunk_retries: retries.len() as u64,
            workspaces_quarantined: (retries.len() + failures.len()) as u64,
            retries,
            failures,
        }
    }

    /// Stream one campaign round by round: every finished round of every
    /// chunk goes to `sink` as a [`RoundSlice`] the moment its ops have
    /// run, so generation of round `r+1` overlaps the consumer's work on
    /// round `r`. Rounds of one chunk arrive in order from one worker;
    /// rounds of different chunks interleave arbitrarily. Serves both
    /// samplers, bit-identical to [`StreamEngine::stream_batches`]. This
    /// is [`StreamEngine::for_each_round_supervised`] with nothing skipped.
    ///
    /// # Panics
    /// Panics on an invalid `fault` (see [`StreamEngine::round_faults`])
    /// and with the [`ChunkFailure`] message when a chunk fails twice.
    pub fn for_each_round<F>(&self, fault: &StreamFault, noise: &NoiseSpec, sink: F)
    where
        F: Fn(RoundSlice) + Sync,
    {
        let report = self
            .for_each_round_supervised(fault, noise, |_| false, sink)
            .unwrap_or_else(|e| panic!("{e}"));
        expect_clean(&report);
    }

    /// [`StreamEngine::for_each_round`] with its supervision made visible:
    /// a panic anywhere inside one chunk's generation or `sink` calls is
    /// caught, the worker's workspace is quarantined (dropped, never
    /// pooled), and the chunk is retried once on a fresh workspace before
    /// being recorded as a [`ChunkFailure`] in the returned report.
    ///
    /// A retried chunk **re-delivers its rounds from round 0**: sinks must
    /// reset any per-chunk accumulation when `slice.round == 0` (the
    /// natural shape for per-chunk consumers anyway). Chunk generation is
    /// deterministic per chunk index (one RNG stream per chunk), so the
    /// retry replays identical shots and a clean retry is bit-identical to
    /// a never-failed run.
    ///
    /// `skip` excludes chunks wholesale (they are counted, never
    /// generated) — checkpoint resume passes the set of chunks already
    /// merged, making a killed-and-resumed campaign replay exactly the
    /// missing chunk indices.
    pub fn for_each_round_supervised<F>(
        &self,
        fault: &StreamFault,
        noise: &NoiseSpec,
        skip: impl Fn(usize) -> bool + Sync,
        sink: F,
    ) -> Result<CampaignReport, StreamFaultError>
    where
        F: Fn(RoundSlice) + Sync,
    {
        let faults = self.try_round_faults(fault)?;
        Ok(self.run_chunks(&faults, noise, skip, |chunk, round, record| {
            sink(self.round_slice(chunk, round, record))
        }))
    }
}

/// The reportless drivers' contract for a chunk that failed both of its
/// attempts: panic with the failure's message.
fn expect_clean(report: &CampaignReport) {
    if let Some(failure) = report.failures.first() {
        panic!("{failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::REFERENCE_CACHE_CAP;
    use crate::codes::{RepetitionCode, XxzzCode};
    use radqec_detect::{EventAccumulator, EventStream};

    #[test]
    fn noiseless_faultless_streams_are_event_free() {
        for spec in
            [CodeSpec::from(RepetitionCode::bit_flip(3)), CodeSpec::from(XxzzCode::new(3, 3))]
        {
            for sampler in [SamplerKind::FrameBatch, SamplerKind::Tableau] {
                let engine =
                    StreamEngine::builder(spec, 4).shots(65).seed(1).sampler(sampler).build();
                let batches = engine.stream_batches(&StreamFault::None, &NoiseSpec::noiseless());
                for batch in &batches {
                    let ev = EventStream::extract(batch, engine.stream_spec());
                    assert_eq!(
                        ev.total_events(),
                        0,
                        "{} {sampler:?}: noiseless stream fired",
                        engine.memory().name
                    );
                }
            }
        }
    }

    #[test]
    fn round_fault_ladder_decays_like_the_transient() {
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(3).into(), 5).shots(1).build();
        let model = RadiationModel::default();
        let faults = engine.round_faults(&StreamFault::Strike { model, root: 0 });
        assert_eq!(faults.len(), 5);
        assert_eq!(faults[0].prob(0), 1.0, "impact point at t = 0");
        for r in 1..5 {
            let t = r as f64 / 4.0;
            let want = radqec_noise::transient_decay(t, 0, model.gamma, model.spatial_n);
            assert!((faults[r].prob(0) - want).abs() < 1e-12, "round {r}");
            assert!(faults[r].prob(0) < faults[r - 1].prob(0), "must decay");
        }
        // Spatial damping carries over per round.
        assert!(faults[0].prob(1) < faults[0].prob(0));
    }

    #[test]
    fn strike_floods_early_rounds_then_quiets() {
        let engine =
            StreamEngine::builder(RepetitionCode::bit_flip(5).into(), 8).shots(256).seed(3).build();
        let fault = StreamFault::Strike { model: RadiationModel::default(), root: 2 };
        let batches = engine.stream_batches(&fault, &NoiseSpec::noiseless());
        let spec = engine.stream_spec();
        let mut per_round = vec![0u64; engine.rounds()];
        for batch in &batches {
            let ev = EventStream::extract(batch, spec);
            for (r, sum) in per_round.iter_mut().enumerate() {
                *sum += ev.round_total(r);
            }
        }
        assert!(per_round[0] > 0, "impact round must fire: {per_round:?}");
        let early: u64 = per_round[..2].iter().sum();
        let late: u64 = per_round[6..].iter().sum();
        assert!(early > 10 * late.max(1), "decay not visible: {per_round:?}");
    }

    #[test]
    fn single_strike_multistrike_ladder_is_bit_identical() {
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(5).into(), 6).shots(1).build();
        let model = RadiationModel::default();
        let single = engine.round_faults(&StreamFault::Strike { model, root: 2 });
        let multi = engine.round_faults(&StreamFault::MultiStrike(
            MultiStrike::try_new(vec![StrikeEvent {
                model,
                root: 2,
                onset_round: 0,
                decay_rounds: None,
            }])
            .unwrap(),
        ));
        assert_eq!(single, multi, "one strike at onset 0 must reproduce the Strike arm exactly");
    }

    #[test]
    fn second_strike_reignites_the_ladder_at_its_onset() {
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(5).into(), 8).shots(1).build();
        let model = RadiationModel::default();
        let fault = StreamFault::MultiStrike(
            MultiStrike::try_new(vec![
                StrikeEvent { model, root: 0, onset_round: 0, decay_rounds: None },
                StrikeEvent { model, root: 4, onset_round: 4, decay_rounds: None },
            ])
            .unwrap(),
        );
        let faults = engine.round_faults(&fault);
        // Before the second onset, root 4's site carries only the first
        // strike's damped tail; at the onset it jumps to 1.
        assert!(faults[3].prob(4) < 0.05, "pre-onset: {}", faults[3].prob(4));
        assert_eq!(faults[4].prob(4), 1.0, "impact at its own onset round");
        assert!(faults[5].prob(4) < faults[4].prob(4), "and decays after");
        // The first strike's root is unaffected by the second onset beyond
        // the independent-source combination.
        assert!(faults[4].prob(0) < faults[0].prob(0));
        // Combined probabilities stay probabilities.
        for f in &faults {
            for q in 0..5 {
                assert!((0.0..=1.0).contains(&f.prob(q)));
            }
        }
    }

    #[test]
    fn multi_strike_validation_is_typed() {
        assert_eq!(MultiStrike::try_new(vec![]).unwrap_err(), MultiStrikeError::Empty);
        let model = RadiationModel::default();
        let err = MultiStrike::try_new(vec![
            StrikeEvent { model, root: 0, onset_round: 3, decay_rounds: None },
            StrikeEvent { model, root: 1, onset_round: 1, decay_rounds: None },
        ])
        .unwrap_err();
        assert_eq!(err, MultiStrikeError::OnsetsOutOfOrder { index: 1, onset: 1, previous: 3 });
        assert!(err.to_string().contains("precedes"));
        // Equal onsets (simultaneous strikes) are legal.
        assert!(MultiStrike::try_new(vec![
            StrikeEvent { model, root: 0, onset_round: 2, decay_rounds: None },
            StrikeEvent { model, root: 1, onset_round: 2, decay_rounds: None },
        ])
        .is_ok());
        // Engine-side range checks surface as typed errors, not panics.
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(3).into(), 4).shots(1).build();
        let n = engine.topology().num_qubits();
        let bad_root = StreamFault::MultiStrike(
            MultiStrike::try_new(vec![StrikeEvent {
                model,
                root: n + 7,
                onset_round: 0,
                decay_rounds: None,
            }])
            .unwrap(),
        );
        assert!(matches!(engine.try_round_faults(&bad_root), Err(StreamFaultError::BadRoot(_))));
        let late = StreamFault::MultiStrike(
            MultiStrike::try_new(vec![StrikeEvent {
                model,
                root: 0,
                onset_round: 4,
                decay_rounds: None,
            }])
            .unwrap(),
        );
        assert_eq!(
            engine.try_round_faults(&late),
            Err(StreamFaultError::OnsetBeyondRounds { onset: 4, rounds: 4 })
        );
        assert!(engine.try_round_faults(&StreamFault::Strike { model, root: n + 1 }).is_err());
    }

    #[test]
    fn streams_are_reproducible() {
        let engine = StreamEngine::builder(XxzzCode::new(3, 3).into(), 4)
            .shots(130)
            .seed(9)
            .frame_chunk(64)
            .build();
        let fault = StreamFault::Strike { model: RadiationModel::default(), root: 1 };
        let a = engine.stream_batches(&fault, &NoiseSpec::paper_default());
        let b = engine.stream_batches(&fault, &NoiseSpec::paper_default());
        assert_eq!(a, b);
        assert_eq!(a.len(), 3, "130 shots in 64-shot chunks");
    }

    #[test]
    fn stream_spec_tracks_physical_ancillas() {
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(3).into(), 3).shots(1).build();
        let spec = engine.stream_spec();
        assert_eq!(spec.rounds, 3);
        assert_eq!(spec.num_stabs, 2);
        assert_eq!(spec.ancilla_physical.len(), 6);
        let n_phys = engine.topology().num_qubits();
        for (g, &q) in spec.ancilla_physical.iter().enumerate() {
            assert!(q < n_phys, "grid slot {g} has no physical position");
        }
    }

    /// Compare a round feed bit-for-bit with the materialised batches:
    /// each of `copies` runs delivered every round of every chunk, with
    /// identical syndrome rows.
    fn assert_feed_matches_batches(
        engine: &StreamEngine,
        batches: &[ShotBatch],
        feed: Vec<RoundSlice>,
        copies: usize,
    ) {
        let spec = engine.stream_spec();
        let mut seen = vec![0usize; batches.len()];
        for slice in feed {
            let batch = &batches[slice.chunk];
            assert_eq!(slice.shots, batch.shots());
            assert_eq!(slice.words(), batch.words());
            for stab in 0..spec.num_stabs {
                assert_eq!(
                    slice.syndrome_row(stab),
                    batch.row(spec.cbit(slice.round, stab)),
                    "chunk {} round {} stab {stab}",
                    slice.chunk,
                    slice.round
                );
            }
            seen[slice.chunk] += 1;
        }
        assert!(seen.iter().all(|&n| n == copies * engine.rounds()), "rounds missing: {seen:?}");
    }

    #[test]
    fn round_stream_is_bit_identical_to_materialised_batches() {
        let strike = StreamFault::Strike { model: RadiationModel::default(), root: 2 };
        let noise = NoiseSpec::paper_default();
        for sampler in [SamplerKind::FrameBatch, SamplerKind::Tableau] {
            let engine = StreamEngine::builder(XxzzCode::new(3, 3).into(), 5)
                .shots(150)
                .seed(0xFEED)
                .frame_chunk(64)
                .sampler(sampler)
                .native()
                .build();
            for fault in [&strike, &StreamFault::None] {
                let batches = engine.stream_batches(fault, &noise);
                // Both round drivers feed one collector.
                let feed = Mutex::new(Vec::new());
                let sink = |slice: RoundSlice| feed.lock().unwrap().push(slice);
                engine.for_each_round(fault, &noise, sink);
                let report = engine.for_each_round_supervised(fault, &noise, |_| false, sink);
                let report = report.unwrap();
                assert!(report.is_clean() && report.chunk_retries == 0, "{sampler:?}: {report:?}");
                assert_eq!(report.chunks_completed, batches.len() as u64);
                assert_feed_matches_batches(&engine, &batches, feed.into_inner().unwrap(), 2);
            }
        }
    }

    #[test]
    fn parallel_round_driver_matches_materialised_batches() {
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(5).into(), 6)
            .shots(300)
            .seed(17)
            .frame_chunk(64)
            .build();
        let fault = StreamFault::Strike { model: RadiationModel::default(), root: 2 };
        let noise = NoiseSpec::paper_default();
        let batches = engine.stream_batches(&fault, &noise);
        let spec = engine.stream_spec();
        // Incremental extraction per chunk, fed by the parallel driver.
        let accs: Vec<Mutex<EventAccumulator>> =
            batches.iter().map(|b| Mutex::new(EventAccumulator::new(spec, b.shots()))).collect();
        engine.for_each_round(&fault, &noise, |slice| {
            accs[slice.chunk]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_round(slice.round, slice.syndrome_rows());
        });
        for (batch, acc) in batches.iter().zip(accs) {
            let incremental = acc.into_inner().unwrap_or_else(PoisonError::into_inner).finish();
            let oneshot = EventStream::extract(batch, spec);
            assert_eq!(incremental, oneshot, "incremental extraction diverged");
        }
    }

    #[test]
    fn workspace_pool_reuses_buffers_across_campaigns() {
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(3).into(), 4)
            .shots(256)
            .seed(5)
            .frame_chunk(64)
            .build();
        let noise = NoiseSpec::paper_default();
        // The pool only grows while a campaign's effective concurrency
        // exceeds the workspaces pooled so far (each worker holds at most
        // one at a time), and concurrency is capped by the 4-chunk grid —
        // so within a handful of campaigns there must be one that
        // allocates nothing. (Effective concurrency varies with machine
        // load: a worker that starts late can reuse a workspace another
        // worker already returned, so the steady state is not always
        // reached on the first campaign.)
        let a = engine.stream_batches(&StreamFault::None, &noise);
        let b = engine.stream_batches(&StreamFault::None, &noise);
        assert_eq!(a, b);
        let mut campaigns = 2u64;
        let mut before = engine.stream_stats();
        let warmed = loop {
            if campaigns > 8 {
                break false;
            }
            let c = engine.stream_batches(&StreamFault::None, &noise);
            campaigns += 1;
            assert_eq!(a, c, "pool reuse must not change the stream");
            let after = engine.stream_stats();
            if after.workspace_allocations == before.workspace_allocations {
                // A fully warm campaign: zero new buffers, pure reuse.
                assert!(
                    after.workspace_reuses > before.workspace_reuses,
                    "reuse counter must grow: {after:?}"
                );
                break true;
            }
            before = after;
        };
        assert!(warmed, "no zero-allocation campaign within 8: {before:?}");
        let stats = engine.stream_stats();
        assert_eq!(stats.chunks_generated, campaigns * 4, "4 chunks per campaign");
        assert_eq!(stats.rounds_generated, campaigns * 16, "4 rounds per chunk");
    }

    #[test]
    fn explicit_decay_span_sets_the_transient_clock() {
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(3).into(), 10).shots(1).build();
        let model = RadiationModel::default();
        let mk = |decay_rounds| {
            StreamFault::MultiStrike(
                MultiStrike::try_new(vec![StrikeEvent {
                    model,
                    root: 0,
                    onset_round: 2,
                    decay_rounds,
                }])
                .unwrap(),
            )
        };
        let fast = engine.round_faults(&mk(Some(2)));
        assert_eq!(fast[2].prob(0), 1.0, "impact at the onset round");
        for k in 1..8usize {
            let want =
                radqec_noise::transient_decay(k as f64 / 2.0, 0, model.gamma, model.spatial_n);
            assert!((fast[2 + k].prob(0) - want).abs() < 1e-12, "round {}", 2 + k);
        }
        // Two spans past its decay window the flare is negligible.
        assert!(fast[6].prob(0) < 1e-8, "decayed: {}", fast[6].prob(0));
        // `None` keeps the legacy whole-stream clock (span = rounds - 1),
        // so pre-existing streams are bit-identical.
        let legacy = engine.round_faults(&mk(None));
        assert_eq!(legacy, engine.round_faults(&mk(Some(9))));
        assert!(fast[4].prob(0) < legacy[4].prob(0), "shorter span must quiet sooner");
        // A zero span is rejected at construction.
        let err = MultiStrike::try_new(vec![StrikeEvent {
            model,
            root: 0,
            onset_round: 0,
            decay_rounds: Some(0),
        }])
        .unwrap_err();
        assert_eq!(err, MultiStrikeError::ZeroDecayRounds { index: 0 });
        assert!(err.to_string().contains("zero decay rounds"));
    }

    /// Per-chunk incremental accumulation with the reset-at-round-0 shape
    /// the supervised driver's retry semantics require.
    fn retry_safe_accs(n: usize) -> Vec<Mutex<Option<EventAccumulator>>> {
        (0..n).map(|_| Mutex::new(None)).collect()
    }

    /// Poison-tolerant by design: a sink that panics *while holding the
    /// lock* (the supervised driver catches the panic and retries the
    /// chunk) leaves the mutex poisoned — the retry's round-0 reset
    /// rebuilds the accumulator from scratch, so the stale guard state is
    /// harmless and `into_inner` recovery is sound. A poison-panicking
    /// `unwrap()` here would turn every retry into a second failure and
    /// mask the original fault's message.
    fn accumulate(accs: &[Mutex<Option<EventAccumulator>>], spec: &StreamSpec, slice: &RoundSlice) {
        let mut acc = accs[slice.chunk].lock().unwrap_or_else(PoisonError::into_inner);
        if slice.round == 0 {
            *acc = Some(EventAccumulator::new(spec, slice.shots));
        }
        acc.as_mut().expect("round 0 arrives first").push_round(slice.round, slice.syndrome_rows());
    }

    #[test]
    fn supervised_driver_retries_a_panicking_chunk_and_stays_bit_identical() {
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(5).into(), 6)
            .shots(300)
            .seed(17)
            .frame_chunk(64)
            .build();
        let fault = StreamFault::Strike { model: RadiationModel::default(), root: 2 };
        let noise = NoiseSpec::paper_default();
        let batches = engine.stream_batches(&fault, &noise);
        let spec = engine.stream_spec();
        let accs = retry_safe_accs(batches.len());
        let tripped = std::sync::atomic::AtomicBool::new(false);
        let report = engine
            .for_each_round_supervised(
                &fault,
                &noise,
                |_| false,
                |slice| {
                    // One mid-chunk panic: the chunk's workspace is in
                    // flight when the worker dies.
                    if slice.chunk == 2
                        && slice.round == 1
                        && !tripped.swap(true, Ordering::Relaxed)
                    {
                        panic!("injected chunk fault");
                    }
                    accumulate(&accs, spec, &slice);
                },
            )
            .unwrap();
        assert!(report.is_clean(), "retry must clear the fault: {:?}", report.failures);
        assert_eq!(report.chunks_completed, batches.len() as u64);
        assert_eq!(report.chunks_skipped, 0);
        assert_eq!(report.chunk_retries, 1);
        assert_eq!(report.workspaces_quarantined, 1);
        for (chunk, (batch, acc)) in batches.iter().zip(accs).enumerate() {
            let incremental = acc
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("chunk delivered")
                .finish();
            assert_eq!(
                incremental,
                EventStream::extract(batch, spec),
                "chunk {chunk}: retried campaign diverged from the clean stream"
            );
        }
        let stats = engine.stream_stats();
        assert_eq!(stats.chunk_retries, 1);
        assert_eq!(stats.workspaces_quarantined, 1);
    }

    #[test]
    fn supervised_driver_records_a_double_panicking_chunk_as_failed() {
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(3).into(), 4)
            .shots(300)
            .seed(5)
            .frame_chunk(64)
            .build();
        let noise = NoiseSpec::paper_default();
        let report = engine
            .for_each_round_supervised(
                &StreamFault::None,
                &noise,
                |_| false,
                |slice| {
                    if slice.chunk == 1 {
                        panic!("chunk {} always dies", slice.chunk);
                    }
                },
            )
            .unwrap();
        assert_eq!(
            report.failures,
            vec![ChunkFailure { chunk: 1, attempts: 2, message: "chunk 1 always dies".into() }]
        );
        assert!(!report.is_clean());
        assert_eq!(report.chunks_completed, 4, "the other chunks still complete");
        assert_eq!(report.chunk_retries, 1, "one retry, then the chunk is given up");
        assert_eq!(report.workspaces_quarantined, 2);
        assert!(report.failures[0].to_string().contains("after 2 attempts"));
        // Typed fault validation still runs before any worker starts.
        let model = RadiationModel::default();
        let n = engine.topology().num_qubits();
        let bad = StreamFault::Strike { model, root: n + 3 };
        assert!(engine.for_each_round_supervised(&bad, &noise, |_| false, |_| {}).is_err());
    }

    #[test]
    fn panic_while_holding_the_sink_lock_yields_a_typed_failure_not_a_poison_panic() {
        // Chaos case: the sink dies *inside* the accumulator's critical
        // section, after mutating shared state — the mutex is poisoned
        // from that moment on. The supervised driver must (a) keep
        // retrying through the poisoned lock instead of converting every
        // retry into a `PoisonError` panic, and (b) surface the chunk
        // that genuinely never recovers as a typed [`ChunkFailure`]
        // carrying the *injected* message, not lock-poisoning fallout.
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(5).into(), 6)
            .shots(300)
            .seed(17)
            .frame_chunk(64)
            .build();
        let fault = StreamFault::Strike { model: RadiationModel::default(), root: 2 };
        let noise = NoiseSpec::paper_default();
        let batches = engine.stream_batches(&fault, &noise);
        let spec = engine.stream_spec();
        let accs = retry_safe_accs(batches.len());
        let transient = std::sync::atomic::AtomicBool::new(false);
        let report = engine
            .for_each_round_supervised(
                &fault,
                &noise,
                |_| false,
                |slice| {
                    // Chunk 1: panics mid-accumulation on *every* attempt
                    // (a persistent fault). Chunk 2: panics once, also
                    // inside the lock, then recovers on retry.
                    let die_here = slice.chunk == 1
                        || (slice.chunk == 2
                            && slice.round == 1
                            && !transient.swap(true, Ordering::Relaxed));
                    if die_here && slice.round == 1 {
                        let mut guard =
                            accs[slice.chunk].lock().unwrap_or_else(PoisonError::into_inner);
                        // Half-applied mutation, then death with the
                        // guard still held — the poisoning scenario.
                        *guard = None;
                        panic!("sink died holding the lock");
                    }
                    accumulate(&accs, spec, &slice);
                },
            )
            .unwrap();
        assert_eq!(
            report.failures,
            vec![ChunkFailure {
                chunk: 1,
                attempts: 2,
                message: "sink died holding the lock".into()
            }],
            "the persistent fault must surface with its own message, not a PoisonError"
        );
        assert_eq!(report.chunks_completed, batches.len() as u64 - 1);
        assert_eq!(
            report.chunk_retries, 2,
            "one retry each for the persistent and transient fault"
        );
        // Every surviving chunk — including the once-poisoned chunk 2 —
        // is bit-identical to the materialised stream.
        for (chunk, (batch, acc)) in batches.iter().zip(accs).enumerate() {
            let acc = acc.into_inner().unwrap_or_else(PoisonError::into_inner);
            if chunk == 1 {
                continue;
            }
            assert_eq!(
                acc.expect("chunk delivered").finish(),
                EventStream::extract(batch, spec),
                "chunk {chunk}: recovery through the poisoned lock diverged"
            );
        }
    }

    #[test]
    fn skip_filter_replays_exactly_the_missing_chunks() {
        let engine = StreamEngine::builder(RepetitionCode::bit_flip(5).into(), 6)
            .shots(300)
            .seed(17)
            .frame_chunk(64)
            .build();
        let fault = StreamFault::Strike { model: RadiationModel::default(), root: 2 };
        let noise = NoiseSpec::paper_default();
        let batches = engine.stream_batches(&fault, &noise);
        let accs = retry_safe_accs(batches.len());
        let spec = engine.stream_spec();
        let report = engine
            .for_each_round_supervised(
                &fault,
                &noise,
                |chunk| chunk < 3,
                |slice| {
                    assert!(slice.chunk >= 3, "skipped chunk {} was delivered", slice.chunk);
                    accumulate(&accs, spec, &slice);
                },
            )
            .unwrap();
        assert_eq!(report.chunks_skipped, 3);
        assert_eq!(report.chunks_completed, batches.len() as u64 - 3);
        assert!(report.is_clean());
        for (chunk, (batch, acc)) in batches.iter().zip(accs).enumerate() {
            let acc = acc.into_inner().unwrap_or_else(PoisonError::into_inner);
            if chunk < 3 {
                assert!(acc.is_none(), "chunk {chunk} should have been skipped");
            } else {
                // Resumed chunks are bit-identical to the full campaign's.
                assert_eq!(acc.expect("delivered").finish(), EventStream::extract(batch, spec));
            }
        }
    }

    #[test]
    fn reference_cache_is_bounded_with_lru_eviction() {
        // Rounds = 7 is this test's own context-cache key, so the
        // reference counts below are fully under its control.
        let mk = |seed| {
            StreamEngine::builder(RepetitionCode::bit_flip(3).into(), 7)
                .shots(8)
                .seed(seed)
                .native()
                .build()
        };
        let engines: Vec<StreamEngine> = (0..12).map(mk).collect();
        for e in &engines {
            let _ = e.ctx.host.reference(e.reference_seed());
        }
        let stats = engines[0].stream_stats();
        assert!(
            stats.reference_entries <= REFERENCE_CACHE_CAP,
            "reference cache over its ceiling: {stats:?}"
        );
        assert_eq!(stats.reference_evictions, 4, "12 distinct seeds over an 8-slot cache");
        // A re-requested evicted seed is recomputed, not wedged, and the
        // cache stays under its ceiling.
        let _ = engines[0].ctx.host.reference(engines[0].reference_seed());
        assert!(engines[0].stream_stats().reference_entries <= REFERENCE_CACHE_CAP);
    }

    #[test]
    fn stream_contexts_are_shared_across_engines() {
        let mk = || {
            StreamEngine::builder(RepetitionCode::bit_flip(3).into(), 4)
                .shots(32)
                .seed(7)
                .native()
                .build()
        };
        let a = mk();
        let b = mk();
        assert!(Arc::ptr_eq(&a.ctx, &b.ctx), "same (code, rounds, host) must share a context");
        // Same seed ⇒ same reference trace object.
        let ra = a.ctx.host.reference(a.reference_seed());
        let rb = b.ctx.host.reference(b.reference_seed());
        assert!(Arc::ptr_eq(&ra, &rb));
        // A custom host must not go through the cache.
        let custom = StreamEngine::builder(RepetitionCode::bit_flip(3).into(), 4)
            .shots(32)
            .topology(radqec_topology::generators::linear(9))
            .build();
        assert!(!Arc::ptr_eq(&a.ctx, &custom.ctx));
    }
}
