//! The campaign core under both engines: the set-up every campaign,
//! offline or streamed, runs before its first shot. It holds one builder
//! ([`EngineBuilder`], with the engine's own knobs as its type parameter),
//! one host step (fitted mesh, the checks behind [`EngineBuildError`],
//! multi-trial transpilation, the lazy [`TableauSampler`] and an LRU
//! cache of per-seed reference traces), and per engine one chunk grid and
//! one workspace pool. The engines keep their own circuits, decoders,
//! drivers and RNG stream constants, so the core changes no sampled
//! record.

use crate::codes::CodeSpec;
use crate::decoder::DecoderError;
use radqec_circuit::{Backend, Circuit, Qubit, ShotBatch, ShotRecord};
use radqec_noise::{
    run_noisy_shot_segmented, ActiveFault, NoiseSpec, WorkspacePool, WorkspaceStats,
};
use radqec_stabilizer::{ReferenceTrace, StabilizerBackend};
use radqec_telemetry::{names, MetricsRegistry};
use radqec_topology::{generators::fitting_mesh, Topology};
use radqec_transpiler::{
    transpile, transpile_with_layout, Layout, LayoutError, TranspileOptions, Transpiled,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Which Monte-Carlo sampler backs an engine's shots.
///
/// See `radqec_stabilizer`'s crate docs for the full comparison; in short:
/// the frame batch is 1–3 orders of magnitude faster and exact wherever
/// fault resets hit reference-eigenstate points (all repetition-code
/// workloads, all intrinsic-noise-only runs), while the per-shot tableau is
/// exact everywhere and serves as the oracle for cross-validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplerKind {
    /// Bit-packed Pauli-frame batch sampler (64 shots per word) — default.
    #[default]
    FrameBatch,
    /// One CHP tableau replay per shot — the exact reference path.
    Tableau,
}

/// The exact per-shot sampler: one CHP tableau replay per shot of a
/// circuit relabelled onto the qubits it uses.
///
/// A routed circuit touches only part of its device (xxzz-(3,3) uses 18
/// of Brooklyn's 65 qubits), and the tableau costs grow with its qubit
/// count. Dropping the idle qubits is exact: a qubit no operation touches
/// stays in |0⟩ for the whole shot, a product factor that no gate,
/// measurement or reset reads, and faults act only on gate operands. A
/// measurement's outcome depends only on the state of the used qubits and,
/// when random, on one RNG draw, so every outcome and every draw equals
/// the full-device replay's. Build it once per host; each call gathers
/// its faults onto the used qubits once.
#[derive(Debug, Clone)]
pub struct TableauSampler {
    /// The circuit on qubits `0..used.len()`.
    circuit: Circuit,
    /// Original index of each relabelled qubit, ascending.
    used: Vec<Qubit>,
}

impl TableauSampler {
    /// Relabel `circuit` onto its used qubits.
    pub fn new(circuit: &Circuit) -> Self {
        let used = circuit.used_qubits();
        let mut map = vec![0; circuit.num_qubits() as usize];
        for (i, &q) in used.iter().enumerate() {
            map[q as usize] = i as Qubit;
        }
        let circuit = circuit.remap_qubits(&map, used.len().max(1) as u32);
        TableauSampler { circuit, used }
    }

    /// The relabelled circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Original index of each relabelled qubit.
    pub fn used_qubits(&self) -> &[Qubit] {
        &self.used
    }

    /// `fault` (over the original qubits) restricted to the used ones, in
    /// relabelled order.
    fn gather(&self, fault: &ActiveFault) -> ActiveFault {
        let probs = self.used.iter().map(|&q| fault.prob(q)).collect();
        ActiveFault::from_probs(probs).with_basis(fault.basis())
    }

    /// Replay shots `0..shots` (shot-parallel) under `noise` and the fault
    /// timeline `segments` (over the original qubits; see
    /// [`run_noisy_shot_segmented`]), shot `s` on its own
    /// `StdRng::seed_from_u64(seed(s))`, and map each record through
    /// `each`.
    pub fn map_shots<T: Send>(
        &self,
        shots: usize,
        noise: &NoiseSpec,
        segments: &[(usize, &ActiveFault)],
        seed: impl Fn(usize) -> u64 + Sync,
        each: impl Fn(ShotRecord) -> T + Sync,
    ) -> Vec<T> {
        let gathered: Vec<ActiveFault> = segments.iter().map(|(_, f)| self.gather(f)).collect();
        let segments: Vec<(usize, &ActiveFault)> =
            segments.iter().zip(&gathered).map(|(&(start, _), f)| (start, f)).collect();
        (0..shots)
            .into_par_iter()
            .map_init(
                || StabilizerBackend::new(self.circuit.num_qubits()),
                |backend, shot| {
                    let mut rng = StdRng::seed_from_u64(seed(shot));
                    backend.reset_all();
                    each(run_noisy_shot_segmented(
                        &self.circuit,
                        backend,
                        noise,
                        &segments,
                        &mut rng,
                    ))
                },
            )
            .collect()
    }

    /// [`Self::map_shots`]'s records as one bit-packed batch.
    pub(crate) fn batch(
        &self,
        shots: usize,
        noise: &NoiseSpec,
        segments: &[(usize, &ActiveFault)],
        seed: impl Fn(usize) -> u64 + Sync,
    ) -> ShotBatch {
        ShotBatch::from_records(&self.map_shots(shots, noise, segments, seed, |r| r))
    }
}

/// Smallest and largest automatic Pauli-frame batch sizes (see
/// [`default_frame_chunk`]).
const FRAME_CHUNK_MIN: usize = 256;
const FRAME_CHUNK_MAX: usize = 4096;

/// Shots per Pauli-frame batch for a campaign of `shots` shots.
///
/// Derived from the shot count only — never from the core count — so a
/// seed's results are identical on every machine (the per-chunk RNG streams
/// depend on chunk boundaries). Aims for ~16 chunks of word-aligned
/// (multiple-of-64) size, clamped to [256, 4096]: the default 1000-shot
/// campaign keeps its historical 4×256 split, while 10⁵-shot sweeps get
/// 4096-shot batches. With the engine-level syndrome cache this is purely
/// a parallel-balance / working-set knob; override it per workload with
/// [`EngineBuilder::frame_chunk`].
pub fn default_frame_chunk(shots: usize) -> usize {
    let target = shots.div_ceil(16);
    let aligned = target.div_ceil(64) * 64;
    aligned.clamp(FRAME_CHUNK_MIN, FRAME_CHUNK_MAX)
}

/// Why an engine configuration cannot be built (see the builders'
/// `try_build`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineBuildError {
    /// The topology has fewer qubits than the circuit.
    TopologyTooSmall {
        /// The topology's name.
        topology: String,
        /// The circuit's name.
        circuit: String,
    },
    /// The initial layout has an out-of-range or doubly assigned entry.
    Layout(LayoutError),
    /// The initial layout places fewer qubits than the circuit has.
    LayoutTooShort {
        /// Logical qubits the layout places.
        covers: usize,
        /// Qubits of the circuit.
        needs: usize,
    },
    /// A stream of fewer than 2 rounds (an event needs two).
    TooFewRounds {
        /// The requested round count.
        rounds: usize,
    },
    /// A campaign of zero shots.
    NoShots,
    /// A frame-batch chunk of zero shots.
    ZeroFrameChunk,
    /// The engine's decoder cannot be built for the code.
    Decoder(DecoderError),
}

impl std::fmt::Display for EngineBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineBuildError::TopologyTooSmall { topology, circuit } => {
                write!(f, "topology {topology} too small for {circuit}")
            }
            EngineBuildError::Layout(e) => write!(f, "{e}"),
            EngineBuildError::LayoutTooShort { covers, needs } => {
                write!(f, "layout covers {covers} logical qubits, circuit needs {needs}")
            }
            EngineBuildError::TooFewRounds { rounds } => {
                write!(f, "memory experiment needs at least 2 rounds, got {rounds}")
            }
            EngineBuildError::NoShots => write!(f, "need at least one shot"),
            EngineBuildError::ZeroFrameChunk => write!(f, "frame chunk must be positive"),
            EngineBuildError::Decoder(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineBuildError {}

/// How the builder picked the host: the stream engine's context-cache key
/// (custom hosts are not cached, as topologies are not cheaply compared).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum HostKind {
    /// Default fitted 5×k mesh with layout search.
    Fitted,
    /// The code's native SWAP-free embedding.
    Native,
    /// Caller-supplied topology and/or placement.
    Custom,
}

/// Where a campaign's circuit goes: the builder's host knobs.
pub(crate) struct Placement {
    pub(crate) topology: Option<Topology>,
    pub(crate) initial_layout: Option<Vec<u32>>,
    pub(crate) kind: HostKind,
}

/// Fluent configuration of an engine: the knobs every campaign has, plus
/// the engine's own knobs `E`. Build with the engine's `build` or
/// `try_build`.
pub struct EngineBuilder<E> {
    pub(crate) spec: CodeSpec,
    pub(crate) placement: Placement,
    sampler: SamplerKind,
    shots: usize,
    seed: u64,
    frame_chunk: Option<usize>,
    pub(crate) engine: E,
}

impl<E> EngineBuilder<E> {
    pub(crate) fn new(spec: CodeSpec, engine: E) -> Self {
        EngineBuilder {
            spec,
            placement: Placement { topology: None, initial_layout: None, kind: HostKind::Fitted },
            sampler: SamplerKind::default(),
            shots: 1000,
            seed: 0,
            frame_chunk: None,
            engine,
        }
    }

    /// Override the architecture graph (default: the smallest 5×k mesh
    /// that fits the circuit, the paper's scaled-down lattices).
    pub fn topology(mut self, topo: Topology) -> Self {
        self.placement.topology = Some(topo);
        self.placement.kind = HostKind::Custom;
        self
    }

    /// Pin the initial logical→physical placement instead of searching
    /// (routing still runs; with a good table it inserts few or no SWAPs).
    pub fn initial_layout(mut self, l2p: Vec<u32>) -> Self {
        self.placement.initial_layout = Some(l2p);
        self.placement.kind = HostKind::Custom;
        self
    }

    /// Select the shot sampler (default [`SamplerKind::FrameBatch`]).
    pub fn sampler(mut self, kind: SamplerKind) -> Self {
        self.sampler = kind;
        self
    }

    /// Shots per campaign (default 1000): per temporal sample offline,
    /// per stream when streaming. Zero is rejected by `try_build`.
    pub fn shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Master seed; every chunk and shot derives its own stream, so
    /// results are reproducible and independent of thread scheduling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the shots-per-frame-batch size (default:
    /// [`default_frame_chunk`] of the campaign's shot count). Changing it
    /// changes the per-chunk RNG streams, i.e. which shots are sampled —
    /// not the sampled distribution. Zero is rejected by `try_build`.
    pub fn frame_chunk(mut self, chunk: usize) -> Self {
        self.frame_chunk = Some(chunk);
        self
    }

    /// The per-engine core these knobs configure, recording into
    /// `metrics`; `Err` on zero shots or a zero frame chunk.
    pub(crate) fn campaign(
        &self,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<Campaign, EngineBuildError> {
        if self.shots == 0 {
            return Err(EngineBuildError::NoShots);
        }
        if self.frame_chunk == Some(0) {
            return Err(EngineBuildError::ZeroFrameChunk);
        }
        Ok(Campaign {
            sampler: self.sampler,
            seed: self.seed,
            grid: ChunkGrid {
                shots: self.shots,
                frame_chunk: self.frame_chunk.unwrap_or_else(|| default_frame_chunk(self.shots)),
            },
            pool: WorkspacePool::default(),
            metrics,
        })
    }
}

/// Ceiling on cached per-seed reference traces per host. A trace is
/// `O(ops × qubits)` bits, and a seed-sweeping campaign would otherwise
/// grow the cache without bound; LRU keeps the handful of seeds a fleet
/// actually cycles through warm.
pub(crate) const REFERENCE_CACHE_CAP: usize = 8;

/// The per-seed reference traces of a [`Host`], least recently used
/// first.
#[derive(Default)]
struct RefCache {
    traces: Vec<(u64, Arc<ReferenceTrace>)>,
    evictions: u64,
}

/// A circuit placed on its device: the topology, the transpiled circuit,
/// the tableau sampler (relabelled on first use) and the frame sampler's
/// noiseless reference traces, one per derived seed.
pub(crate) struct Host {
    pub(crate) topology: Topology,
    pub(crate) transpiled: Transpiled,
    tableau: OnceLock<TableauSampler>,
    references: Mutex<RefCache>,
}

impl Host {
    /// The one host step: place `circuit` (named `name` in errors) on the
    /// placement's topology (default: the fitted mesh) and transpile it
    /// with [`TranspileOptions::auto`], from the initial layout if given.
    pub(crate) fn place(
        circuit: &Circuit,
        name: &str,
        placement: Placement,
    ) -> Result<Host, EngineBuildError> {
        let needs = circuit.num_qubits();
        let topology = placement.topology.unwrap_or_else(|| fitting_mesh(needs));
        if topology.num_qubits() < needs {
            return Err(EngineBuildError::TopologyTooSmall {
                topology: topology.name().to_string(),
                circuit: name.to_string(),
            });
        }
        let opts = TranspileOptions::auto();
        let transpiled = match placement.initial_layout {
            Some(l2p) => {
                let layout = Layout::try_new(l2p, topology.num_qubits())
                    .map_err(EngineBuildError::Layout)?;
                if layout.num_logical() < needs as usize {
                    return Err(EngineBuildError::LayoutTooShort {
                        covers: layout.num_logical(),
                        needs: needs as usize,
                    });
                }
                transpile_with_layout(circuit, &topology, layout, &opts)
            }
            None => transpile(circuit, &topology, &opts),
        };
        Ok(Host { topology, transpiled, tableau: OnceLock::new(), references: Mutex::default() })
    }

    /// The tableau sampler of this host (relabelled once, on first use).
    pub(crate) fn tableau(&self) -> &TableauSampler {
        self.tableau.get_or_init(|| TableauSampler::new(&self.transpiled.circuit))
    }

    /// The noiseless reference trace for `seed`, computed once per
    /// (host, seed) and shared by every chunk, campaign and engine on the
    /// host. Past [`REFERENCE_CACHE_CAP`] seeds the least recently used
    /// trace is evicted (recomputing it gives the same trace). The lock
    /// recovers from poisoning: the cache holds only finished traces.
    pub(crate) fn reference(&self, seed: u64) -> Arc<ReferenceTrace> {
        let mut refs = self.references.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = match refs.traces.iter().position(|&(s, _)| s == seed) {
            Some(hit) => refs.traces.remove(hit),
            None => {
                if refs.traces.len() >= REFERENCE_CACHE_CAP {
                    refs.traces.remove(0);
                    refs.evictions += 1;
                }
                let n_phys = self.topology.num_qubits() as usize;
                (seed, Arc::new(ReferenceTrace::compute(&self.transpiled.circuit, n_phys, seed)))
            }
        };
        refs.traces.push(entry.clone());
        entry.1
    }

    /// `(cached reference traces, evictions so far)`.
    pub(crate) fn reference_stats(&self) -> (usize, u64) {
        let refs = self.references.lock().unwrap_or_else(PoisonError::into_inner);
        (refs.traces.len(), refs.evictions)
    }
}

/// A campaign's shots split into `frame_chunk`-shot chunks, the last one
/// possibly short. Every RNG stream is keyed on a chunk index of this
/// grid, so the grid depends on the shot count and the chunk knob only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkGrid {
    pub(crate) shots: usize,
    pub(crate) frame_chunk: usize,
}

impl ChunkGrid {
    /// Number of chunks.
    pub(crate) fn count(self) -> usize {
        self.shots.div_ceil(self.frame_chunk)
    }

    /// Shots in chunk `chunk`.
    pub(crate) fn width(self, chunk: usize) -> usize {
        self.frame_chunk.min(self.shots - self.offset(chunk))
    }

    /// Global index of chunk `chunk`'s first shot.
    pub(crate) fn offset(self, chunk: usize) -> usize {
        chunk * self.frame_chunk
    }
}

/// The per-engine half of the core: sampler, master seed, chunk grid, the
/// workers' workspace pool and the registry its gauges mirror into.
pub(crate) struct Campaign {
    pub(crate) sampler: SamplerKind,
    pub(crate) seed: u64,
    pub(crate) grid: ChunkGrid,
    pub(crate) pool: WorkspacePool,
    pub(crate) metrics: Arc<MetricsRegistry>,
}

impl Campaign {
    /// The pool's counters, mirrored into the registry's `workspace.*`
    /// gauges.
    pub(crate) fn workspace_stats(&self) -> WorkspaceStats {
        let stats = self.pool.stats();
        self.metrics.gauge(names::WORKSPACE_ALLOCATED).set(stats.allocated);
        self.metrics.gauge(names::WORKSPACE_REUSED).set(stats.reused);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{RepetitionCode, XxzzCode};
    use crate::injection::InjectionEngine;
    use crate::streaming::StreamEngine;
    use radqec_topology::generators::linear;

    fn rep5() -> CodeSpec {
        RepetitionCode::bit_flip(5).into()
    }

    #[test]
    fn try_build_rejects_a_topology_smaller_than_the_circuit() {
        let err = InjectionEngine::builder(XxzzCode::new(3, 3).into())
            .topology(linear(5))
            .try_build()
            .err();
        let want = EngineBuildError::TopologyTooSmall {
            topology: "linear5".into(),
            circuit: "xxzz-(3,3)".into(),
        };
        assert_eq!(err, Some(want.clone()));
        assert_eq!(want.to_string(), "topology linear5 too small for xxzz-(3,3)");
        let err = StreamEngine::builder(rep5(), 3).topology(linear(5)).try_build().err();
        assert!(matches!(err, Some(EngineBuildError::TopologyTooSmall { .. })), "{err:?}");
    }

    #[test]
    fn try_build_rejects_zero_shots_and_a_zero_frame_chunk() {
        let err = InjectionEngine::builder(rep5()).shots(0).try_build().err();
        assert_eq!(err, Some(EngineBuildError::NoShots));
        assert_eq!(EngineBuildError::NoShots.to_string(), "need at least one shot");
        let err = StreamEngine::builder(rep5(), 3).frame_chunk(0).try_build().err();
        assert_eq!(err, Some(EngineBuildError::ZeroFrameChunk));
        let err = StreamEngine::builder(rep5(), 3).shots(0).try_build().err();
        assert_eq!(err, Some(EngineBuildError::NoShots));
        let err = InjectionEngine::builder(rep5()).frame_chunk(0).try_build().err();
        assert_eq!(err, Some(EngineBuildError::ZeroFrameChunk));
        assert!(InjectionEngine::builder(rep5()).shots(1).frame_chunk(1).try_build().is_ok());
    }

    #[test]
    fn try_build_rejects_an_invalid_layout_table() {
        let mut l2p: Vec<u32> = (0..10).collect();
        l2p[3] = 10;
        let err = InjectionEngine::builder(rep5()).initial_layout(l2p.clone()).try_build().err();
        let out_of_range = EngineBuildError::Layout(LayoutError::OutOfRange { physical: 10 });
        assert_eq!(err, Some(out_of_range));
        l2p[3] = 7;
        let err = StreamEngine::builder(rep5(), 3)
            .topology(linear(10))
            .initial_layout(l2p)
            .try_build()
            .err();
        let twice = EngineBuildError::Layout(LayoutError::AssignedTwice { physical: 7 });
        assert_eq!(err, Some(twice.clone()));
        assert_eq!(twice.to_string(), "physical qubit 7 assigned twice");
    }

    #[test]
    fn try_build_rejects_a_layout_shorter_than_the_circuit() {
        let err = InjectionEngine::builder(rep5()).initial_layout(vec![0, 1, 2]).try_build().err();
        let want = EngineBuildError::LayoutTooShort { covers: 3, needs: 10 };
        assert_eq!(err, Some(want.clone()));
        assert_eq!(want.to_string(), "layout covers 3 logical qubits, circuit needs 10");
    }

    #[test]
    fn try_build_rejects_a_stream_of_fewer_than_two_rounds() {
        for rounds in [0, 1] {
            let err = StreamEngine::builder(rep5(), rounds).try_build().err();
            assert_eq!(err, Some(EngineBuildError::TooFewRounds { rounds }));
        }
        assert!(StreamEngine::builder(rep5(), 2).shots(1).try_build().is_ok());
    }

    #[test]
    #[should_panic(expected = "memory experiment needs at least 2 rounds, got 1")]
    fn build_panics_with_the_try_build_message() {
        let _ = StreamEngine::builder(rep5(), 1).build();
    }
}
