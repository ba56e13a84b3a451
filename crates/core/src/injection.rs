//! The fault-injection engine: builds a code, transpiles it onto a
//! topology, and measures post-decoding logical error rates under intrinsic
//! noise and injected faults — the machinery behind all four of the paper's
//! analyses (Sec. V).

use crate::codes::{CodeCircuit, CodeSpec};
use crate::decoder::{BulkDecoder, Decoder, DecoderMask};
use radqec_circuit::{Backend, Circuit, Qubit, ShotBatch, ShotRecord};
use radqec_noise::{
    run_noisy_shot_segmented, ActiveFault, FaultSpec, NoiseSpec, ResetBasis, StreamWorkspace,
};
use radqec_stabilizer::{ReferenceTrace, StabilizerBackend};
use radqec_telemetry::{names, MetricsRegistry};
use radqec_topology::{generators::fitting_mesh, Topology};
use radqec_transpiler::{transpile, TranspileOptions, Transpiled};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Which Monte-Carlo sampler backs [`InjectionEngine`] shots.
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
/// the full-device replay's. Build it once per engine; each call gathers
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
/// campaign keeps its historical 4×256 split (bit-identical to PR 1), while
/// 10⁵-shot sweeps get 4096-shot batches.
///
/// Chunk size used to trade parallelism against decode-memo effectiveness
/// (the per-batch memo was split across chunks); with the engine-level
/// cross-batch syndrome cache that coupling is gone and this is purely a
/// parallel-balance / working-set knob. Override per workload with
/// [`InjectionEngineBuilder::frame_chunk`].
pub fn default_frame_chunk(shots: usize) -> usize {
    let target = shots.div_ceil(16);
    let aligned = target.div_ceil(64) * 64;
    aligned.clamp(FRAME_CHUNK_MIN, FRAME_CHUNK_MAX)
}

/// Fluent configuration for [`InjectionEngine`].
pub struct InjectionEngineBuilder {
    spec: CodeSpec,
    topology: Option<Topology>,
    initial_layout: Option<Vec<u32>>,
    transpile_opts: TranspileOptions,
    sampler: SamplerKind,
    shots: usize,
    seed: u64,
    frame_chunk: Option<usize>,
}

impl InjectionEngineBuilder {
    /// Override the architecture graph (default: the smallest 5×k mesh that
    /// fits the code, the paper's scaled-down 5×6 lattice).
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Pin the initial logical→physical placement instead of searching
    /// (routing still runs; with a good table it inserts few or no SWAPs).
    /// The mitigation harness uses this to host codes on their native
    /// embeddings extended by a readout-ancilla seat.
    pub fn initial_layout(mut self, l2p: Vec<u32>) -> Self {
        self.initial_layout = Some(l2p);
        self
    }

    /// Override transpilation options.
    pub fn transpile_options(mut self, opts: TranspileOptions) -> Self {
        self.transpile_opts = opts;
        self
    }

    /// Select the shot sampler (default [`SamplerKind::FrameBatch`]).
    pub fn sampler(mut self, kind: SamplerKind) -> Self {
        self.sampler = kind;
        self
    }

    /// Shots per temporal sample (default 1000).
    pub fn shots(mut self, shots: usize) -> Self {
        assert!(shots > 0, "need at least one shot");
        self.shots = shots;
        self
    }

    /// Master seed; every (sample, shot) pair derives its own stream, so
    /// results are reproducible and independent of thread scheduling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the shots-per-frame-batch size (default:
    /// [`default_frame_chunk`] of the campaign's shot count). Changing it
    /// changes the per-chunk RNG streams, i.e. which shots are sampled —
    /// not the sampled distribution.
    pub fn frame_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "frame chunk must be positive");
        self.frame_chunk = Some(chunk);
        self
    }

    /// Build the engine (runs the transpiler once).
    pub fn build(self) -> InjectionEngine {
        let code = self.spec.build();
        let topology = self.topology.unwrap_or_else(|| fitting_mesh(code.total_qubits()));
        assert!(
            topology.num_qubits() >= code.total_qubits(),
            "topology {} too small for {}",
            topology.name(),
            code.name
        );
        let transpiled = match self.initial_layout {
            Some(l2p) => radqec_transpiler::transpile_with_layout(
                &code.circuit,
                &topology,
                radqec_transpiler::Layout::new(l2p, topology.num_qubits()),
                &self.transpile_opts,
            ),
            None => transpile(&code.circuit, &topology, &self.transpile_opts),
        };
        // The decoder records into the engine's registry, so one snapshot
        // covers workspace gauges and the whole `decode.*` family.
        let metrics = Arc::new(MetricsRegistry::new());
        let decoder = Box::new(BulkDecoder::with_metrics(&code, Arc::clone(&metrics)));
        InjectionEngine {
            code,
            topology,
            transpiled,
            tableau: OnceLock::new(),
            decoder,
            sampler: self.sampler,
            shots: self.shots,
            seed: self.seed,
            frame_chunk: self.frame_chunk.unwrap_or_else(|| default_frame_chunk(self.shots)),
            reference: OnceLock::new(),
            workspaces: Mutex::new(Vec::new()),
            metrics,
        }
    }
}

/// A ready-to-run injection campaign for one (code, topology) pair.
///
/// With [`SamplerKind::Tableau`], shots replay the transpiled circuit on
/// its used qubits only ([`TableauSampler`], built once per engine):
/// qubits no operation touches stay in |0⟩ and faults act only on gate
/// operands, so every record is bit-identical to a full-device replay's
/// while the tableau shrinks (Brooklyn's 65 qubits to 18 for
/// xxzz-(3,3)).
pub struct InjectionEngine {
    code: CodeCircuit,
    topology: Topology,
    transpiled: Transpiled,
    /// The transpiled circuit on its used qubits, for tableau shots,
    /// built on first use.
    tableau: OnceLock<TableauSampler>,
    /// Boxed on purpose: the dynamic call keeps the decode cascade from
    /// being inlined into the tableau shot loop. Inlining it cost that loop
    /// about 7 % when a tableau shot took ~55 µs (radbench `paper_d3`,
    /// 2-vCPU VM); it has not been re-measured since the qubit-major
    /// tableau on used qubits made those shots ~4× cheaper.
    decoder: Box<dyn Decoder>,
    sampler: SamplerKind,
    shots: usize,
    seed: u64,
    frame_chunk: usize,
    /// Noiseless reference trace for the frame sampler, computed on first
    /// use and shared by every sample/batch of the campaign.
    reference: OnceLock<ReferenceTrace>,
    /// Pooled per-worker stream workspaces (frame planes, record batches,
    /// Bernoulli scratch), recycled across chunks, samples and whole
    /// campaigns — the PR 4 streaming arena ported to the offline engine.
    /// Re-initialisation replays a fresh buffer's exact draw sequence, so
    /// pooling never changes a sampled stream.
    workspaces: Mutex<Vec<StreamWorkspace>>,
    /// Per-engine metrics registry — [`Self::workspace_stats`] mirrors
    /// the pool counters into its gauges on read.
    metrics: Arc<MetricsRegistry>,
}

/// Workspace-pool counters of an [`InjectionEngine`]'s lifetime (see
/// [`InjectionEngine::workspace_stats`]). Registry-backed: reading the
/// stats refreshes the `workspace.allocated` / `workspace.reused` gauges
/// in [`InjectionEngine::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Buffer allocations (frame/record/mask) over the engine's lifetime
    /// — stays flat once the pool is warm.
    pub allocated: u64,
    /// Chunk set-ups that reused every pooled buffer.
    pub reused: u64,
}

impl InjectionEngine {
    /// Start configuring an engine for `spec`.
    pub fn builder(spec: CodeSpec) -> InjectionEngineBuilder {
        InjectionEngineBuilder {
            spec,
            topology: None,
            initial_layout: None,
            transpile_opts: TranspileOptions::auto(),
            sampler: SamplerKind::default(),
            shots: 1000,
            seed: 0,
            frame_chunk: None,
        }
    }

    /// The sampler backing this engine's shots.
    pub fn sampler(&self) -> SamplerKind {
        self.sampler
    }

    /// The assembled (logical) code.
    pub fn code(&self) -> &CodeCircuit {
        &self.code
    }

    /// The architecture graph in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The transpiled physical circuit and layouts.
    pub fn transpiled(&self) -> &Transpiled {
        &self.transpiled
    }

    /// Physical qubits the routed circuit actually uses.
    pub fn used_physical_qubits(&self) -> Vec<u32> {
        self.transpiled.used_physical_qubits()
    }

    /// Shots per temporal sample.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Shots per Pauli-frame batch in use.
    pub fn frame_chunk(&self) -> usize {
        self.frame_chunk
    }

    /// Tier statistics of the engine's tiered MWPM decoder (always `Some`;
    /// see [`DecoderStats`](crate::decoder::DecoderStats)). Accumulates
    /// across every sample and batch of the engine's lifetime — the
    /// engine-level syndrome cache in action.
    pub fn decoder_stats(&self) -> Option<crate::decoder::DecoderStats> {
        self.decoder.decode_stats()
    }

    /// Logical error rate at one temporal sample of `fault` (shot-parallel).
    pub fn logical_error_at_sample(
        &self,
        fault: &FaultSpec,
        noise: &NoiseSpec,
        sample: usize,
    ) -> f64 {
        self.logical_error_at_sample_in_basis(fault, noise, sample, ResetBasis::Z)
    }

    /// Like [`Self::logical_error_at_sample`], with an explicit reset basis
    /// (the X-basis variant backs the reset-basis ablation).
    pub fn logical_error_at_sample_in_basis(
        &self,
        fault: &FaultSpec,
        noise: &NoiseSpec,
        sample: usize,
        basis: ResetBasis,
    ) -> f64 {
        let active = fault.activate(&self.topology, sample).with_basis(basis);
        let errors = match self.sampler {
            SamplerKind::FrameBatch => self.frame_errors_at_sample(&active, noise, sample),
            SamplerKind::Tableau => self.tableau_errors_at_sample(&active, noise, sample),
        };
        errors as f64 / self.shots as f64
    }

    /// Strike-aware counterpart of [`Self::logical_error_at_sample`]: the
    /// same sampled shots (identical RNG streams — estimates are *paired*
    /// with the unaware run), decoded with `mask` feeding the decoder's
    /// reweighting layer ([`Decoder::decode_batch_masked`]). The caller
    /// owns the mask's temporal decay: pass
    /// [`DecoderMask::scaled`](crate::decoder::DecoderMask::scaled) by the
    /// transient's `T(t_k)` to track the event across samples.
    pub fn masked_logical_error_at_sample(
        &self,
        fault: &FaultSpec,
        noise: &NoiseSpec,
        sample: usize,
        mask: &DecoderMask,
    ) -> f64 {
        let active = fault.activate(&self.topology, sample).with_basis(ResetBasis::Z);
        let errors: usize = match self.sampler {
            SamplerKind::FrameBatch => {
                let chunks = self.shots.div_ceil(self.frame_chunk);
                (0..chunks)
                    .into_par_iter()
                    .map(|chunk| {
                        let batch = self.frame_batch_chunk(&active, noise, sample, chunk);
                        self.decoder
                            .decode_batch_masked(&batch, mask)
                            .into_iter()
                            .filter(|&ok| !ok)
                            .count()
                    })
                    .sum()
            }
            SamplerKind::Tableau => {
                // Replay per shot, decode as one batch: the masked batch
                // path resolves the mask's solve context once per call
                // (per-shot `decode_masked` would take the mask-map lock
                // per shot across every rayon worker, and the batch tiers
                // are bit-identical to per-shot decoding anyway).
                let batch = self.tableau().batch(self.shots, noise, &[(0, &active)], |shot| {
                    mix_seed(self.seed, sample as u64, shot as u64)
                });
                self.decoder.decode_batch_masked(&batch, mask).into_iter().filter(|&ok| !ok).count()
            }
        };
        errors as f64 / self.shots as f64
    }

    /// The engine's decoder (for harnesses that decode sampled batches
    /// themselves, e.g. the mitigation sweep's paired masked/unaware
    /// comparisons over one set of shots).
    pub fn decoder(&self) -> &dyn Decoder {
        self.decoder.as_ref()
    }

    /// The engine's tableau sampler (relabelled once, on first use).
    fn tableau(&self) -> &TableauSampler {
        self.tableau.get_or_init(|| TableauSampler::new(&self.transpiled.circuit))
    }

    /// Per-shot tableau path: one CHP replay per shot on the circuit's
    /// used qubits, each decoded as it lands.
    fn tableau_errors_at_sample(
        &self,
        active: &ActiveFault,
        noise: &NoiseSpec,
        sample: usize,
    ) -> usize {
        self.tableau()
            .map_shots(
                self.shots,
                noise,
                &[(0, active)],
                |shot| mix_seed(self.seed, sample as u64, shot as u64),
                |record| usize::from(!self.decoder.decode(&record)),
            )
            .into_iter()
            .sum()
    }

    /// Frame-batch path: one noiseless reference (computed once per engine),
    /// then bit-packed Pauli frames — 64 shots per word — plus tiered batch
    /// decoding against the engine-lifetime syndrome cache.
    fn frame_errors_at_sample(
        &self,
        active: &ActiveFault,
        noise: &NoiseSpec,
        sample: usize,
    ) -> usize {
        let chunks = self.shots.div_ceil(self.frame_chunk);
        (0..chunks)
            .into_par_iter()
            .map(|chunk| {
                let batch = self.frame_batch_chunk(active, noise, sample, chunk);
                self.decoder.decode_batch(&batch).into_iter().filter(|&ok| !ok).count()
            })
            .sum()
    }

    /// Pop a pooled workspace (or start a fresh one). Poison-tolerant: a
    /// supervised worker panic elsewhere must not wedge the pool (pooled
    /// workspaces are only ever pushed whole, never half-updated).
    fn workspace(&self) -> StreamWorkspace {
        self.workspaces.lock().unwrap_or_else(PoisonError::into_inner).pop().unwrap_or_default()
    }

    /// Return a workspace to the pool (in-flight workspaces — abandoned
    /// mid-chunk by a panicking worker — are dropped, not pooled).
    fn pool(&self, ws: StreamWorkspace) {
        if ws.in_flight() {
            return;
        }
        self.workspaces.lock().unwrap_or_else(PoisonError::into_inner).push(ws);
    }

    /// Workspace-pool counters over the engine's lifetime: on a warm pool
    /// further campaigns must not allocate at all (pinned by the
    /// `warm_campaigns_allocate_nothing` regression test). Pooled
    /// (returned) workspaces only — read between campaigns, not
    /// mid-flight. Reading mirrors the counts into the engine registry's
    /// `workspace.*` gauges.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        let pool = self.workspaces.lock().unwrap_or_else(PoisonError::into_inner);
        let stats = WorkspaceStats {
            allocated: pool.iter().map(StreamWorkspace::allocations).sum(),
            reused: pool.iter().map(StreamWorkspace::reuses).sum(),
        };
        self.metrics.gauge(names::WORKSPACE_ALLOCATED).set(stats.allocated);
        self.metrics.gauge(names::WORKSPACE_REUSED).set(stats.reused);
        stats
    }

    /// This engine's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Sample one frame-batch chunk of a temporal sample: a distinct RNG
    /// stream per (sample, chunk), offset so frame streams never collide
    /// with the tableau path's per-shot ones. Buffers come from the
    /// engine's workspace pool; recycled chunks replay a fresh buffer's
    /// exact draw sequence, so the streams are bit-identical to the
    /// pre-pool implementation.
    fn frame_batch_chunk(
        &self,
        active: &ActiveFault,
        noise: &NoiseSpec,
        sample: usize,
        chunk: usize,
    ) -> ShotBatch {
        let circuit = &self.transpiled.circuit;
        let n_phys = self.topology.num_qubits() as usize;
        let reference = self.reference.get_or_init(|| {
            ReferenceTrace::compute(circuit, n_phys, mix_seed(self.seed, 0xFAB, 0x5EED))
        });
        let width = self.frame_chunk.min(self.shots - chunk * self.frame_chunk);
        let mut rng = StdRng::seed_from_u64(mix_seed(
            self.seed ^ 0xF7A3_0000_0000_0001,
            sample as u64,
            chunk as u64,
        ));
        let mut ws = self.workspace();
        let batch =
            ws.run_chunk(circuit, reference, noise, &[(0, active)], n_phys, width, &mut rng);
        self.pool(ws);
        batch
    }

    /// The frame sampler's bit-packed record batches for one temporal
    /// sample — the exact chunk grid and RNG streams
    /// [`Self::logical_error_at_sample`] decodes (Z reset basis), exposed
    /// so decode-path benchmarks and offline record analysis can run on a
    /// campaign's true syndrome mix.
    pub fn frame_batches_at_sample(
        &self,
        fault: &FaultSpec,
        noise: &NoiseSpec,
        sample: usize,
    ) -> Vec<ShotBatch> {
        let active = fault.activate(&self.topology, sample).with_basis(ResetBasis::Z);
        (0..self.shots.div_ceil(self.frame_chunk))
            .map(|chunk| self.frame_batch_chunk(&active, noise, sample, chunk))
            .collect()
    }

    /// Run the full fault evolution: one logical-error estimate per temporal
    /// sample (a single sample for non-evolving faults).
    pub fn run(&self, fault: &FaultSpec, noise: &NoiseSpec) -> InjectionOutcome {
        let per_sample: Vec<f64> = (0..fault.num_samples())
            .map(|s| self.logical_error_at_sample(fault, noise, s))
            .collect();
        InjectionOutcome { per_sample, shots_per_sample: self.shots }
    }
}

/// Aggregated result of an injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionOutcome {
    /// Logical error rate at each temporal sample of the fault.
    pub per_sample: Vec<f64>,
    /// Shots contributing to each estimate.
    pub shots_per_sample: usize,
}

impl InjectionOutcome {
    /// Mean logical error over the fault's whole duration.
    pub fn logical_error_rate(&self) -> f64 {
        crate::stats::mean(&self.per_sample)
    }

    /// Median logical error over the fault's duration (the paper's Fig. 8
    /// per-qubit statistic).
    pub fn median_logical_error(&self) -> f64 {
        crate::stats::median(&self.per_sample)
    }

    /// Worst (impact-time) logical error.
    pub fn peak_logical_error(&self) -> f64 {
        self.per_sample.iter().copied().fold(0.0, f64::max)
    }
}

/// SplitMix64-style seed mixing: decorrelates per-(sample, shot) streams
/// from the master seed without any sequential dependency between shots.
#[inline]
#[doc(hidden)]
pub fn mix_seed(seed: u64, sample: u64, shot: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(sample.wrapping_add(1)))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(shot.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{RepetitionCode, XxzzCode};
    use radqec_noise::RadiationModel;

    #[test]
    fn noiseless_faultless_runs_have_zero_logical_error() {
        for spec in [
            CodeSpec::from(RepetitionCode::bit_flip(3)),
            CodeSpec::from(RepetitionCode::bit_flip(5)),
            CodeSpec::from(XxzzCode::new(3, 3)),
            CodeSpec::from(XxzzCode::new(3, 1)),
            CodeSpec::from(XxzzCode::new(1, 3)),
        ] {
            let engine = InjectionEngine::builder(spec).shots(64).seed(1).build();
            let out = engine.run(&FaultSpec::None, &NoiseSpec::noiseless());
            assert_eq!(out.logical_error_rate(), 0.0, "{}", engine.code().name);
        }
    }

    #[test]
    fn default_topology_matches_paper_lattices() {
        let e = InjectionEngine::builder(RepetitionCode::bit_flip(5).into()).shots(1).build();
        assert_eq!(e.topology().name(), "mesh5x2");
        let e = InjectionEngine::builder(XxzzCode::new(3, 3).into()).shots(1).build();
        assert_eq!(e.topology().name(), "mesh5x4");
    }

    #[test]
    fn certain_root_strike_causes_errors() {
        let engine =
            InjectionEngine::builder(RepetitionCode::bit_flip(5).into()).shots(200).seed(3).build();
        let fault = FaultSpec::Radiation { model: RadiationModel::default(), root: 2 };
        let at_impact = engine.logical_error_at_sample(&fault, &NoiseSpec::noiseless(), 0);
        assert!(at_impact > 0.05, "impact error rate {at_impact}");
        // Late in the event the fault has decayed to near-nothing.
        let late = engine.logical_error_at_sample(&fault, &NoiseSpec::noiseless(), 9);
        assert!(late < at_impact, "late {late} vs impact {at_impact}");
    }

    #[test]
    fn outcome_statistics() {
        let o = InjectionOutcome { per_sample: vec![0.5, 0.1, 0.3], shots_per_sample: 10 };
        assert!((o.logical_error_rate() - 0.3).abs() < 1e-12);
        assert!((o.median_logical_error() - 0.3).abs() < 1e-12);
        assert_eq!(o.peak_logical_error(), 0.5);
    }

    #[test]
    fn runs_are_reproducible() {
        let engine =
            InjectionEngine::builder(XxzzCode::new(3, 3).into()).shots(100).seed(42).build();
        let fault = FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 1 };
        let a = engine.run(&fault, &NoiseSpec::paper_default());
        let b = engine.run(&fault, &NoiseSpec::paper_default());
        assert_eq!(a, b);
    }

    #[test]
    fn default_frame_chunk_policy() {
        // Historical default preserved: 1000-shot campaigns split 4×256.
        assert_eq!(default_frame_chunk(1000), 256);
        assert_eq!(default_frame_chunk(1), 256);
        assert_eq!(default_frame_chunk(100_000), 4096);
        // Word-aligned in the adaptive middle range.
        assert_eq!(default_frame_chunk(16_000) % 64, 0);
        assert!((256..=4096).contains(&default_frame_chunk(50_000)));
        let engine =
            InjectionEngine::builder(RepetitionCode::bit_flip(3).into()).shots(1000).build();
        assert_eq!(engine.frame_chunk(), 256);
        let engine = InjectionEngine::builder(RepetitionCode::bit_flip(3).into())
            .shots(1000)
            .frame_chunk(128)
            .build();
        assert_eq!(engine.frame_chunk(), 128);
    }

    #[test]
    fn frame_chunk_does_not_change_the_distribution_only_the_streams() {
        // Same campaign, different chunkings: logical error rates must agree
        // within sampling noise (they are different draws of the same
        // distribution, not the same draws).
        let fault = FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 2 };
        let rates: Vec<f64> = [256usize, 512]
            .iter()
            .map(|&chunk| {
                let engine = InjectionEngine::builder(RepetitionCode::bit_flip(5).into())
                    .shots(4000)
                    .seed(9)
                    .frame_chunk(chunk)
                    .build();
                engine.logical_error_at_sample(&fault, &NoiseSpec::paper_default(), 0)
            })
            .collect();
        assert!((rates[0] - rates[1]).abs() < 0.05, "{rates:?}");
    }

    #[test]
    fn engine_decodes_with_the_tiered_mwpm_decoder() {
        let engine = InjectionEngine::builder(RepetitionCode::bit_flip(5).into()).shots(64).build();
        assert_eq!(engine.decoder().name(), "mwpm[rep-(5,1)]");
        assert!(engine.decoder_stats().is_some(), "engine decoder must expose tier stats");
    }

    #[test]
    fn engine_cache_is_shared_across_samples_and_batches() {
        let engine = InjectionEngine::builder(RepetitionCode::bit_flip(5).into())
            .shots(512)
            .seed(4)
            .frame_chunk(128) // four batches per sample
            .build();
        let fault = FaultSpec::Radiation { model: RadiationModel::default(), root: 2 };
        let _ = engine.run(&fault, &NoiseSpec::paper_default());
        let stats = engine.decoder_stats().expect("default decoder tracks stats");
        assert_eq!(stats.shots, 512 * 10, "10 temporal samples of 512 shots");
        assert_eq!(
            stats.shots,
            stats.trivial + stats.cache_hits + stats.analytic + stats.matchings
        );
        // rep-5 is LUT-eligible: at most 2^8 distinct syndromes can ever
        // miss, everything else must be answered by the shared table.
        assert!(stats.matchings <= 256, "matchings {}", stats.matchings);
        assert!(
            stats.cache_hits > stats.matchings,
            "cache hits {} should dominate matchings {}",
            stats.cache_hits,
            stats.matchings
        );
    }

    #[test]
    fn warm_campaigns_allocate_nothing() {
        // The PR 4 workspace pool, ported to the offline engine: after the
        // first campaign warms the pool, a whole further fig-style sweep
        // (all temporal samples, several chunks each) must reuse every
        // pooled buffer without a single new allocation. Pool demand equals
        // peak chunk concurrency, which under the shared rayon pool depends
        // on scheduler timing (the second campaign may overlap more chunks
        // than the first ever did) — so pin the campaigns to one worker,
        // where both peak at exactly one workspace.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            let engine = InjectionEngine::builder(RepetitionCode::bit_flip(5).into())
                .shots(512)
                .seed(6)
                .frame_chunk(128)
                .build();
            let fault = FaultSpec::Radiation { model: RadiationModel::default(), root: 2 };
            let a = engine.run(&fault, &NoiseSpec::paper_default());
            let warm = engine.workspace_stats();
            assert!(warm.allocated > 0, "first campaign must have populated the pool");
            let b = engine.run(&fault, &NoiseSpec::paper_default());
            let after = engine.workspace_stats();
            assert_eq!(a, b, "pooling must not change the sampled streams");
            assert_eq!(after.allocated, warm.allocated, "warm campaign allocated buffers");
            assert!(after.reused > warm.reused, "reuse counter must grow: {}", after.reused);
            // Registry-backed view: the gauges mirror the struct.
            let snap = engine.metrics().snapshot();
            assert_eq!(snap.gauges["workspace.allocated"], after.allocated);
            assert_eq!(snap.gauges["workspace.reused"], after.reused);
        });
    }

    #[test]
    fn masked_decoding_with_noop_mask_matches_unaware() {
        use crate::decoder::DecoderMask;
        let engine =
            InjectionEngine::builder(RepetitionCode::bit_flip(5).into()).shots(256).seed(8).build();
        let fault = FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 2 };
        let noise = NoiseSpec::paper_default();
        let unaware = engine.logical_error_at_sample(&fault, &noise, 0);
        let noop = DecoderMask::from_probs(vec![0.0; 5], vec![0.0; 4]);
        let masked = engine.masked_logical_error_at_sample(&fault, &noise, 0, &noop);
        assert_eq!(masked, unaware, "no-op mask must be bit-identical to unaware decoding");
        let stats = engine.decoder_stats().unwrap();
        assert_eq!(stats.mask_contexts, 0, "no-op masks must not intern a context");
    }

    #[test]
    fn mix_seed_decorrelates() {
        let a = mix_seed(1, 0, 0);
        let b = mix_seed(1, 0, 1);
        let c = mix_seed(1, 1, 0);
        let d = mix_seed(2, 0, 0);
        assert!(a != b && a != c && a != d && b != c);
    }
}
