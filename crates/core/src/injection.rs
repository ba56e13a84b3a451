//! The fault-injection engine: builds a code, transpiles it onto a
//! topology, and measures post-decoding logical error rates under intrinsic
//! noise and injected faults — the machinery behind all four of the paper's
//! analyses (Sec. V).
//!
//! The engine sits on the campaign core ([`crate::campaign`]) it shares
//! with the stream engine: builder knobs, host step (placement,
//! transpilation, tableau sampler, reference traces), chunk grid and
//! workspace pool. It keeps the two-round [`CodeCircuit`], its
//! [`BulkDecoder`] and the rayon loop over a sample's chunks or shots.

pub use crate::campaign::{default_frame_chunk, SamplerKind, TableauSampler};
use crate::campaign::{Campaign, EngineBuildError, EngineBuilder, Host};
use crate::codes::{CodeCircuit, CodeSpec};
use crate::decoder::{BulkDecoder, DecoderMask, DecoderStats};
use radqec_circuit::ShotBatch;
pub use radqec_noise::WorkspaceStats;
use radqec_noise::{ActiveFault, FaultSpec, NoiseSpec, ResetBasis};
use radqec_stabilizer::ReferenceTrace;
use radqec_telemetry::MetricsRegistry;
use radqec_topology::Topology;
use radqec_transpiler::Transpiled;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::Arc;

/// Fluent configuration for [`InjectionEngine`]: the shared campaign
/// knobs, with no knobs of its own.
pub type InjectionEngineBuilder = EngineBuilder<()>;

impl InjectionEngineBuilder {
    /// Build the engine (runs the transpiler once).
    ///
    /// # Panics
    /// Panics on a configuration [`Self::try_build`] rejects.
    pub fn build(self) -> InjectionEngine {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::build`]: `Err` on zero shots, a zero frame chunk, a
    /// topology smaller than the code or an invalid or too short initial
    /// layout.
    pub fn try_build(self) -> Result<InjectionEngine, EngineBuildError> {
        // The decoder records into the engine's registry, so one snapshot
        // covers workspace gauges and the whole `decode.*` family.
        let campaign = self.campaign(Arc::new(MetricsRegistry::new()))?;
        let code = self.spec.build();
        let host = Host::place(&code.circuit, &code.name, self.placement)?;
        let decoder = BulkDecoder::with_metrics(&code, Arc::clone(&campaign.metrics));
        Ok(InjectionEngine { code, host, decoder, campaign })
    }
}

/// A ready-to-run injection campaign for one (code, topology) pair. With
/// [`SamplerKind::Tableau`], shots replay the transpiled circuit on its
/// used qubits only ([`TableauSampler`]), record for record as on the
/// full device.
pub struct InjectionEngine {
    code: CodeCircuit,
    host: Host,
    decoder: BulkDecoder,
    /// Sampler, seed, chunk grid, workspace pool and registry.
    campaign: Campaign,
}

impl InjectionEngine {
    /// Start configuring an engine for `spec`.
    pub fn builder(spec: CodeSpec) -> InjectionEngineBuilder {
        EngineBuilder::new(spec, ())
    }

    /// The sampler backing this engine's shots.
    pub fn sampler(&self) -> SamplerKind {
        self.campaign.sampler
    }

    /// The assembled (logical) code.
    pub fn code(&self) -> &CodeCircuit {
        &self.code
    }

    /// The architecture graph in use.
    pub fn topology(&self) -> &Topology {
        &self.host.topology
    }

    /// The transpiled physical circuit and layouts.
    pub fn transpiled(&self) -> &Transpiled {
        &self.host.transpiled
    }

    /// Physical qubits the routed circuit actually uses.
    pub fn used_physical_qubits(&self) -> Vec<u32> {
        self.host.transpiled.used_physical_qubits()
    }

    /// Shots per temporal sample.
    pub fn shots(&self) -> usize {
        self.campaign.grid.shots
    }

    /// Shots per Pauli-frame batch in use.
    pub fn frame_chunk(&self) -> usize {
        self.campaign.grid.frame_chunk
    }

    /// Decode statistics of the engine's bulk MWPM decoder (always `Some`;
    /// see [`DecoderStats`]). Accumulates across every sample and batch of
    /// the engine's lifetime — the engine-level syndrome cache in action.
    pub fn decoder_stats(&self) -> Option<DecoderStats> {
        Some(self.decoder.decode_stats())
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
        self.error_rate(fault, noise, sample, basis, None)
    }

    /// Strike-aware counterpart of [`Self::logical_error_at_sample`]: the
    /// same sampled shots (identical RNG streams — estimates are *paired*
    /// with the unaware run), decoded with `mask` feeding the decoder's
    /// reweighting layer ([`BulkDecoder::decode_batch_masked`]). The caller
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
        self.error_rate(fault, noise, sample, ResetBasis::Z, Some(mask))
    }

    /// The engine's decoder (for harnesses that decode sampled batches
    /// themselves, e.g. the mitigation sweep's paired masked/unaware
    /// comparisons over one set of shots).
    pub fn decoder(&self) -> &BulkDecoder {
        &self.decoder
    }

    /// Logical error rate at one temporal sample, decoded with `mask` when
    /// given.
    fn error_rate(
        &self,
        fault: &FaultSpec,
        noise: &NoiseSpec,
        sample: usize,
        basis: ResetBasis,
        mask: Option<&DecoderMask>,
    ) -> f64 {
        let active = fault.activate(&self.host.topology, sample).with_basis(basis);
        let shots = self.shots();
        let seed = |shot: usize| mix_seed(self.campaign.seed, sample as u64, shot as u64);
        let errors = match (self.campaign.sampler, mask) {
            (SamplerKind::FrameBatch, _) => self.frame_errors(&active, noise, sample, mask),
            // Per-shot tableau path: one CHP replay per shot on the
            // circuit's used qubits, each decoded as it lands.
            (SamplerKind::Tableau, None) => self
                .host
                .tableau()
                .map_shots(shots, noise, &[(0, &active)], seed, |record| {
                    usize::from(!self.decoder.decode(&record))
                })
                .into_iter()
                .sum(),
            // Replay per shot, decode as one batch: the masked batch path
            // resolves the mask's solve context once per call (per-shot
            // `decode_masked` would take the mask-map lock per shot across
            // every rayon worker, and the batch tiers are bit-identical to
            // per-shot decoding anyway).
            (SamplerKind::Tableau, Some(mask)) => {
                let batch = self.host.tableau().batch(shots, noise, &[(0, &active)], seed);
                count_errors(self.decoder.decode_batch_masked(&batch, mask))
            }
        };
        errors as f64 / shots as f64
    }

    /// Frame-batch path: one rayon task per chunk of bit-packed Pauli
    /// frames, decoded against the engine-lifetime syndrome cache.
    fn frame_errors(
        &self,
        active: &ActiveFault,
        noise: &NoiseSpec,
        sample: usize,
        mask: Option<&DecoderMask>,
    ) -> usize {
        let reference = self.reference();
        (0..self.campaign.grid.count())
            .into_par_iter()
            .map(|chunk| {
                let batch = self.frame_batch_chunk(&reference, active, noise, sample, chunk);
                count_errors(match mask {
                    Some(mask) => self.decoder.decode_batch_masked(&batch, mask),
                    None => self.decoder.decode_batch(&batch),
                })
            })
            .sum()
    }

    /// Workspace-pool counters over the engine's lifetime, mirrored into
    /// the registry's `workspace.*` gauges: on a warm pool further
    /// campaigns allocate nothing. Read them between campaigns.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.campaign.workspace_stats()
    }

    /// This engine's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.campaign.metrics
    }

    /// The frame sampler's noiseless reference trace, computed on first
    /// use and shared by every sample and chunk of the engine.
    fn reference(&self) -> Arc<ReferenceTrace> {
        self.host.reference(mix_seed(self.campaign.seed, 0xFAB, 0x5EED))
    }

    /// Sample one frame-batch chunk of a temporal sample: a distinct RNG
    /// stream per (sample, chunk), offset so frame streams never collide
    /// with the tableau path's per-shot ones, on a pooled workspace (a
    /// recycled one replays a fresh buffer's exact draws).
    fn frame_batch_chunk(
        &self,
        reference: &ReferenceTrace,
        active: &ActiveFault,
        noise: &NoiseSpec,
        sample: usize,
        chunk: usize,
    ) -> ShotBatch {
        let circuit = &self.host.transpiled.circuit;
        let n_phys = self.host.topology.num_qubits() as usize;
        let mut rng = StdRng::seed_from_u64(mix_seed(
            self.campaign.seed ^ 0xF7A3_0000_0000_0001,
            sample as u64,
            chunk as u64,
        ));
        let mut ws = self.campaign.pool.take();
        let width = self.campaign.grid.width(chunk);
        let batch =
            ws.run_chunk(circuit, reference, noise, &[(0, active)], n_phys, width, &mut rng);
        self.campaign.pool.put(ws);
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
        let active = fault.activate(&self.host.topology, sample).with_basis(ResetBasis::Z);
        let reference = self.reference();
        (0..self.campaign.grid.count())
            .map(|chunk| self.frame_batch_chunk(&reference, &active, noise, sample, chunk))
            .collect()
    }

    /// Run the full fault evolution: one logical-error estimate per temporal
    /// sample (a single sample for non-evolving faults).
    pub fn run(&self, fault: &FaultSpec, noise: &NoiseSpec) -> InjectionOutcome {
        let per_sample: Vec<f64> = (0..fault.num_samples())
            .map(|s| self.logical_error_at_sample(fault, noise, s))
            .collect();
        InjectionOutcome { per_sample, shots_per_sample: self.shots() }
    }
}

/// Decoding failures in one batch's per-shot success flags.
fn count_errors(ok: Vec<bool>) -> usize {
    ok.into_iter().filter(|&ok| !ok).count()
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
        assert_eq!(engine.decoder().graph().primary_count(), 4);
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
        assert_eq!(stats.shots, stats.trivial + stats.cache_hits + stats.matchings);
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
