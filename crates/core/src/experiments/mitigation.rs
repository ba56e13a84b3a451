//! Strike-aware mitigation sweep — the detect→decode loop, measured.
//!
//! PR 3/4 taught the pipeline to *see* strikes (online detection +
//! localization); this harness measures what feeding that knowledge back
//! into decoding buys: for each strike geometry (root position) × mask
//! policy × code distance, the paper's two-round injection experiment is
//! sampled **once** per temporal sample and decoded three ways over the
//! *same* shots —
//!
//! * **unaware** — the plain tiered MWPM decoder (the baseline every other
//!   row is paired against; identical RNG streams, so logical-error deltas
//!   carry no sampling noise between policies);
//! * **oracle** — a [`StrikeMask`] at the *true* root, its intensity
//!   tracking the transient's `T(t_k)` — the upper bound of the loop's
//!   gain (perfect localization);
//! * **detected** — the closed loop: a multi-round syndrome stream of the
//!   same strike is run through the spatial clusterer
//!   ([`Localizer`]) on the code's native
//!   embedding, the modal root estimate is mapped back into the offline
//!   device frame, and the mask is planted there — localization error and
//!   all.
//!
//! Masks decay with the event: at sample `t_k` the mask is scaled by
//! `T(t_k)`, so late samples quantise to the no-op mask and decode on the
//! unaware path outright (the mask-keyed cache dimension of
//! [`BulkDecoder`](crate::decoder::BulkDecoder) interns one context per
//! distinct quantised weight assignment — a handful per sweep).
//!
//! ## Exactness caveats
//!
//! Shots come from the frame sampler (the acceptance workload's sampler):
//! exact in distribution for repetition codes under every fault; strikes
//! on *entangled* XXZZ data use the erasure-to-maximally-mixed
//! substitution (upward-biased logical error, see `radqec_stabilizer`).
//! The bias applies *identically* to every policy of a row — the decoders
//! see the same records — so masked-vs-unaware deltas remain meaningful;
//! absolute XXZZ LERs under strike carry the documented bias. The
//! projection of a physical-space mask into the decoder's logical frame
//! goes through the transpiled circuit's initial layout and is exact on
//! SWAP-free hosts, approximate where routing migrates qubits.

use crate::codes::{CodeCircuit, CodeSpec};
use crate::decoder::DecoderMask;
use crate::injection::InjectionEngine;
use crate::streaming::{StreamEngine, StreamFault};
use radqec_detect::{EventStream, Localizer, StrikeMask};
use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};
use radqec_topology::{generators::linear, Topology};

/// How the decoder is told about the strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskPolicy {
    /// No mask — the baseline decoder.
    Unaware,
    /// Mask at the true strike root (perfect localization).
    Oracle,
    /// Mask at the root the online clusterer estimated from a streamed
    /// campaign of the same strike (the closed detect→decode loop).
    Detected,
}

impl MaskPolicy {
    /// Row label.
    pub fn name(&self) -> &'static str {
        match self {
            MaskPolicy::Unaware => "unaware",
            MaskPolicy::Oracle => "oracle",
            MaskPolicy::Detected => "detected",
        }
    }
}

/// Configuration of a mitigation sweep.
pub struct MitigationConfig {
    /// Codes under test (the distance dimension).
    pub codes: Vec<CodeSpec>,
    /// Shots per temporal sample (default 1000).
    pub shots: usize,
    /// Intrinsic noise (default: the paper's 1%).
    pub noise: NoiseSpec,
    /// Radiation model (γ, `n_s` temporal samples, spatial constant).
    pub model: RadiationModel,
    /// Mask ring radius in hops (default 3: the strike's spatial profile
    /// is still ~11% per gate two hops out — compounding to ~35% per
    /// round — and the clusterer's median localization error is 2 hops,
    /// so a detected mask still covers the true root; measured deltas
    /// roughly triple going from radius 2 to 3 and flatten beyond).
    pub radius: u32,
    /// Strike positions in the offline engine's physical frame. `None`:
    /// three data-carrying sites per code (first / central / last), the
    /// corner-to-centre geometry axis.
    pub roots: Option<Vec<u32>>,
    /// Mask policies to evaluate (default: all three).
    pub policies: Vec<MaskPolicy>,
    /// Streamed shots of the closed-loop detection campaign (default 512).
    pub detect_shots: usize,
    /// Rounds per shot of the detection campaign (default 10).
    pub detect_rounds: usize,
    /// Master seed.
    pub seed: u64,
}

impl MitigationConfig {
    /// Default sweep for `codes`.
    pub fn new(codes: Vec<CodeSpec>) -> Self {
        MitigationConfig {
            codes,
            shots: 1000,
            noise: NoiseSpec::paper_default(),
            model: RadiationModel::default(),
            radius: 3,
            roots: None,
            policies: vec![MaskPolicy::Unaware, MaskPolicy::Oracle, MaskPolicy::Detected],
            detect_shots: 512,
            detect_rounds: 10,
            seed: 0x3117_C0DE,
        }
    }
}

/// One (code × root × policy) cell of the sweep.
#[derive(Debug, Clone)]
pub struct MitigationRow {
    /// Code name, e.g. `xxzz-(5,5)`.
    pub code_name: String,
    /// True strike root (offline physical frame).
    pub root: u32,
    /// Mask policy (`unaware`, `oracle`, `detected`).
    pub policy: &'static str,
    /// Root the mask was planted at (`None` for unaware).
    pub mask_root: Option<u32>,
    /// Mean logical error over the event's temporal samples.
    pub ler: f64,
    /// Logical error at the impact sample (`t = 0`).
    pub peak_ler: f64,
}

/// Result of a mitigation sweep.
#[derive(Debug, Clone)]
pub struct MitigationResult {
    /// Shots per temporal sample.
    pub shots: usize,
    /// Temporal samples per campaign.
    pub samples: usize,
    /// Per-(code, root, policy) rows, in sweep order.
    pub rows: Vec<MitigationRow>,
}

impl MitigationResult {
    /// The row of (code, root, policy), if present.
    pub fn row(&self, code_name: &str, root: u32, policy: &str) -> Option<&MitigationRow> {
        self.rows.iter().find(|r| r.code_name == code_name && r.root == root && r.policy == policy)
    }

    /// Best masked-vs-unaware improvement for `code_name` across roots and
    /// masked policies: `(root, policy, unaware LER − masked LER)`,
    /// largest delta first. Positive delta = masking lowered the logical
    /// error.
    pub fn best_masked_delta(&self, code_name: &str) -> Option<(u32, &'static str, f64)> {
        let mut best: Option<(u32, &'static str, f64)> = None;
        for r in self.rows.iter().filter(|r| r.code_name == code_name && r.policy != "unaware") {
            let unaware = self.row(code_name, r.root, "unaware")?;
            let delta = unaware.ler - r.ler;
            if best.is_none_or(|(_, _, d)| delta > d) {
                best = Some((r.root, r.policy, delta));
            }
        }
        best
    }

    /// CSV rendering:
    /// `code,root,policy,mask_root,ler,peak_ler`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("code,root,policy,mask_root,ler,peak_ler\n");
        for r in &self.rows {
            let mask_root = r.mask_root.map_or(String::new(), |v| v.to_string());
            out.push_str(&format!(
                "{},{},{},{mask_root},{:.6},{:.6}\n",
                r.code_name, r.root, r.policy, r.ler, r.peak_ler
            ));
        }
        out
    }
}

/// The two-round experiment's near-native host: the memory register's
/// SWAP-free embedding ([`CodeSpec::native_embedding`]) extended with a
/// seat for the readout ancilla. Stabilizer rounds stay SWAP-free; only
/// the one-off readout-chain collection routes, so the intrinsic error
/// stays far from chance and strike effects remain decodable. `None` for
/// codes without a native embedding (degenerate XXZZ lines).
fn native_experiment_host(spec: CodeSpec, code: &CodeCircuit) -> Option<(Topology, Vec<u32>)> {
    match spec {
        CodeSpec::Repetition(_) => {
            // linear(2d−1) is fully occupied; grow the chain by one cell
            // at the readout end (data 0 holds the readout chain) and
            // shift the register up, seating the readout ancilla at 0 —
            // adjacent to its only CX partner.
            let (topo, l2p) = spec.native_embedding()?;
            let n = topo.num_qubits();
            let mut l2p: Vec<u32> = l2p.into_iter().map(|p| p + 1).collect();
            l2p.push(0);
            Some((linear(n + 1), l2p))
        }
        _ => {
            // The (dz+dx−1)² mesh has spare cells; seat the readout
            // ancilla on the free cell closest to the readout chain.
            let (topo, l2p) = spec.native_embedding()?;
            let used: std::collections::HashSet<u32> = l2p.iter().copied().collect();
            let chain: Vec<Vec<u32>> = code
                .logical_readout_support
                .iter()
                .map(|&d| topo.distances_from(l2p[d as usize]))
                .collect();
            let seat = (0..topo.num_qubits()).filter(|q| !used.contains(q)).min_by_key(|&q| {
                let total: u64 =
                    chain.iter().map(|dists| u64::from(dists[q as usize].min(1 << 20))).sum();
                (total, q)
            })?;
            let mut l2p = l2p;
            l2p.push(seat);
            Some((topo, l2p))
        }
    }
}

/// Build the sweep's engine for `code`: the native experiment host when
/// the code has one, the default fitted mesh otherwise. Mitigation, like
/// detection, studies the device a deployed code would run on: the fitted
/// 5×k mesh needs hundreds of routing SWAPs for xxzz-(5,5), which push
/// the *intrinsic* logical error to chance and leave no signal for any
/// decoder, masked or not. Shared by [`run_mitigation`] and the
/// `mitigation_throughput` bench so their engines (and hence layouts,
/// strike frames and decode paths) agree.
pub fn mitigation_engine(cfg: &MitigationConfig, code: CodeSpec) -> InjectionEngine {
    let builder = InjectionEngine::builder(code).shots(cfg.shots).seed(cfg.seed);
    let builder = match native_experiment_host(code, &code.build()) {
        Some((topo, l2p)) => builder.topology(topo).initial_layout(l2p),
        None => builder,
    };
    builder.build()
}

/// Default strike geometries: the first, central and last data-carrying
/// physical sites of the routed circuit (deterministic, spanning the
/// boundary-to-centre axis the detection sweep also walks).
fn default_roots(engine: &InjectionEngine) -> Vec<u32> {
    let layout = &engine.transpiled().initial_layout;
    let data: Vec<u32> = engine.code().data_qubits.iter().map(|&d| layout.physical(d)).collect();
    let mut roots = vec![data[0], data[data.len() / 2], data[data.len() - 1]];
    roots.dedup();
    roots
}

/// The closed loop's localization stage: stream `detect_shots` shots of
/// the same strike on the code's native embedding, localize every shot
/// with the spatial clusterer, and return the modal root estimate mapped
/// back into the offline engine's physical frame (`None` when nothing
/// localized — quiet campaign).
fn detect_root(
    cfg: &MitigationConfig,
    code: CodeSpec,
    engine: &InjectionEngine,
    root: u32,
) -> Option<u32> {
    // The offline root is a data site; find its logical index so the
    // stream strikes the same *logical* qubit on its own (native) host.
    let logical = engine.transpiled().initial_layout.logical(root)?;
    let stream = StreamEngine::builder(code, cfg.detect_rounds)
        .shots(cfg.detect_shots)
        .seed(cfg.seed ^ 0xDE7E_C7ED)
        .native()
        .build();
    let native_root = stream.transpiled().initial_layout.physical(logical);
    let fault = StreamFault::Strike { model: cfg.model, root: native_root };
    let spec = stream.stream_spec();
    let localizer = Localizer::with_defaults(spec, stream.topology());
    let mut votes: std::collections::HashMap<u32, usize> = Default::default();
    for batch in stream.stream_batches(&fault, &cfg.noise) {
        let events = EventStream::extract(&batch, spec);
        for s in 0..events.shots() {
            if let Some(est) = localizer.localize(&events, s) {
                *votes.entry(est).or_default() += 1;
            }
        }
    }
    // Modal estimate, ties to the lowest index for determinism.
    let est = votes.into_iter().max_by_key(|&(q, n)| (n, std::cmp::Reverse(q))).map(|(q, _)| q)?;
    // Map the native-mesh estimate back to the offline frame through the
    // nearest *data* site (estimates can land on cells with no logical
    // assignment; data sites always have one).
    let dists = stream.topology().distances_from(est);
    let offline_layout = &engine.transpiled().initial_layout;
    let stream_layout = &stream.transpiled().initial_layout;
    engine
        .code()
        .data_qubits
        .iter()
        .map(|&d| (dists[stream_layout.physical(d) as usize], d))
        .min()
        .map(|(_, d)| offline_layout.physical(d))
}

/// Run the mitigation sweep.
pub fn run_mitigation(cfg: &MitigationConfig) -> MitigationResult {
    let samples = cfg.model.num_samples;
    let temporal = cfg.model.temporal_samples();
    let mut rows = Vec::new();
    for &code in &cfg.codes {
        let engine = mitigation_engine(cfg, code);
        let roots = cfg.roots.clone().unwrap_or_else(|| default_roots(&engine));
        let layout = engine.transpiled().initial_layout.clone();
        for &root in &roots {
            let fault = FaultSpec::Radiation { model: cfg.model, root };
            let detected = cfg
                .policies
                .contains(&MaskPolicy::Detected)
                .then(|| detect_root(cfg, code, &engine, root))
                .flatten();
            // One peak-intensity mask per mask source; temporal decay is a
            // rescale, so the spatial footprint is computed once.
            let base_mask = |mask_root: u32| {
                let strike = StrikeMask::try_new(engine.topology(), mask_root, cfg.radius, 1.0)
                    .expect("sweep roots are validated device qubits");
                DecoderMask::project(&strike, engine.code(), &layout)
            };
            // Per-policy error counts, accumulated over paired samples.
            let mut totals: Vec<f64> = vec![0.0; cfg.policies.len()];
            let mut peaks: Vec<f64> = vec![0.0; cfg.policies.len()];
            for (k, &decay) in temporal.iter().enumerate() {
                let batches = engine.frame_batches_at_sample(&fault, &cfg.noise, k);
                for (pi, policy) in cfg.policies.iter().enumerate() {
                    let mask = match policy {
                        MaskPolicy::Unaware => None,
                        MaskPolicy::Oracle => Some(base_mask(root).scaled(decay)),
                        MaskPolicy::Detected => detected.map(|r| base_mask(r).scaled(decay)),
                    };
                    let errors: usize = batches
                        .iter()
                        .map(|batch| {
                            let decoded = match &mask {
                                Some(m) => engine.decoder().decode_batch_masked(batch, m),
                                None => engine.decoder().decode_batch(batch),
                            };
                            decoded.into_iter().filter(|&ok| !ok).count()
                        })
                        .sum();
                    let rate = errors as f64 / cfg.shots as f64;
                    totals[pi] += rate;
                    if k == 0 {
                        peaks[pi] = rate;
                    }
                }
            }
            for (pi, policy) in cfg.policies.iter().enumerate() {
                rows.push(MitigationRow {
                    code_name: engine.code().name.clone(),
                    root,
                    policy: policy.name(),
                    mask_root: match policy {
                        MaskPolicy::Unaware => None,
                        MaskPolicy::Oracle => Some(root),
                        MaskPolicy::Detected => detected,
                    },
                    ler: totals[pi] / samples as f64,
                    peak_ler: peaks[pi],
                });
            }
        }
    }
    MitigationResult { shots: cfg.shots, samples, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::RepetitionCode;

    #[test]
    fn sweep_produces_paired_rows_per_policy() {
        let mut cfg = MitigationConfig::new(vec![RepetitionCode::bit_flip(5).into()]);
        cfg.shots = 256;
        cfg.detect_shots = 128;
        cfg.roots = Some(vec![2]);
        let res = run_mitigation(&cfg);
        // Every field pinned exactly (f64 by bit pattern): the sweep is
        // deterministic at a fixed seed, so any drift in the engine, mask
        // or closed-loop localization code shows up here.
        #[rustfmt::skip]
        let want = [
            ("rep-(5,1)", 2, "unaware", None, 0x3fc3000000000000, 0x3fe2600000000000),
            ("rep-(5,1)", 2, "oracle", Some(2), 0x3fc2a66666666666, 0x3fe1600000000000),
            ("rep-(5,1)", 2, "detected", Some(3), 0x3fc2cccccccccccd, 0x3fe1c00000000000),
        ];
        let got: Vec<_> = res
            .rows
            .iter()
            .map(|r| {
                let (code, policy) = (r.code_name.as_str(), r.policy);
                (code, r.root, policy, r.mask_root, r.ler.to_bits(), r.peak_ler.to_bits())
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(res.rows.len(), 3, "three policies per root");
        let unaware = res.row("rep-(5,1)", 2, "unaware").expect("unaware row");
        let oracle = res.row("rep-(5,1)", 2, "oracle").expect("oracle row");
        assert!(unaware.ler > 0.0, "a certain strike must cause logical errors");
        assert_eq!(oracle.mask_root, Some(2));
        assert!(unaware.mask_root.is_none());
        // Deltas are defined and finite; the sign is the experiment's
        // measurement, pinned at acceptance scale by the bench gate.
        let (_, _, delta) = res.best_masked_delta("rep-(5,1)").expect("masked rows present");
        assert!(delta.is_finite());
        let csv = res.to_csv();
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("code,root,policy"));
    }

    #[test]
    fn unaware_rows_match_the_engine_baseline() {
        // The sweep's unaware LER must equal the plain engine run on the
        // same seed (paired batches, same decode path).
        let mut cfg = MitigationConfig::new(vec![RepetitionCode::bit_flip(5).into()]);
        cfg.shots = 256;
        cfg.policies = vec![MaskPolicy::Unaware];
        cfg.roots = Some(vec![2]);
        let res = run_mitigation(&cfg);
        let engine = mitigation_engine(&cfg, RepetitionCode::bit_flip(5).into());
        let fault = FaultSpec::Radiation { model: cfg.model, root: 2 };
        let want = engine.run(&fault, &cfg.noise);
        let row = res.row("rep-(5,1)", 2, "unaware").unwrap();
        assert!((row.ler - want.logical_error_rate()).abs() < 1e-12);
        assert!((row.peak_ler - want.per_sample[0]).abs() < 1e-12);
    }
}
