//! Fleet-scale endurance campaigns on the supervised execution layer.
//!
//! Every other harness in this crate studies one code patch under one
//! radiation event. A deployed machine looks different: several logical
//! patches tiled on **one device mesh**, running syndrome extraction
//! continuously for thousands of rounds while strikes arrive at random —
//! a Poisson process in time, uniform over the device in space — and a
//! strike landing between two patches splashes into both (the spatial
//! profile `S(d)` knows nothing about patch boundaries). This module
//! reproduces that operating picture and measures the quantities a fleet
//! operator actually tracks:
//!
//! * **logical-error bursts per device-hour** — runs of consecutive
//!   correction windows in one replica (a patch working hard is a patch
//!   at elevated logical risk; see [`FleetConfig::burst_windows`]);
//! * **detection coverage** — the fraction of injected strikes whose
//!   onset window shows a per-round event count significantly above the
//!   quiet-time baseline in at least one patch;
//! * **time to recovery** — rounds from a strike's onset until the
//!   per-round event counts of *every* patch return to baseline and stay
//!   there, converted to microseconds via [`FleetConfig::round_time_us`].
//!
//! ## Execution layer
//!
//! Each patch runs as one [`StreamEngine`] campaign over the shared
//! device topology, driven by
//! [`StreamEngine::for_each_round_supervised`]: a panicking chunk is
//! quarantined and retried once, decode deadlines degrade gracefully
//! instead of stalling ([`TierConfig::deadline`]), and every cache in the
//! path has a hard ceiling. The per-chunk sink accumulates events
//! incrementally and resets its state at `slice.round == 0`, so a
//! retried chunk replays cleanly and a finished campaign is
//! bit-identical to a never-failed one.
//!
//! A chunk that finishes its last round becomes one chunk record: its
//! per-round event totals ([`EventStream::round_total`]), its
//! correction windows and its burst count. The records are the fleet's
//! only event count. [`FleetResult::per_patch_events`] merges them, and
//! strikes are scored from that merge by one [`ThresholdDetector`] spike
//! gate per patch. A chunk that fails both supervised attempts leaves no
//! record, so its partial rounds count nowhere.
//!
//! ## Checkpoint / resume
//!
//! Chunk results are pure functions of `(patch, chunk)` at a fixed seed,
//! and the fleet merge folds them in `(patch, chunk)` order with integer
//! sums — so progress serializes as the set of finished chunk records.
//! [`FleetConfig::checkpoint`] names a file holding that set (a
//! hand-rolled line format, no external dependencies); a killed campaign
//! rerun with the same config skips every recorded chunk and produces
//! **bit-identical** metrics to an uninterrupted run. A checkpoint whose
//! config digest disagrees is ignored wholesale.
//!
//! ## Decoding cost model
//!
//! Correction activity is measured by pair-decoding consecutive event
//! rounds `(2w, 2w+1)` through the same tiered [`BulkDecoder`] the
//! offline experiments use — the defect planes of the two-round decoder
//! are exactly two event rounds, so each window reuses the campaign-wide
//! syndrome cache. An odd final round is left unpaired (and unscored).
//!
//! ## Telemetry
//!
//! Every patch engine shares one fleet-wide
//! [`radqec_telemetry::MetricsRegistry`] and one [`FlightRecorder`];
//! each patch decoder keeps a private registry (so [`PatchSummary::decode`]
//! stays per-patch) whose snapshot is merged into
//! [`FleetResult::snapshot`] at the end. The flight recorder carries the
//! campaign's event log: every strike onset, the spike-gate alarm that
//! detected it, chunk retries/quarantines from the supervised driver, and
//! any degraded decodes or cache evictions a patch decoder reported.
//!
//! ### BENCH_fleet.json → registry metrics
//!
//! | BENCH field | registry metric | recorded by |
//! |---|---|---|
//! | `decode_latency_us_p50` / `_p99` | `stage.decode_ns` | [`BulkDecoder::decode_batch`] span per pair-decode window |
//! | `detection_latency_rounds_p50` / `_p99` | `detect.latency_rounds` | [`run_fleet`], alarm round − onset per detected strike |
//! | `time_to_recovery_us_p50` / `_p99` | `fleet.time_to_recovery_us` | [`run_fleet`], per recovered strike |
//! | `round_latency_us_p99` | `stream.round_ns` | [`StreamEngine`] per chunk-round (generation + sink) |
//!
//! Stage histograms record nanoseconds; the bench helper converts to
//! microseconds on export.

use crate::codes::{CodeCircuit, CodeSpec};
use crate::decoder::{BulkDecoder, Decoder, DecoderStats, TierConfig};
use crate::injection::mix_seed;
use crate::streaming::{CampaignReport, MultiStrike, StreamEngine, StreamFault, StrikeEvent};
use radqec_circuit::ShotBatch;
use radqec_detect::{EventAccumulator, EventStream, OnlineDetector, ThresholdDetector};
use radqec_noise::{NoiseSpec, RadiationModel};
use radqec_telemetry::{
    names, FlightEntry, FlightEvent, FlightRecorder, MetricsRegistry, MetricsSnapshot,
};
use radqec_topology::generators::{mesh, mesh_index};
use radqec_topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Configuration of a fleet endurance campaign.
pub struct FleetConfig {
    /// The code every patch runs (one fleet, one code family).
    pub code: CodeSpec,
    /// Patches tiled on the shared device mesh (default 3).
    pub patches: usize,
    /// Syndrome rounds of the continuing timeline (default 10 000).
    pub rounds: usize,
    /// Fleet replicas per patch — shots of each patch's campaign
    /// (default 64).
    pub shots: usize,
    /// Intrinsic noise (default: the paper's 1%).
    pub noise: NoiseSpec,
    /// Radiation model of every strike (γ, spatial constant).
    pub model: RadiationModel,
    /// Decay span of each strike's transient, in rounds
    /// ([`StrikeEvent::decay_rounds`]; default 25 — a strike is quiet
    /// again well within a thousand-round window).
    pub strike_decay_rounds: usize,
    /// Poisson arrival rate, strikes per 1000 rounds (default 2.0).
    pub strikes_per_kiloround: f64,
    /// Wall-clock duration of one syndrome round, for device-hour and
    /// recovery-time conversions (default 1 µs).
    pub round_time_us: f64,
    /// Rounds after a strike's onset searched for a detection spike
    /// (default: twice the decay span).
    pub detect_window: usize,
    /// Consecutive at-baseline rounds required to declare recovery
    /// (default 5).
    pub quiet_rounds: usize,
    /// Consecutive correcting windows in one replica that count as a
    /// logical-error burst (default 2).
    pub burst_windows: usize,
    /// Per-shot decode deadline (default: the decoder's own default).
    pub deadline: Option<Duration>,
    /// Sharded syndrome-cache ceiling per patch decoder.
    pub cache_capacity: usize,
    /// Mask-context ceiling per patch decoder.
    pub mask_capacity: usize,
    /// Master seed; every patch, chunk and strike stream derives from it.
    pub seed: u64,
    /// Shots per streamed chunk (default 64 — one chunk per patch at the
    /// default shot count).
    pub frame_chunk: usize,
    /// Progress file for kill/resume campaigns (`None`: run in memory).
    pub checkpoint: Option<PathBuf>,
    /// Cooperative kill switch: stop claiming new chunks once this many
    /// have been generated across the whole fleet (the remainder is
    /// skipped and left for a resumed run). `None`: run to completion.
    pub max_chunks: Option<usize>,
    /// Chaos hook: panic once inside the sink of `(patch, chunk)` to
    /// exercise the supervised retry path end to end.
    pub chaos_panic: Option<(usize, usize)>,
}

impl FleetConfig {
    /// Default fleet for `code`.
    pub fn new(code: CodeSpec) -> Self {
        FleetConfig {
            code,
            patches: 3,
            rounds: 10_000,
            shots: 64,
            noise: NoiseSpec::paper_default(),
            model: RadiationModel::default(),
            strike_decay_rounds: 25,
            strikes_per_kiloround: 2.0,
            round_time_us: 1.0,
            detect_window: 50,
            quiet_rounds: 5,
            burst_windows: 2,
            deadline: None,
            cache_capacity: TierConfig::default().cache_capacity,
            mask_capacity: crate::decoder::DEFAULT_MASK_CAPACITY,
            seed: 0xF1EE_7500,
            frame_chunk: 64,
            checkpoint: None,
            max_chunks: None,
            chaos_panic: None,
        }
    }

    /// The ISSUE 7 acceptance workload: three rep-(5,1) patches, 10⁴
    /// rounds, Poisson strikes, default deadlines.
    pub fn acceptance() -> Self {
        FleetConfig::new(crate::codes::RepetitionCode::bit_flip(5).into())
    }

    fn effective_deadline(&self) -> Option<Duration> {
        self.deadline.or(Some(crate::decoder::DEFAULT_DECODE_DEADLINE))
    }

    /// FNV-1a digest of every field that determines chunk records, used
    /// to reject checkpoints written under a different configuration.
    fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for b in self.code.name().bytes() {
            mix(u64::from(b));
        }
        mix(self.patches as u64);
        mix(self.rounds as u64);
        mix(self.shots as u64);
        mix(self.seed);
        mix(self.frame_chunk as u64);
        mix(self.strike_decay_rounds as u64);
        mix(self.strikes_per_kiloround.to_bits());
        mix(self.model.gamma.to_bits());
        mix(self.model.spatial_n.to_bits());
        mix(self.burst_windows as u64);
        h
    }
}

/// The fleet's device: every patch's native embedding translated onto one
/// shared mesh, one spacer row between vertically stacked patches.
pub struct FleetLayout {
    /// The shared device mesh.
    pub device: Topology,
    /// Mesh columns (the patch width).
    pub cols: u32,
    /// Rows occupied by one patch.
    pub patch_rows: u32,
    /// Per-patch logical→device-physical placement.
    pub placements: Vec<Vec<u32>>,
}

impl FleetLayout {
    /// Tile `patches` copies of `code`'s native embedding on one mesh.
    ///
    /// # Panics
    /// Panics for codes without a native embedding (degenerate XXZZ
    /// lines) — the fleet studies deployable patches.
    pub fn tile(code: CodeSpec, patches: usize) -> Self {
        assert!(patches >= 1, "a fleet needs at least one patch");
        let (native, l2p) = code
            .native_embedding()
            .unwrap_or_else(|| panic!("{} has no native embedding to tile", code.name()));
        let n = native.num_qubits();
        // Patch footprint on the mesh: repetition chains are one row;
        // XXZZ patches are the (dz+dx−1)² square.
        let (patch_rows, cols) = match code {
            CodeSpec::Repetition(_) => (1u32, n),
            CodeSpec::Xxzz(_) => {
                let side = (1..=n).find(|s| s * s == n).expect("square native mesh");
                (side, side)
            }
        };
        let device_rows = patches as u32 * (patch_rows + 1) - 1;
        let device = mesh(device_rows, cols);
        let placements = (0..patches as u32)
            .map(|k| {
                let row_offset = k * (patch_rows + 1);
                l2p.iter().map(|&p| mesh_index(row_offset + p / cols, p % cols, cols)).collect()
            })
            .collect();
        FleetLayout { device, cols, patch_rows, placements }
    }
}

/// Draw the campaign's strike timeline: Poisson arrivals at
/// [`FleetConfig::strikes_per_kiloround`], roots uniform over the device
/// (spacer rows included — strikes do not aim), decay spans fixed at
/// [`FleetConfig::strike_decay_rounds`]. Deterministic at a fixed seed.
pub fn poisson_strikes(cfg: &FleetConfig, device: &Topology) -> Vec<StrikeEvent> {
    let rate = cfg.strikes_per_kiloround / 1000.0;
    if rate <= 0.0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(mix_seed(cfg.seed ^ 0xF1EE_7000_0000_0001, 0, 0));
    let mut strikes = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= cfg.rounds as f64 {
            return strikes;
        }
        strikes.push(StrikeEvent {
            model: cfg.model,
            root: rng.gen_range(0..device.num_qubits()),
            onset_round: t as usize,
            decay_rounds: Some(cfg.strike_decay_rounds.max(1)),
        });
    }
}

/// One finished chunk's merged observables — the unit of checkpointing.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChunkRecord {
    shots: usize,
    /// Detection events per round, summed over stabilizers and shots.
    events_per_round: Vec<u64>,
    /// Correcting replicas per pair-decode window.
    corrections_per_window: Vec<u32>,
    /// Logical-error bursts (runs of ≥ `burst_windows` correcting
    /// windows in one replica).
    bursts: u64,
}

/// One injected strike, scored against the fleet's event record.
#[derive(Debug, Clone, PartialEq)]
pub struct StrikeRow {
    /// Device qubit the strike landed on.
    pub root: u32,
    /// Round of impact.
    pub onset_round: usize,
    /// A detection spike appeared within the detect window.
    pub detected: bool,
    /// First round in the detect window whose event count cleared the
    /// spike gate in some patch (`None` for undetected strikes). The
    /// detection latency is `first_alarm_round − onset_round`.
    pub first_alarm_round: Option<usize>,
    /// First round after onset where every patch has been back at
    /// baseline for the required quiet run (`None`: censored — the
    /// campaign ended first).
    pub recovery_round: Option<usize>,
    /// `(recovery_round − onset) × round_time_us`, when recovered.
    pub time_to_recovery_us: Option<f64>,
}

/// Fleet-level operating metrics. Excludes decode-tier counters, so two
/// runs producing the same physics compare equal even when their cache
/// hit patterns differ (the checkpoint-resume identity).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Patches in the fleet.
    pub patches: usize,
    /// Rounds per campaign.
    pub rounds: usize,
    /// Replicas per patch.
    pub shots: usize,
    /// Strikes injected by the Poisson timeline.
    pub strikes: usize,
    /// Strikes with a detection spike in their onset window.
    pub detected: usize,
    /// `detected / strikes` (1.0 for a strike-free campaign).
    pub detection_coverage: f64,
    /// Logical-error bursts across the whole fleet.
    pub bursts: u64,
    /// Replica-hours simulated: `patches × shots × rounds ×
    /// round_time_us / 3.6e9`.
    pub device_hours: f64,
    /// `bursts / device_hours`.
    pub bursts_per_device_hour: f64,
    /// Strikes whose recovery completed before the campaign ended.
    pub recovered: usize,
    /// Mean time to recovery over recovered strikes, µs (0 when none).
    pub mean_time_to_recovery_us: f64,
    /// Detection events across all patches, rounds and replicas.
    pub total_events: u64,
}

/// Per-patch rollup of an endurance campaign.
#[derive(Debug, Clone)]
pub struct PatchSummary {
    /// Patch index.
    pub patch: usize,
    /// Detection events over the patch's whole campaign.
    pub events: u64,
    /// Bursts in this patch.
    pub bursts: u64,
    /// The patch decoder's tier counters.
    pub decode: DecoderStats,
    /// The patch campaign's supervision report.
    pub report: CampaignReport,
}

/// Result of [`run_fleet`].
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Fleet-level metrics (the checkpoint-resume-stable part).
    pub metrics: FleetMetrics,
    /// Every injected strike, scored from
    /// [`FleetResult::per_patch_events`] by folding each patch's counts
    /// through a [`ThresholdDetector`] spike gate
    /// ([`OnlineDetector::push`]). The offline reference
    /// [`score_strikes`] over the same counts agrees row for row.
    pub strikes: Vec<StrikeRow>,
    /// Per-patch per-round detection-event totals merged from the
    /// finished chunk records — the checkpoint-stable count every strike
    /// row is scored from.
    pub per_patch_events: Vec<Vec<u64>>,
    /// Per-patch rollups.
    pub per_patch: Vec<PatchSummary>,
    /// Every non-skipped chunk of every patch completed (false when a
    /// `max_chunks` budget left work for a resumed run, or a chunk
    /// failed both supervised attempts).
    pub complete: bool,
    /// Merged metrics snapshot: the fleet-wide stream registry folded
    /// with every patch decoder's private registry (counters and
    /// histogram buckets sum, so `stage.decode_ns` covers every
    /// pair-decode window of every patch).
    pub snapshot: MetricsSnapshot,
    /// The campaign's flight-recorder log: strike onsets, spike-gate
    /// alarms, chunk retries/quarantines, degraded decodes and cache
    /// evictions, each stamped with the round it happened on.
    pub flight: Vec<FlightEntry>,
}

impl FleetResult {
    /// Chunk failures across all patches.
    pub fn failed_chunks(&self) -> usize {
        self.per_patch.iter().map(|p| p.report.failures.len()).sum()
    }

    /// Chunk retries across all patches.
    pub fn retried_chunks(&self) -> u64 {
        self.per_patch.iter().map(|p| p.report.chunk_retries).sum()
    }

    /// Shots answered by the degraded greedy fallback, fleet-wide.
    pub fn degraded_shots(&self) -> u64 {
        self.per_patch.iter().map(|p| p.decode.degraded).sum()
    }

    /// Largest per-patch syndrome-cache occupancy.
    pub fn max_cache_entries(&self) -> usize {
        self.per_patch.iter().map(|p| p.decode.cache_entries).max().unwrap_or(0)
    }

    /// Earliest round (within its chunk) on which any patch's supervised
    /// driver retried a panicking chunk; `None` for a retry-free fleet.
    pub fn first_retry_round(&self) -> Option<u64> {
        self.per_patch.iter().filter_map(|p| p.report.first_retry_round()).min()
    }

    /// CSV of the strike table:
    /// `strike,root,onset_round,detected,first_alarm_round,recovery_round,time_to_recovery_us`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "strike,root,onset_round,detected,first_alarm_round,recovery_round,\
             time_to_recovery_us\n",
        );
        for (i, s) in self.strikes.iter().enumerate() {
            let alarm = s.first_alarm_round.map_or(String::new(), |r| r.to_string());
            let rec = s.recovery_round.map_or(String::new(), |r| r.to_string());
            let ttr = s.time_to_recovery_us.map_or(String::new(), |t| format!("{t:.3}"));
            out.push_str(&format!(
                "{i},{},{},{},{alarm},{rec},{ttr}\n",
                s.root, s.onset_round, s.detected as u8
            ));
        }
        out
    }

    /// CSV of the per-patch execution-layer rollup:
    /// `patch,events,bursts,chunk_retries,first_retry_round,degraded,cache_evictions`
    /// — `first_retry_round` is the flight-recorded round the patch's
    /// first retried chunk had reached when it panicked (empty when the
    /// patch never retried).
    pub fn patch_csv(&self) -> String {
        let mut out = String::from(
            "patch,events,bursts,chunk_retries,first_retry_round,degraded,cache_evictions\n",
        );
        for p in &self.per_patch {
            let retry = p.report.first_retry_round().map_or(String::new(), |r| r.to_string());
            out.push_str(&format!(
                "{},{},{},{},{retry},{},{}\n",
                p.patch,
                p.events,
                p.bursts,
                p.report.chunk_retries,
                p.decode.degraded,
                p.decode.cache_evictions
            ));
        }
        out
    }
}

/// Pair-decode a chunk's event stream and score its correction activity
/// (see the module docs): windows of two event rounds feed the two-round
/// decoder with a zeroed readout, so each decoded bit is exactly "the
/// decoder applied a logical correction to this replica in this window".
fn score_chunk(
    code: &CodeCircuit,
    decoder: &BulkDecoder,
    events: &EventStream,
    burst_windows: usize,
) -> ChunkRecord {
    let rounds = events.rounds();
    let shots = events.shots();
    let words = shots.div_ceil(64);
    let events_per_round = (0..rounds).map(|r| events.round_total(r)).collect();
    let windows = rounds / 2;
    let mut corrections_per_window = vec![0u32; windows];
    let mut scratch = ShotBatch::new(code.circuit.num_clbits(), shots);
    let mut diff = vec![0u64; words];
    let mut run = vec![0u32; shots];
    let mut bursts = 0u64;
    for (w, corrections) in corrections_per_window.iter_mut().enumerate() {
        let (r0, r1) = (2 * w, 2 * w + 1);
        for (i, stab) in code.stabilizers.iter().enumerate() {
            let e0 = events.plane(r0, i);
            let e1 = events.plane(r1, i);
            for (d, (&a, &b)) in diff.iter_mut().zip(e0.iter().zip(e1)) {
                *d = a ^ b;
            }
            // The decoder's defect planes are d0 = row1 and
            // d1 = row1 XOR row2, so row2 = E_r0 ^ E_r1 makes d1 = E_r1.
            scratch.set_row(stab.cbit_round1, false, e0);
            scratch.set_row(stab.cbit_round2, false, &diff);
        }
        for (s, corrected) in decoder.decode_batch(&scratch).into_iter().enumerate() {
            if corrected {
                *corrections += 1;
                run[s] += 1;
                if run[s] == burst_windows as u32 {
                    bursts += 1;
                }
            } else {
                run[s] = 0;
            }
        }
    }
    ChunkRecord { shots, events_per_round, corrections_per_window, bursts }
}

/// Poison-tolerant checkpoint store shared by the fleet's sinks.
struct Progress {
    digest: u64,
    done: Mutex<HashMap<(usize, usize), ChunkRecord>>,
}

impl Progress {
    fn load(cfg: &FleetConfig) -> Self {
        let digest = cfg.digest();
        let mut done = HashMap::new();
        if let Some(path) = &cfg.checkpoint {
            if let Ok(text) = std::fs::read_to_string(path) {
                if let Some(records) = parse_checkpoint(&text, digest) {
                    done = records;
                }
            }
        }
        Progress { digest, done: Mutex::new(done) }
    }

    fn contains(&self, key: (usize, usize)) -> bool {
        self.done.lock().unwrap_or_else(PoisonError::into_inner).contains_key(&key)
    }

    fn insert(&self, key: (usize, usize), rec: ChunkRecord) {
        self.done.lock().unwrap_or_else(PoisonError::into_inner).insert(key, rec);
    }

    /// Serialize every finished chunk to the checkpoint file, if one is
    /// configured. Called after each patch so a kill loses at most one
    /// patch's progress since the last write.
    fn persist(&self, cfg: &FleetConfig) {
        let Some(path) = &cfg.checkpoint else { return };
        let done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        let mut keys: Vec<&(usize, usize)> = done.keys().collect();
        keys.sort();
        let mut text = format!("fleet-ckpt v1 digest {:016x}\n", self.digest);
        for key in keys {
            let rec = &done[key];
            text.push_str(&format!("rec {} {} {} {} ev", key.0, key.1, rec.shots, rec.bursts));
            for v in &rec.events_per_round {
                text.push_str(&format!(" {v}"));
            }
            text.push_str(" cw");
            for v in &rec.corrections_per_window {
                text.push_str(&format!(" {v}"));
            }
            text.push('\n');
        }
        // Best effort: an unwritable checkpoint degrades to an in-memory
        // run, it does not kill the campaign.
        let _ = std::fs::write(path, text);
    }
}

/// Parse a checkpoint written by [`Progress::persist`]; `None` on any
/// malformed line or digest mismatch (the whole file is then ignored).
fn parse_checkpoint(text: &str, digest: u64) -> Option<HashMap<(usize, usize), ChunkRecord>> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let mut h = header.split_whitespace();
    if h.next()? != "fleet-ckpt" || h.next()? != "v1" || h.next()? != "digest" {
        return None;
    }
    if u64::from_str_radix(h.next()?, 16).ok()? != digest {
        return None;
    }
    let mut done = HashMap::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let mut t = line.split_whitespace();
        if t.next()? != "rec" {
            return None;
        }
        let patch: usize = t.next()?.parse().ok()?;
        let chunk: usize = t.next()?.parse().ok()?;
        let shots: usize = t.next()?.parse().ok()?;
        let bursts: u64 = t.next()?.parse().ok()?;
        if t.next()? != "ev" {
            return None;
        }
        let mut events_per_round = Vec::new();
        let mut corrections_per_window = Vec::new();
        let mut in_cw = false;
        for tok in t {
            if tok == "cw" {
                in_cw = true;
            } else if in_cw {
                corrections_per_window.push(tok.parse().ok()?);
            } else {
                events_per_round.push(tok.parse().ok()?);
            }
        }
        if !in_cw {
            return None;
        }
        done.insert(
            (patch, chunk),
            ChunkRecord { shots, events_per_round, corrections_per_window, bursts },
        );
    }
    Some(done)
}

/// Per-patch baseline mean and standard deviation of the per-round event
/// count over quiet rounds — outside every strike's flare (four decay
/// spans is conservatively past the transient's tail). Shared by the
/// offline reference scorer and the production gate fold so both
/// threshold the same calibration.
fn quiet_baselines(
    cfg: &FleetConfig,
    strikes: &[StrikeEvent],
    per_patch_events: &[Vec<u64>],
) -> Vec<(f64, f64)> {
    let flare = 4 * cfg.strike_decay_rounds.max(1);
    let mut hot = vec![false; cfg.rounds];
    for s in strikes {
        let end = (s.onset_round + flare).min(cfg.rounds);
        hot[s.onset_round..end].fill(true);
    }
    per_patch_events
        .iter()
        .map(|events| {
            let quiet: Vec<f64> =
                events.iter().zip(&hot).filter(|(_, &h)| !h).map(|(&e, _)| e as f64).collect();
            if quiet.is_empty() {
                return (0.0, 0.0);
            }
            let mean = quiet.iter().sum::<f64>() / quiet.len() as f64;
            let var =
                quiet.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / quiet.len() as f64;
            (mean, var.sqrt())
        })
        .collect()
}

/// A strike's scored row given its first alarm round: recovery is the
/// first round from onset where every patch sits at baseline for
/// `quiet_rounds` consecutive rounds (the calm-run rule both scorers
/// share).
fn strike_row(
    cfg: &FleetConfig,
    s: &StrikeEvent,
    first_alarm_round: Option<usize>,
    per_patch_events: &[Vec<u64>],
    baselines: &[(f64, f64)],
) -> StrikeRow {
    let mut recovery_round = None;
    let mut calm = 0usize;
    for r in s.onset_round..cfg.rounds {
        let at_baseline = per_patch_events
            .iter()
            .zip(baselines)
            .all(|(events, &(mu, sd))| events[r] as f64 <= mu + (2.0 * sd).max(1.0));
        calm = if at_baseline { calm + 1 } else { 0 };
        if calm >= cfg.quiet_rounds.max(1) {
            recovery_round = Some(r + 1 - calm);
            break;
        }
    }
    StrikeRow {
        root: s.root,
        onset_round: s.onset_round,
        detected: first_alarm_round.is_some(),
        first_alarm_round,
        recovery_round,
        time_to_recovery_us: recovery_round.map(|r| (r - s.onset_round) as f64 * cfg.round_time_us),
    }
}

/// Score the strike timeline against per-patch per-round event counts —
/// the **offline oracle**: a whole-campaign batch pass over the merged
/// chunk records. It has no production caller: [`run_fleet`] scores
/// through `score_strikes_online`, and this function exists so tests
/// and the benchmark harness can check that the fold's rows equal it.
/// The spike gate thresholds the baseline-subtracted
/// residual (`events − µ ≥ max(4σ, 2)`), exactly the comparison
/// [`ThresholdDetector`] applies per push, so the two paths cannot drift
/// apart on floating-point grouping.
pub fn score_strikes(
    cfg: &FleetConfig,
    strikes: &[StrikeEvent],
    per_patch_events: &[Vec<u64>],
) -> Vec<StrikeRow> {
    let baselines = quiet_baselines(cfg, strikes, per_patch_events);
    strikes
        .iter()
        .map(|s| {
            let window_end = (s.onset_round + cfg.detect_window).min(cfg.rounds);
            let first_alarm_round = (s.onset_round..window_end).find(|&r| {
                per_patch_events
                    .iter()
                    .zip(&baselines)
                    .any(|(events, &(mu, sd))| events[r] as f64 - mu >= (4.0 * sd).max(2.0))
            });
            strike_row(cfg, s, first_alarm_round, per_patch_events, &baselines)
        })
        .collect()
}

/// Score the strike timeline by folding the merged chunk records'
/// per-round counts through [`OnlineDetector::push`], one
/// [`ThresholdDetector`] spike-gate state per patch per strike window.
/// Detection coverage, alarm rounds and recovery times in
/// [`FleetResult`] come from this path. It reads the same counts as the
/// offline reference ([`score_strikes`]) and agrees with it row for
/// row — the per-shot batch detectors pin the same fold/batch identity
/// in `radqec-detect`.
fn score_strikes_online(
    cfg: &FleetConfig,
    strikes: &[StrikeEvent],
    per_patch_events: &[Vec<u64>],
) -> Vec<StrikeRow> {
    let baselines = quiet_baselines(cfg, strikes, per_patch_events);
    strikes
        .iter()
        .map(|s| {
            let window_end = (s.onset_round + cfg.detect_window).min(cfg.rounds);
            // One online gate per patch; the fleet's first alarm is the
            // earliest any of them raises.
            let first_alarm_round = per_patch_events
                .iter()
                .zip(&baselines)
                .filter_map(|(events, &(mu, sd))| {
                    let gate = ThresholdDetector { threshold: (4.0 * sd).max(2.0) };
                    let mut state = gate.begin();
                    let post = events.iter().enumerate().take(window_end).skip(s.onset_round);
                    for (r, &e) in post {
                        gate.push(&mut state, r, e as f64 - mu);
                    }
                    state.alarm_round
                })
                .min();
            strike_row(cfg, s, first_alarm_round, per_patch_events, &baselines)
        })
        .collect()
}

/// Run a fleet endurance campaign (see the module docs).
pub fn run_fleet(cfg: &FleetConfig) -> FleetResult {
    let layout = FleetLayout::tile(cfg.code, cfg.patches);
    let strikes = poisson_strikes(cfg, &layout.device);
    // Fleet-wide observability: one registry + flight recorder shared by
    // every patch engine (decoders keep private registries so per-patch
    // tier counters stay per-patch; their snapshots merge at the end).
    let registry = Arc::new(MetricsRegistry::new());
    let recorder = Arc::new(FlightRecorder::with_capacity(
        radqec_telemetry::DEFAULT_RECORDER_CAPACITY.max(2 * strikes.len()),
    ));
    for s in &strikes {
        recorder.record(s.onset_round as u64, FlightEvent::StrikeOnset { root: s.root });
    }
    let fault = if strikes.is_empty() {
        StreamFault::None
    } else {
        StreamFault::MultiStrike(
            MultiStrike::try_new(strikes.clone()).expect("poisson onsets are non-decreasing"),
        )
    };
    let code = cfg.code.build();
    let tiers = TierConfig {
        deadline: cfg.effective_deadline(),
        cache_capacity: cfg.cache_capacity,
        mask_capacity: cfg.mask_capacity,
        ..TierConfig::default()
    };
    let progress = Progress::load(cfg);
    let budget = AtomicUsize::new(cfg.max_chunks.unwrap_or(usize::MAX));
    let chaos_armed = AtomicBool::new(cfg.chaos_panic.is_some());
    let chunks_per_patch = cfg.shots.div_ceil(cfg.frame_chunk);
    let mut per_patch = Vec::with_capacity(cfg.patches);
    let mut decoder_snapshots = Vec::with_capacity(cfg.patches);
    for patch in 0..cfg.patches {
        let engine = StreamEngine::builder(cfg.code, cfg.rounds)
            .shots(cfg.shots)
            .seed(mix_seed(cfg.seed, patch as u64, 0x1EE7))
            .frame_chunk(cfg.frame_chunk)
            .topology(layout.device.clone())
            .initial_layout(layout.placements[patch].clone())
            .metrics(Arc::clone(&registry))
            .flight_recorder(Arc::clone(&recorder))
            .build();
        let decoder = BulkDecoder::with_tiers(&code, tiers);
        let spec = engine.stream_spec();
        let sinks: Vec<Mutex<Option<EventAccumulator>>> =
            (0..chunks_per_patch).map(|_| Mutex::new(None)).collect();
        let report = engine
            .for_each_round_supervised(
                &fault,
                &cfg.noise,
                |chunk| {
                    progress.contains((patch, chunk))
                        || budget
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                                b.checked_sub(1)
                            })
                            .is_err()
                },
                |slice| {
                    if cfg.chaos_panic == Some((patch, slice.chunk))
                        && slice.round == 1
                        && chaos_armed.swap(false, Ordering::Relaxed)
                    {
                        panic!("chaos: injected fault in patch {patch} chunk {}", slice.chunk);
                    }
                    let mut slot =
                        sinks[slice.chunk].lock().unwrap_or_else(PoisonError::into_inner);
                    if slice.round == 0 {
                        *slot = Some(EventAccumulator::new(spec, slice.shots));
                    }
                    let acc = slot.as_mut().expect("round 0 arrives first");
                    acc.push_round(slice.round, slice.syndrome_rows());
                    if acc.rounds_pushed() == cfg.rounds {
                        let events = slot.take().expect("just pushed").finish();
                        let rec = score_chunk(&code, &decoder, &events, cfg.burst_windows);
                        progress.insert((patch, slice.chunk), rec);
                    }
                },
            )
            .expect("poisson strikes are in range by construction");
        progress.persist(cfg);
        // Mirror the engine's pool/reference gauges, then fold the patch
        // decoder's private registry into the fleet snapshot.
        let _ = engine.stream_stats();
        let decode = decoder.decode_stats().expect("bulk decoder reports stats");
        if decode.degraded > 0 {
            recorder
                .record(cfg.rounds as u64, FlightEvent::DegradedDecode { shots: decode.degraded });
        }
        if decode.cache_evictions > 0 {
            recorder.record(cfg.rounds as u64, FlightEvent::CacheEviction { cache: "syndrome" });
        }
        if decode.mask_evictions > 0 {
            recorder.record(cfg.rounds as u64, FlightEvent::CacheEviction { cache: "mask" });
        }
        decoder_snapshots.push(decoder.metrics().snapshot());
        per_patch.push(PatchSummary { patch, events: 0, bursts: 0, decode, report });
    }
    // Merge in (patch, chunk) order — integer folds, so a resumed
    // campaign reproduces an uninterrupted one bit for bit.
    let done = progress.done.into_inner().unwrap_or_else(PoisonError::into_inner);
    let complete = done.len() == cfg.patches * chunks_per_patch
        && per_patch.iter().all(|p| p.report.is_clean());
    let mut per_patch_events: Vec<Vec<u64>> = vec![vec![0u64; cfg.rounds]; cfg.patches];
    let mut bursts = 0u64;
    let mut keys: Vec<&(usize, usize)> = done.keys().collect();
    keys.sort();
    for key in keys {
        let rec = &done[key];
        for (r, &e) in rec.events_per_round.iter().enumerate() {
            per_patch_events[key.0][r] += e;
        }
        per_patch[key.0].bursts += rec.bursts;
        bursts += rec.bursts;
    }
    for (patch, events) in per_patch_events.iter().enumerate() {
        per_patch[patch].events = events.iter().sum();
    }
    let strike_rows = score_strikes_online(cfg, &strikes, &per_patch_events);
    // Distributions the flight deck reports: detection latency in rounds
    // and time to recovery in µs, one sample per scored strike; the gate
    // alarm itself lands in the flight recorder.
    let detect_latency = registry.histogram(names::DETECT_LATENCY_ROUNDS);
    let detect_alarms = registry.counter(names::DETECT_ALARMS);
    let ttr_hist = registry.histogram(names::FLEET_TIME_TO_RECOVERY_US);
    for s in &strike_rows {
        if let Some(alarm) = s.first_alarm_round {
            recorder.record(alarm as u64, FlightEvent::DetectorAlarm { detector: "spike-gate" });
            detect_alarms.inc();
            detect_latency.record((alarm - s.onset_round) as u64);
        }
        if let Some(ttr) = s.time_to_recovery_us {
            ttr_hist.record(ttr.round() as u64);
        }
    }
    let mut snapshot = registry.snapshot();
    for decoder_snap in decoder_snapshots {
        snapshot.merge_from(&decoder_snap);
    }
    let detected = strike_rows.iter().filter(|s| s.detected).count();
    let recovered: Vec<f64> = strike_rows.iter().filter_map(|s| s.time_to_recovery_us).collect();
    let device_hours =
        cfg.patches as f64 * cfg.shots as f64 * cfg.rounds as f64 * cfg.round_time_us / 3.6e9;
    let metrics = FleetMetrics {
        patches: cfg.patches,
        rounds: cfg.rounds,
        shots: cfg.shots,
        strikes: strikes.len(),
        detected,
        detection_coverage: if strike_rows.is_empty() {
            1.0
        } else {
            detected as f64 / strike_rows.len() as f64
        },
        bursts,
        device_hours,
        bursts_per_device_hour: if device_hours > 0.0 { bursts as f64 / device_hours } else { 0.0 },
        recovered: recovered.len(),
        mean_time_to_recovery_us: if recovered.is_empty() {
            0.0
        } else {
            recovered.iter().sum::<f64>() / recovered.len() as f64
        },
        total_events: per_patch.iter().map(|p| p.events).sum(),
    };
    FleetResult {
        metrics,
        strikes: strike_rows,
        per_patch_events,
        per_patch,
        complete,
        snapshot,
        flight: recorder.entries(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{RepetitionCode, XxzzCode};

    fn quick(rounds: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(RepetitionCode::bit_flip(3).into());
        cfg.patches = 2;
        cfg.rounds = rounds;
        cfg.shots = 32;
        cfg.frame_chunk = 16;
        cfg.strike_decay_rounds = 5;
        cfg.strikes_per_kiloround = 20.0;
        cfg.detect_window = 10;
        cfg.seed = 0xF1EE7;
        cfg
    }

    #[test]
    fn tiling_keeps_patches_disjoint_on_one_mesh() {
        for code in
            [CodeSpec::from(RepetitionCode::bit_flip(5)), CodeSpec::from(XxzzCode::new(3, 3))]
        {
            let layout = FleetLayout::tile(code, 3);
            let mut seen = std::collections::HashSet::new();
            for placement in &layout.placements {
                for &q in placement {
                    assert!(q < layout.device.num_qubits(), "{}: seat off-device", code.name());
                    assert!(seen.insert(q), "{}: patches overlap at {q}", code.name());
                }
            }
        }
    }

    #[test]
    fn poisson_timeline_is_deterministic_ordered_and_rate_scaled() {
        let cfg = quick(2000);
        let layout = FleetLayout::tile(cfg.code, cfg.patches);
        let a = poisson_strikes(&cfg, &layout.device);
        let b = poisson_strikes(&cfg, &layout.device);
        assert_eq!(a, b, "fixed seed, fixed timeline");
        assert!(a.windows(2).all(|w| w[0].onset_round <= w[1].onset_round));
        assert!(a.iter().all(|s| s.onset_round < cfg.rounds));
        assert!(a.iter().all(|s| s.root < layout.device.num_qubits()));
        // 20 strikes/kiloround over 2000 rounds ≈ 40 expected.
        assert!((10..=80).contains(&a.len()), "rate off: {} strikes", a.len());
        let mut none = cfg;
        none.strikes_per_kiloround = 0.0;
        assert!(poisson_strikes(&none, &layout.device).is_empty());
    }

    #[test]
    fn quiet_fleet_reports_full_coverage_and_no_bursts_at_zero_noise() {
        let mut cfg = quick(200);
        cfg.strikes_per_kiloround = 0.0;
        cfg.noise = NoiseSpec::noiseless();
        let res = run_fleet(&cfg);
        assert!(res.complete);
        assert_eq!(res.metrics.strikes, 0);
        assert_eq!(res.metrics.detection_coverage, 1.0);
        assert_eq!(res.metrics.total_events, 0, "noiseless strike-free fleet is silent");
        assert_eq!(res.metrics.bursts, 0);
        assert_eq!(res.degraded_shots(), 0);
        assert_eq!(res.failed_chunks(), 0);
    }

    #[test]
    fn striked_fleet_detects_and_recovers() {
        let res = run_fleet(&quick(2000));
        assert!(res.complete);
        assert!(res.metrics.strikes > 0);
        assert!(
            res.metrics.detection_coverage > 0.8,
            "full-intensity strikes should be conspicuous: {:?}",
            res.metrics
        );
        assert!(res.metrics.recovered > 0, "transients decay: {:?}", res.metrics);
        assert!(res.metrics.mean_time_to_recovery_us > 0.0);
        assert_eq!(res.degraded_shots(), 0, "default deadline must never degrade");
        assert!(res.max_cache_entries() <= FleetConfig::new(res_code()).cache_capacity);
        let csv = res.to_csv();
        assert_eq!(csv.lines().count(), res.metrics.strikes + 1);
        assert!(csv.starts_with("strike,root,onset_round,detected,first_alarm_round"));
        // Telemetry: every detected strike carries its alarm round, the
        // flight recorder logs one onset per strike and one alarm per
        // detection, and the merged snapshot holds the distributions the
        // fleet bin exports.
        for s in res.strikes.iter().filter(|s| s.detected) {
            let alarm = s.first_alarm_round.expect("detected strikes carry an alarm round");
            assert!(alarm >= s.onset_round, "alarms cannot precede the onset");
        }
        let count =
            |pred: fn(&FlightEvent) -> bool| res.flight.iter().filter(|e| pred(&e.event)).count();
        assert_eq!(count(|e| matches!(e, FlightEvent::StrikeOnset { .. })), res.metrics.strikes);
        assert_eq!(count(|e| matches!(e, FlightEvent::DetectorAlarm { .. })), res.metrics.detected);
        let decode_ns = res.snapshot.histogram("stage.decode_ns").expect("pair-decode spans");
        assert!(decode_ns.count() > 0, "every window decode is timed");
        let latency = res.snapshot.histogram("detect.latency_rounds").expect("latency samples");
        assert_eq!(latency.count(), res.metrics.detected as u64);
        let ttr = res.snapshot.histogram("fleet.time_to_recovery_us").expect("recovery samples");
        assert_eq!(ttr.count(), res.metrics.recovered as u64);
    }

    fn res_code() -> CodeSpec {
        RepetitionCode::bit_flip(3).into()
    }

    /// The offline oracle's rows over a finished campaign's own counts.
    fn oracle_rows(cfg: &FleetConfig, res: &FleetResult) -> Vec<StrikeRow> {
        let layout = FleetLayout::tile(cfg.code, cfg.patches);
        score_strikes(cfg, &poisson_strikes(cfg, &layout.device), &res.per_patch_events)
    }

    #[test]
    fn online_alarm_stream_matches_offline_strike_scoring() {
        // The production strike table folds the merged chunk records
        // round by round through one online spike gate per patch; the
        // offline reference batch-scores the same records. The two must
        // agree row for row, down to every alarm round.
        let cfg = quick(2000);
        let res = run_fleet(&cfg);
        assert!(res.complete);
        assert!(res.metrics.strikes > 0, "the quick campaign must inject strikes");
        let offline = oracle_rows(&cfg, &res);
        assert_eq!(res.strikes, offline, "gate fold diverged from the offline reference");
        let offline_total: u64 = res.per_patch_events.iter().flat_map(|e| e.iter()).sum();
        assert_eq!(offline_total, res.metrics.total_events);
    }

    #[test]
    fn chaos_panic_is_retried_exactly_once_and_changes_nothing() {
        let clean = run_fleet(&quick(300));
        let mut cfg = quick(300);
        cfg.chaos_panic = Some((1, 0));
        let chaotic = run_fleet(&cfg);
        assert_eq!(chaotic.retried_chunks(), 1, "one injected fault, one retry");
        assert_eq!(chaotic.failed_chunks(), 0);
        assert!(chaotic.complete);
        assert_eq!(clean.metrics, chaotic.metrics, "retry must be invisible in the physics");
        assert_eq!(clean.strikes, chaotic.strikes);
        assert_eq!(chaotic.strikes, oracle_rows(&cfg, &chaotic));
        // The flight recorder pins *which round* the retried chunk had
        // reached, and the patch CSV surfaces it.
        assert_eq!(clean.first_retry_round(), None);
        let retry_round = chaotic.first_retry_round().expect("retried chunk records its round");
        assert_eq!(retry_round, 1, "chaos fires at round 1 of the chunk");
        assert!(chaotic
            .flight
            .iter()
            .any(|e| e.event == FlightEvent::ChunkRetry { chunk: 0 } && e.round == retry_round));
        let patch_row = chaotic.patch_csv().lines().nth(2).expect("patch 1 row").to_string();
        let fields: Vec<&str> = patch_row.split(',').collect();
        assert_eq!(fields[0], "1");
        assert_eq!(fields[3], "1", "one retried chunk in patch 1");
        assert_eq!(fields[4], retry_round.to_string(), "first_retry_round in the CSV");
    }

    #[test]
    fn killed_campaign_resumes_bit_identically() {
        let dir = std::env::temp_dir().join("radqec-fleet-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("resume-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let baseline = run_fleet(&quick(300));
        // Phase 1: budget kills the campaign partway through.
        let mut killed = quick(300);
        killed.checkpoint = Some(path.clone());
        killed.max_chunks = Some(3);
        let partial = run_fleet(&killed);
        assert!(!partial.complete, "budget must leave work behind");
        // Phase 2: same config, no budget — resumes from the checkpoint.
        let mut resumed_cfg = quick(300);
        resumed_cfg.checkpoint = Some(path.clone());
        let resumed = run_fleet(&resumed_cfg);
        assert!(resumed.complete);
        let skipped: u64 = resumed.per_patch.iter().map(|p| p.report.chunks_skipped).sum();
        assert_eq!(skipped, 3, "exactly the checkpointed chunks are skipped");
        assert_eq!(resumed.metrics, baseline.metrics, "resume must be bit-identical");
        assert_eq!(resumed.strikes, baseline.strikes);
        assert_eq!(
            resumed.strikes,
            oracle_rows(&resumed_cfg, &resumed),
            "skipped chunks' records score like delivered ones"
        );
        // A checkpoint from a different config is ignored wholesale.
        let mut other = quick(300);
        other.checkpoint = Some(path.clone());
        other.seed ^= 1;
        let fresh = run_fleet(&other);
        assert!(fresh.complete);
        let skipped: u64 = fresh.per_patch.iter().map(|p| p.report.chunks_skipped).sum();
        assert_eq!(skipped, 0, "digest mismatch must invalidate the checkpoint");
        let _ = std::fs::remove_file(&path);
    }
}
