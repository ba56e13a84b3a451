//! [`StreamDecoder`] — the round-by-round detect→decode loop.
//!
//! [`StreamEngine::for_each_round`] delivers syndrome rounds the moment
//! their ops execute; [`SpaceTimeDecoder`] retires them through a sliding
//! window. This module closes the loop between the two *and* the online
//! strike detector: every round slice is
//!
//! 1. folded into the chunk's [`EventAccumulator`] (raw rows → detection
//!    events),
//! 2. scored by the online change detector ([`CusumDetector`] over the
//!    chunk's mean events-per-shot residual),
//! 3. once alarmed: localized ([`Localizer`] over the post-alarm window,
//!    modal vote across sampled shots, re-voted for
//!    [`Localizer::DEFAULT_WINDOW`] rounds as context accumulates) and
//!    projected into a full-strength [`DecoderMask`]
//!    ([`DecoderMask::project_memory`]),
//! 4. pushed, as the round's primary event rows, into the chunk's one
//!    [`WindowState`] (every replica advances in lockstep) under the mask
//!    active *this* round.
//!
//! The mask's transient decays with the **fitted** excess estimate — the
//! measured event excess relative to its peak — not with the fault
//! model's known `T(t)`: the decoder never sees ground truth, only what
//! the detection stream implies. The fit is *window-aligned*: a window is
//! solved `W` rounds after its oldest round arrived, so each solve is
//! priced by the hottest excess among the rounds still pending in the
//! window, not by the (already decayed) excess at solve time. The
//! pending region is read one push late (the chunk's `mask_base`, see
//! `fitted_mask`).
//!
//! The final round of a [`StreamEngineBuilder::final_readout`] stream
//! carries the transversal data readout. The sink projects it onto the
//! stabilizers (the terminal detector layer — the even-weight checks
//! cancel the excited `X^⊗n` background, so the projection works on the
//! raw measured bits), closes each replica's window, and scores
//! `raw readout parity XOR decoder flip` against the true logical frame
//! [`MemoryReadout::expected`] (the excited chain reads 1 in the Z
//! basis) — an **absolute** streaming logical error rate, not a
//! paired-decoder comparison.
//!
//! Retried chunks (the supervised driver re-delivers from round 0) reset
//! the chunk cell on `slice.round == 0`; chunk streams are deterministic
//! per chunk index, so a retry reproduces the original decode bit for
//! bit.
//!
//! [`StreamEngine::for_each_round`]: crate::streaming::StreamEngine::for_each_round
//! [`StreamEngineBuilder::final_readout`]: crate::streaming::StreamEngineBuilder::final_readout
//! [`MemoryReadout::expected`]: crate::codes::MemoryReadout::expected

use super::mask::DecoderMask;
use super::spacetime::{SpaceTimeDecoder, SpaceTimeError, WindowConfig, WindowState};
use super::TierConfig;
use crate::streaming::{RoundSlice, StreamEngine, StreamFault};
use radqec_detect::{
    CountDetectorState, CusumDetector, EventAccumulator, Localizer, OnlineDetector, StrikeMask,
};
use radqec_noise::NoiseSpec;
use radqec_telemetry::{names, Histogram, SpanTimer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Configuration of the streaming detect→decode loop.
#[derive(Debug, Clone, Copy)]
pub struct StreamDecoderConfig {
    /// Sliding-window geometry of the space-time decoder.
    pub window: WindowConfig,
    /// Whether alarms raise decoder masks at all (`false` = detection
    /// still runs and is reported, but decoding stays unaware — the
    /// control arm of the adaptive-vs-unaware comparison).
    pub adaptive: bool,
    /// Hop radius of the projected strike mask.
    pub radius: u32,
    /// Calibrated quiet-stream mean of the per-shot events-per-round
    /// statistic (the residual subtracts this).
    pub baseline: f64,
    /// Calibrated quiet-stream standard deviation of the residual. The
    /// sink tunes its CUSUM directly from this — drift `σ`, alarm at `8σ`,
    /// `σ` floored at 0.01 events/shot — rather than through
    /// [`CusumDetector::calibrated`], whose 0.5-event floor is scaled for
    /// per-shot *count* statistics, not this shot-averaged one.
    pub sigma: f64,
}

impl Default for StreamDecoderConfig {
    fn default() -> Self {
        StreamDecoderConfig {
            window: WindowConfig::default(),
            adaptive: true,
            radius: 3,
            baseline: 0.0,
            sigma: 1.0,
        }
    }
}

/// Shots of a chunk sampled for the localization vote at alarm time
/// (capped at the chunk width).
const LOCALIZE_SAMPLE_SHOTS: usize = 8;

/// Per-chunk outcome of a finished chunk (overwritten on retry — chunk
/// streams are deterministic, so the rewrite is idempotent).
#[derive(Debug, Clone, Copy)]
struct ChunkOutcome {
    shots: u64,
    errors: u64,
    alarm_round: Option<usize>,
}

/// In-flight per-chunk streaming state.
struct ChunkState {
    acc: EventAccumulator,
    window: WindowState,
    det: CountDetectorState,
    /// The alarm-time projected mask, undecayed.
    base_mask: Option<DecoderMask>,
    /// Measured per-round residual excess (`max(0, x − baseline)`), the
    /// fitted transient. The mask applied to a window solve is `base_mask`
    /// scaled by the window's *hottest* excess over the peak — a window is
    /// solved `W` rounds after its oldest round arrived, so decaying by
    /// the solve-time excess would price the strike core as if the
    /// transient were already over.
    excess: Vec<f64>,
    /// The decoder's window base as it stood one round earlier (one push
    /// behind `window.base()`, and never updated by the terminal push):
    /// the first round [`StreamDecoder::fitted_mask`] prices from.
    mask_base: usize,
}

/// One chunk's cell: the in-flight state plus the last finished outcome.
#[derive(Default)]
struct ChunkCell {
    state: Option<ChunkState>,
    outcome: Option<ChunkOutcome>,
}

/// Aggregated result of a streamed, windowed decode campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamDecodeReport {
    /// Replicas scored (shots across all finished chunks).
    pub shots: u64,
    /// Replicas whose corrected readout parity disagreed with the true
    /// logical frame.
    pub errors: u64,
    /// Chunks whose online detector alarmed.
    pub chunk_alarms: u64,
    /// Earliest alarm round across chunks (`None` = no alarm anywhere).
    pub first_alarm_round: Option<usize>,
}

impl StreamDecodeReport {
    /// The absolute streaming logical error rate.
    pub fn ler(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.errors as f64 / self.shots as f64
    }
}

/// The streaming detect→decode sink (see module docs).
pub struct StreamDecoder<'e> {
    engine: &'e StreamEngine,
    decoder: SpaceTimeDecoder,
    detector: CusumDetector,
    localizer: Localizer,
    cfg: StreamDecoderConfig,
    /// The noiseless readout parity — each replica's true logical frame.
    readout_expected: bool,
    chunks: Vec<Mutex<ChunkCell>>,
    /// Per-shot wall time of sink work (`stage.decode_ns`): each
    /// chunk-round span amortised over the shots it advanced.
    decode_ns: Arc<Histogram>,
}

impl<'e> StreamDecoder<'e> {
    /// Build the sink over `engine`'s stream.
    ///
    /// # Panics
    /// Panics where [`Self::try_new`] returns an error.
    pub fn new(engine: &'e StreamEngine, cfg: StreamDecoderConfig, tiers: TierConfig) -> Self {
        Self::try_new(engine, cfg, tiers).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the sink over `engine`'s stream, or the reason its window
    /// decoder cannot be built: the engine's memory carries no final data
    /// readout (build it with [`StreamEngineBuilder::final_readout`]),
    /// the window is invalid or wider than the 128-bit defect key, or
    /// `tiers` fails [`TierConfig::validate`] (see
    /// [`SpaceTimeDecoder::try_for_memory`], which also says which `tiers`
    /// fields the window decoder reads).
    ///
    /// [`StreamEngineBuilder::final_readout`]: crate::streaming::StreamEngineBuilder::final_readout
    pub fn try_new(
        engine: &'e StreamEngine,
        cfg: StreamDecoderConfig,
        tiers: TierConfig,
    ) -> Result<Self, SpaceTimeError> {
        let memory = engine.memory();
        let decoder =
            SpaceTimeDecoder::try_for_memory(memory, cfg.window, tiers, engine.metrics())?;
        let readout = memory.final_readout.as_ref().ok_or(SpaceTimeError::NoFinalReadout)?;
        let localizer = Localizer::with_defaults(engine.stream_spec(), engine.topology());
        Ok(StreamDecoder {
            engine,
            decoder,
            detector: {
                let sigma = cfg.sigma.max(0.01);
                CusumDetector { drift: sigma, threshold: 8.0 * sigma }
            },
            localizer,
            cfg,
            readout_expected: readout.expected,
            chunks: (0..engine.num_chunks()).map(|_| Mutex::new(ChunkCell::default())).collect(),
            decode_ns: engine.metrics().histogram(names::STAGE_DECODE_NS),
        })
    }

    /// The underlying space-time decoder (telemetry/test hook).
    pub fn decoder(&self) -> &SpaceTimeDecoder {
        &self.decoder
    }

    /// Stream one campaign through the supervised round driver and
    /// aggregate the absolute streaming LER. Callers that want the
    /// driver's [`CampaignReport`](crate::streaming::CampaignReport) run
    /// [`StreamEngine::for_each_round_supervised`] with [`Self::ingest`]
    /// as the sink, then read [`Self::report`].
    pub fn run(&self, fault: &StreamFault, noise: &NoiseSpec) -> StreamDecodeReport {
        self.engine.for_each_round(fault, noise, |slice| self.ingest(slice));
        self.report()
    }

    /// Consume one round slice (the `for_each_round` sink). Safe to call
    /// from multiple workers: state is per-chunk behind its own lock, and
    /// rounds of one chunk arrive in order from one worker.
    pub fn ingest(&self, slice: RoundSlice) {
        let span = SpanTimer::start(&self.decode_ns);
        let mut cell = self.chunks[slice.chunk].lock().unwrap_or_else(PoisonError::into_inner);
        if slice.round == 0 {
            // Fresh chunk — or a supervised retry re-delivering from
            // round 0: either way, start from scratch.
            cell.state = Some(ChunkState {
                acc: EventAccumulator::new(self.engine.stream_spec(), slice.shots),
                window: self.decoder.begin(slice.shots),
                det: self.detector.begin(),
                base_mask: None,
                excess: Vec::new(),
                mask_base: 0,
            });
        }
        let st = cell.state.as_mut().expect("round 0 opens a chunk before later rounds");
        st.acc.push_round(slice.round, slice.syndrome_rows());
        self.detect_round(st, &slice);
        self.decode_round(st, &slice);
        if slice.round + 1 == self.engine.rounds() {
            let st = cell.state.take().expect("state is live");
            cell.outcome = Some(self.close_chunk(st, &slice));
        }
        drop(cell);
        // One chunk-round of sink work covers `slice.shots` replicas;
        // amortise so `stage.decode_ns` keeps the per-shot semantics it
        // has in the bulk decoder and the fleet BENCH files.
        span.finish_per(slice.shots as u64);
    }

    /// Advance the chunk's online detector by this round's mean event
    /// count; on the first alarm, localize and project the mask. The
    /// fitted excess is recorded every round — [`Self::fitted_mask`]
    /// consumes it at decode time.
    fn detect_round(&self, st: &mut ChunkState, slice: &RoundSlice) {
        let r = slice.round;
        let x = st.acc.stream().round_total(r) as f64 / slice.shots.max(1) as f64;
        let residual = x - self.cfg.baseline;
        st.excess.push(residual.max(0.0));
        self.detector.push(&mut st.det, r, residual);
        if !self.cfg.adaptive {
            return;
        }
        // Localize from the first alarm on, re-voting each round until
        // a localizer window of post-alarm context has accumulated:
        // the alarm round alone rarely pins the root, and the windows the
        // mask must reweight are not solved until `W` rounds later, so the
        // refinement is free.
        if let Some(alarm) = st.det.alarm_round {
            if r <= alarm + Localizer::DEFAULT_WINDOW {
                if let Some(mask) = self.localize_mask(st, alarm, slice) {
                    st.base_mask = Some(mask);
                }
            }
        }
    }

    /// The mask for this round's window solves: `base_mask` scaled by the
    /// hottest fitted excess from `mask_base` on, normalised by the
    /// transient's peak. `mask_base` lags the decoder's base by one push:
    /// mid-stream solves at `C ≥ 2` see the same base either way, but the
    /// final window after a solve on the push before it (`W = 6`, `C = 2`
    /// over 11 layers: priced from round 4, solved from round 6), and
    /// with `C = 1` every solve after the first, are priced from rounds
    /// already committed. Both are
    /// measured above a `2σ` noise floor, so once the pending rounds'
    /// excess is indistinguishable from intrinsic fluctuation the mask
    /// drops to `None` instead of lingering as a mild bias over quiet
    /// windows. `None` likewise before any alarm and in the unaware arm.
    fn fitted_mask(&self, st: &ChunkState) -> Option<DecoderMask> {
        let base = st.base_mask.as_ref()?;
        let floor = 2.0 * self.cfg.sigma.max(0.01);
        let peak = st.excess.iter().fold(0.0, |a: f64, &b| a.max(b)) - floor;
        if peak <= 0.0 {
            return None;
        }
        let live = st.excess[st.mask_base.min(st.excess.len() - 1)..]
            .iter()
            .fold(0.0, |a: f64, &b| a.max(b))
            - floor;
        if live <= 0.0 {
            return None;
        }
        let decayed = base.scaled((live / peak).clamp(0.0, 1.0));
        (!decayed.is_noop()).then_some(decayed)
    }

    /// Post-alarm localization: score the window from just before the
    /// alarm through the current round on sampled shots, take the modal
    /// root, and project a *full-strength* strike mask at that root into
    /// the decoder's frame. Intensity is deliberately 1.0 — the detected
    /// burst's spatial profile comes from the mask's radial falloff and
    /// its temporal profile from the fitted-excess decay, not from the
    /// localizer's (noisy, few-shot) cluster score.
    fn localize_mask(
        &self,
        st: &ChunkState,
        alarm: usize,
        slice: &RoundSlice,
    ) -> Option<DecoderMask> {
        let events = st.acc.stream();
        let end = slice.round + 1;
        let start = (alarm + 1).saturating_sub(Localizer::DEFAULT_WINDOW);
        let mut votes: HashMap<u32, (usize, f64)> = HashMap::new();
        let sampled = LOCALIZE_SAMPLE_SHOTS.min(slice.shots);
        for shot in 0..sampled {
            if let Some(cluster) = self.localizer.window_eval(events, shot, start, end) {
                let entry = votes.entry(cluster.root).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += cluster.score;
            }
        }
        let (&root, _) =
            votes.iter().max_by(|(_, a), (_, b)| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap())?;
        let strike = StrikeMask::try_new(self.engine.topology(), root, self.cfg.radius, 1.0)
            .ok()
            .filter(|m| !m.is_noop())?;
        let mask = DecoderMask::project_memory(
            &strike,
            self.engine.memory(),
            &self.engine.transpiled().initial_layout,
        );
        (!mask.is_noop()).then_some(mask)
    }

    /// Push this round's primary event rows into the chunk's window under
    /// the mask fitted this round.
    fn decode_round(&self, st: &mut ChunkState, slice: &RoundSlice) {
        let r = slice.round;
        let mask = self.fitted_mask(st);
        st.mask_base = st.window.base();
        let events = st.acc.stream();
        self.decoder.push_round(&mut st.window, |i| events.plane(r, i), mask.as_ref());
    }

    /// Final-round close: project the data readout onto the stabilizers
    /// (the terminal detector layer), finish every replica's window, and
    /// score corrected parities against the (zero) reference frame.
    fn close_chunk(&self, st: ChunkState, slice: &RoundSlice) -> ChunkOutcome {
        assert!(
            slice.has_data_readout(),
            "final round of a readout-terminated stream must carry data rows"
        );
        // `row` XOR the data-readout rows over `support`: a parity per shot.
        let parity = |support: &[u32], mut row: Vec<u64>| {
            for &d in support {
                row.iter_mut().zip(slice.data_row(d as usize)).for_each(|(w, bits)| *w ^= bits);
            }
            row
        };
        // Terminal detector events, as rows: the data readout's projected
        // stabilizer parity XOR the last measured syndrome.
        let terminal: Vec<Vec<u64>> = (0..self.decoder.primary_count())
            .map(|i| parity(&self.decoder.supports[i], slice.syndrome_row(i).to_vec()))
            .collect();
        let raw = parity(&self.decoder.readout_support, vec![0; slice.words()]);
        let mask = self.fitted_mask(&st);
        let mut window = st.window;
        self.decoder.push_round(&mut window, |i| &terminal[i], mask.as_ref());
        let flips = self.decoder.finish(window, mask.as_ref());
        let wrong = |(s, &flip): (usize, &bool)| {
            (raw[s / 64] >> (s % 64) & 1 == 1) ^ flip != self.readout_expected
        };
        let errors = flips.iter().enumerate().filter(|&s| wrong(s)).count() as u64;
        ChunkOutcome { shots: slice.shots as u64, errors, alarm_round: st.det.alarm_round }
    }

    /// Aggregate every finished chunk's outcome.
    pub fn report(&self) -> StreamDecodeReport {
        let mut report = StreamDecodeReport::default();
        for cell in &self.chunks {
            let cell = cell.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(o) = cell.outcome {
                report.shots += o.shots;
                report.errors += o.errors;
                if let Some(r) = o.alarm_round {
                    report.chunk_alarms += 1;
                    report.first_alarm_round =
                        Some(report.first_alarm_round.map_or(r, |cur| cur.min(r)));
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::RepetitionCode;

    #[test]
    fn try_new_rejects_a_stream_without_final_readout() {
        let engine =
            StreamEngine::builder(RepetitionCode::bit_flip(3).into(), 4).shots(64).native().build();
        let cfg = StreamDecoderConfig::default();
        let built = StreamDecoder::try_new(&engine, cfg, TierConfig::default());
        assert!(matches!(built, Err(SpaceTimeError::NoFinalReadout)));
    }
}
