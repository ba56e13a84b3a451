//! Absolute streaming logical error rate — the closed loop, scored.
//!
//! The mitigation sweep (PR 5) measured the detect→decode loop on the
//! paper's *two-round* experiment with the strike root detected in a
//! separate offline campaign. This harness closes the loop **in-stream**:
//! one readout-terminated memory campaign per code is streamed round by
//! round through [`StreamDecoder`], whose online detector raises and
//! refits the decoder mask as the strike transient unfolds — and the same
//! campaign (bit-identical shots, deterministic per-chunk streams) is
//! decoded again with masking disabled. The difference of the two
//! **absolute** LERs is the loop's measured value on a streaming
//! workload; no paired-decoder proxy is involved.
//!
//! Calibration comes from a quiet stream of the same engine
//! ([`calibrate_stream`]): the mean and standard deviation of the
//! per-chunk-round events-per-shot statistic — exactly what the online
//! detector consumes at run time.

use crate::campaign::EngineBuildError;
use crate::codes::CodeSpec;
use crate::decoder::{
    StreamDecodeReport, StreamDecoder, StreamDecoderConfig, TierConfig, WindowConfig,
};
use crate::streaming::{StreamEngine, StreamFault};
use radqec_detect::EventStream;
use radqec_noise::{NoiseSpec, RadiationModel};

/// Configuration of a streaming-LER comparison.
pub struct StreamingLerConfig {
    /// Codes under test.
    pub codes: Vec<CodeSpec>,
    /// Stabilisation rounds per shot (default 10).
    pub rounds: usize,
    /// Streamed shots per campaign (default 1024).
    pub shots: usize,
    /// Intrinsic noise (default: the paper's 1%).
    pub noise: NoiseSpec,
    /// Radiation model of the strike (γ, spatial constant).
    pub model: RadiationModel,
    /// Sliding-window geometry.
    pub window: WindowConfig,
    /// Mask ring radius in hops (default 3, as in the mitigation sweep).
    pub radius: u32,
    /// Master seed.
    pub seed: u64,
}

impl StreamingLerConfig {
    /// Default comparison for `codes`.
    pub fn new(codes: Vec<CodeSpec>) -> Self {
        StreamingLerConfig {
            codes,
            rounds: 10,
            shots: 1024,
            noise: NoiseSpec::paper_default(),
            model: RadiationModel::default(),
            window: WindowConfig::default(),
            radius: 3,
            seed: 0x57E4_11E5,
        }
    }

    /// The acceptance workload: rep-(5,1) and xxzz-(3,3) strike streams.
    pub fn acceptance() -> Self {
        StreamingLerConfig::new(vec![
            crate::codes::RepetitionCode::bit_flip(5).into(),
            crate::codes::XxzzCode::new(3, 3).into(),
        ])
    }
}

/// One code's adaptive-vs-unaware comparison.
#[derive(Debug, Clone)]
pub struct StreamingLerRow {
    /// Code name, e.g. `rep-(5,1)-memr10`.
    pub code_name: String,
    /// Struck physical qubit (native frame).
    pub root: u32,
    /// Calibrated quiet-stream baseline (events per shot per round).
    pub baseline: f64,
    /// Calibrated residual standard deviation.
    pub sigma: f64,
    /// The closed loop: online alarms raise fitted-decay masks.
    pub adaptive: StreamDecodeReport,
    /// The control arm: same shots, masking disabled.
    pub unaware: StreamDecodeReport,
}

impl StreamingLerRow {
    /// Absolute LER improvement of the closed loop (positive = adaptive
    /// masking lowered the streaming logical error).
    pub fn delta(&self) -> f64 {
        self.unaware.ler() - self.adaptive.ler()
    }
}

/// Result of a streaming-LER comparison.
#[derive(Debug, Clone)]
pub struct StreamingLerResult {
    /// Streamed shots per campaign.
    pub shots: usize,
    /// Per-code rows, in config order.
    pub rows: Vec<StreamingLerRow>,
}

impl StreamingLerResult {
    /// The row of `code_name`, if present.
    pub fn row(&self, code_name: &str) -> Option<&StreamingLerRow> {
        self.rows.iter().find(|r| r.code_name == code_name)
    }

    /// CSV rendering:
    /// `code,root,baseline,sigma,adaptive_ler,unaware_ler,delta,first_alarm_round`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "code,root,baseline,sigma,adaptive_ler,unaware_ler,delta,first_alarm_round\n",
        );
        for r in &self.rows {
            let alarm = r.adaptive.first_alarm_round.map_or(String::new(), |v| v.to_string());
            out.push_str(&format!(
                "{},{},{:.4},{:.4},{:.6},{:.6},{:.6},{alarm}\n",
                r.code_name,
                r.root,
                r.baseline,
                r.sigma,
                r.adaptive.ler(),
                r.unaware.ler(),
                r.delta()
            ));
        }
        out
    }
}

/// Build the comparison's engine for `code`: the native SWAP-free host
/// with a readout-terminated memory. Shared with the `spacetime` bench so
/// the measured latencies come from the same streams the LER does.
///
/// # Panics
/// Panics on a configuration [`try_streaming_engine`] rejects.
pub fn streaming_engine(cfg: &StreamingLerConfig, code: CodeSpec) -> StreamEngine {
    try_streaming_engine(cfg, code).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`streaming_engine`]: `Err` on a configuration the stream
/// engine's `try_build` rejects, e.g. fewer than 2 rounds.
pub fn try_streaming_engine(
    cfg: &StreamingLerConfig,
    code: CodeSpec,
) -> Result<StreamEngine, EngineBuildError> {
    StreamEngine::builder(code, cfg.rounds)
        .shots(cfg.shots)
        .seed(cfg.seed)
        .native()
        .final_readout()
        .try_build()
}

/// Calibrate the online detector's residual statistic from a quiet stream
/// of `engine`: mean and standard deviation of the per-chunk-round
/// events-per-shot count (the statistic [`StreamDecoder`] scores at run
/// time).
pub fn calibrate_stream(engine: &StreamEngine, noise: &NoiseSpec) -> (f64, f64) {
    let spec = engine.stream_spec();
    let mut xs = Vec::new();
    let mut buf = Vec::new();
    for batch in engine.stream_batches(&StreamFault::None, noise) {
        let events = EventStream::extract(&batch, spec);
        for r in 0..events.rounds() {
            events.round_shot_counts(r, &mut buf);
            let x = buf.iter().map(|&c| f64::from(c)).sum::<f64>() / events.shots().max(1) as f64;
            xs.push(x);
        }
    }
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// The central data qubit's physical seat — the strike geometry every
/// campaign uses (the mitigation sweep's central root). Public so the
/// `spacetime_throughput` bench strikes the same seat it scores.
pub fn central_root(engine: &StreamEngine) -> u32 {
    let mid = engine.memory().n_data / 2;
    engine.transpiled().initial_layout.physical(mid)
}

/// Run the adaptive-vs-unaware streaming comparison.
pub fn run_streaming_ler(cfg: &StreamingLerConfig) -> StreamingLerResult {
    let mut rows = Vec::new();
    for &code in &cfg.codes {
        let engine = streaming_engine(cfg, code);
        let (baseline, sigma) = calibrate_stream(&engine, &cfg.noise);
        let root = central_root(&engine);
        let fault = StreamFault::Strike { model: cfg.model, root };
        let decoder_cfg = |adaptive| StreamDecoderConfig {
            window: cfg.window,
            adaptive,
            radius: cfg.radius,
            baseline,
            sigma,
            ..StreamDecoderConfig::default()
        };
        let run = |adaptive| {
            let decoder = StreamDecoder::new(&engine, decoder_cfg(adaptive), TierConfig::default());
            decoder.run(&fault, &cfg.noise)
        };
        rows.push(StreamingLerRow {
            code_name: engine.memory().name.clone(),
            root,
            baseline,
            sigma,
            adaptive: run(true),
            unaware: run(false),
        });
    }
    StreamingLerResult { shots: cfg.shots, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::RepetitionCode;

    #[test]
    fn quiet_streams_decode_to_near_zero_ler() {
        // No strike: the windowed decoder over intrinsic noise must score
        // a tiny absolute LER on rep-(5,1) — this pins the frame-relative
        // readout convention (a sign error here reads ~1.0, not ~0).
        let cfg = StreamingLerConfig::new(vec![RepetitionCode::bit_flip(5).into()]);
        let engine = streaming_engine(&cfg, RepetitionCode::bit_flip(5).into());
        let (baseline, sigma) = calibrate_stream(&engine, &cfg.noise);
        let decoder = StreamDecoder::new(
            &engine,
            StreamDecoderConfig { baseline, sigma, ..StreamDecoderConfig::default() },
            TierConfig::default(),
        );
        let report = decoder.run(&StreamFault::None, &cfg.noise);
        assert_eq!(report.shots, cfg.shots as u64);
        assert!(
            report.ler() < 0.05,
            "quiet rep-(5,1) stream decoded to LER {} — readout convention broken?",
            report.ler()
        );
    }

    #[test]
    fn adaptive_and_unaware_see_identical_streams() {
        // Same engine, same seed: the two arms must agree on shot count
        // and alarm statistics (detection runs in both; only masking
        // differs).
        let mut cfg = StreamingLerConfig::new(vec![RepetitionCode::bit_flip(5).into()]);
        cfg.shots = 256;
        let res = run_streaming_ler(&cfg);
        let row = &res.rows[0];
        assert_eq!(row.adaptive.shots, row.unaware.shots);
        assert_eq!(row.adaptive.chunk_alarms, row.unaware.chunk_alarms);
        assert_eq!(row.adaptive.first_alarm_round, row.unaware.first_alarm_round);
        assert!(row.adaptive.chunk_alarms > 0, "a certain central strike must alarm");
        let csv = res.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("code,root,baseline"));
    }
}

#[cfg(test)]
mod acceptance_tests {
    use super::*;

    #[test]
    fn adaptive_masking_beats_unaware_on_strike_workloads() {
        // The closed detect->decode loop must lower the absolute streaming
        // LER on both acceptance codes. Deterministic at the fixed seed.
        let mut cfg = StreamingLerConfig::acceptance();
        cfg.shots = 512;
        let res = run_streaming_ler(&cfg);
        assert_eq!(res.rows.len(), 2);
        for row in &res.rows {
            assert!(row.adaptive.chunk_alarms > 0, "{}: the strike must alarm", row.code_name);
            assert!(
                row.delta() > 0.0,
                "{}: adaptive {:.4} must beat unaware {:.4}",
                row.code_name,
                row.adaptive.ler(),
                row.unaware.ler()
            );
        }
    }
}
