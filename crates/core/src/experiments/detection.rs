//! Online radiation-event detection sweep — the beyond-paper artefact
//! layered on multi-round syndrome streaming (see `crate::streaming` and
//! the `radqec-detect` crate).
//!
//! For each strike position, the harness streams a strike campaign and an
//! intrinsic-noise-only campaign through the same engine (common random
//! numbers), runs every detector over both, and reports per (root ×
//! detector):
//!
//! * **ROC AUC** — separability of strike streams from null streams by the
//!   detector's anomaly score;
//! * **detection / false-alarm rates** — at the detector's own online
//!   alarm threshold, calibrated from the null stream;
//! * **median detection latency** — rounds from the strike (round 0) to
//!   the alarm, over alarmed strike shots;
//! * **median localization error** — hops between the clusterer's root
//!   estimate and the true root (spatial clusterer only).

use crate::codes::CodeSpec;
use crate::injection::SamplerKind;
use crate::streaming::{StreamEngine, StreamFault};
use radqec_circuit::ShotBatch;
use radqec_detect::{
    median_u32, quantile, roc_auc, ClusterDetector, CusumDetector, EventStream, Localizer,
    OnlineDetector, RootCalibration, ThresholdDetector,
};
use radqec_noise::{NoiseSpec, RadiationModel};

/// Configuration of a detection sweep.
pub struct DetectionConfig {
    /// Code under test.
    pub code: CodeSpec,
    /// Stabilisation rounds per shot (default 10, mirroring the offline
    /// model's `n_s`).
    pub rounds: usize,
    /// Streamed shots per campaign — one strike and one null campaign per
    /// root (default 1000).
    pub shots: usize,
    /// Intrinsic noise (default: the paper's 1%).
    pub noise: NoiseSpec,
    /// Radiation model (γ and spatial constant; `num_samples` is unused —
    /// the round count plays that role).
    pub model: RadiationModel,
    /// Strike positions. `None`: five evenly spaced data-carrying sites.
    pub roots: Option<Vec<u32>>,
    /// Host the code on its native SWAP-free embedding
    /// ([`CodeSpec::native_embedding`]) — default true: detection studies
    /// the device a deployed code would actually run on, and the fitted
    /// 5×k mesh's hundreds of routing SWAPs per round both inflate the
    /// intrinsic event rate and smear the strike's spatial footprint.
    /// `false` falls back to the paper's fitted-mesh transpilation.
    pub native: bool,
    /// Boundary-aware per-root cluster-score calibration — default
    /// false, preserving the raw matched-filter score. When true, the
    /// sweep fits a [`RootCalibration`] from the null campaign (per-root
    /// score quantiles, pooled over 2-hop neighbourhoods) and rescales
    /// every cluster score by its elected root's null level before
    /// thresholding and ROC analysis. (The model-based alternative,
    /// `Localizer::with_boundary_norm`, is a separate opt-in on the
    /// localizer itself; measurements show both leave the corner AUC gap
    /// essentially unchanged — it is signal-limited, see ROADMAP.)
    pub boundary_norm: bool,
    /// Shot sampler (default frame batch).
    pub sampler: SamplerKind,
    /// Master seed.
    pub seed: u64,
    /// Localizer window (rounds) and per-round damping.
    pub window: usize,
    /// Per-round recency damping of the localizer window.
    pub decay: f64,
}

impl DetectionConfig {
    /// Default sweep for `code`.
    pub fn new(code: CodeSpec) -> Self {
        DetectionConfig {
            code,
            rounds: 10,
            shots: 1000,
            noise: NoiseSpec::paper_default(),
            model: RadiationModel::default(),
            roots: None,
            native: true,
            boundary_norm: false,
            sampler: SamplerKind::FrameBatch,
            seed: 0xDE7EC7,
            window: Localizer::DEFAULT_WINDOW,
            decay: Localizer::DEFAULT_DECAY,
        }
    }

    /// The ISSUE 3 acceptance workload: XXZZ-(5,5) (d = 5) at paper-default
    /// noise, 10⁴ streamed shots per campaign.
    pub fn acceptance() -> Self {
        let mut cfg = DetectionConfig::new(crate::codes::XxzzCode::new(5, 5).into());
        cfg.shots = 10_000;
        cfg
    }
}

/// One (strike position × detector) cell of the sweep.
#[derive(Debug, Clone)]
pub struct DetectionRow {
    /// Struck physical qubit.
    pub root: u32,
    /// Detector name (`threshold`, `cusum`, `cluster`).
    pub detector: String,
    /// ROC AUC of the detector's score, strike vs. null streams.
    pub auc: f64,
    /// Fraction of strike shots that raised the alarm.
    pub detection_rate: f64,
    /// Fraction of null shots that raised the alarm.
    pub false_alarm_rate: f64,
    /// Median alarm round over alarmed strike shots (strike at round 0, so
    /// this *is* the detection latency in rounds); `None` when nothing
    /// alarmed.
    pub median_latency_rounds: Option<u32>,
    /// Median hop distance from the clusterer's root estimate to the true
    /// root (`None` for non-localizing detectors).
    pub median_loc_error_hops: Option<u32>,
}

/// Result of a detection sweep.
#[derive(Debug, Clone)]
pub struct DetectionResult {
    /// Memory-experiment name, e.g. `xxzz-(5,5)-mem10`.
    pub code_name: String,
    /// Rounds per shot.
    pub rounds: usize,
    /// Shots per campaign.
    pub shots: usize,
    /// Per-(root, detector) rows, root-major in sweep order.
    pub rows: Vec<DetectionRow>,
}

impl DetectionResult {
    /// The row of (root, detector), if present.
    pub fn row(&self, root: u32, detector: &str) -> Option<&DetectionRow> {
        self.rows.iter().find(|r| r.root == root && r.detector == detector)
    }

    /// CSV rendering:
    /// `root,detector,auc,detection_rate,false_alarm_rate,median_latency_rounds,median_loc_error_hops`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "root,detector,auc,detection_rate,false_alarm_rate,\
             median_latency_rounds,median_loc_error_hops\n",
        );
        for r in &self.rows {
            let lat = r.median_latency_rounds.map_or(String::new(), |v| v.to_string());
            let loc = r.median_loc_error_hops.map_or(String::new(), |v| v.to_string());
            out.push_str(&format!(
                "{},{},{:.4},{:.4},{:.4},{lat},{loc}\n",
                r.root, r.detector, r.auc, r.detection_rate, r.false_alarm_rate
            ));
        }
        out
    }
}

/// Per-shot detector outputs of one campaign.
struct CampaignTrace {
    scores: Vec<f64>,
    alarms: Vec<Option<usize>>,
    /// Root estimates (cluster detector only; empty otherwise).
    roots: Vec<Option<u32>>,
}

/// Per-round event counts of every shot of a campaign, plus the extracted
/// streams (kept for the spatial clusterer).
struct Campaign {
    events: Vec<EventStream>,
    counts: Vec<Vec<u32>>,
}

impl Campaign {
    /// Per-round mean event count — the baseline the count detectors
    /// subtract (the intrinsic rate of routed circuits is non-stationary:
    /// early rounds run hotter).
    fn round_baseline(&self) -> Vec<f64> {
        let rounds = self.counts.first().map_or(0, Vec::len);
        let mut base = vec![0.0; rounds];
        for counts in &self.counts {
            for (b, &c) in base.iter_mut().zip(counts) {
                *b += f64::from(c);
            }
        }
        for b in &mut base {
            *b /= self.counts.len() as f64;
        }
        base
    }

    /// Pooled standard deviation of the baseline residuals.
    fn residual_std(&self, baseline: &[f64]) -> f64 {
        let mut sq = 0.0f64;
        let mut n = 0usize;
        for counts in &self.counts {
            for (&b, &c) in baseline.iter().zip(counts) {
                let r = f64::from(c) - b;
                sq += r * r;
                n += 1;
            }
        }
        (sq / n.max(1) as f64).sqrt()
    }
}

fn campaign(batches: &[ShotBatch], engine: &StreamEngine) -> Campaign {
    let spec = engine.stream_spec();
    let events: Vec<EventStream> = batches.iter().map(|b| EventStream::extract(b, spec)).collect();
    let mut counts = Vec::with_capacity(engine.shots());
    let mut buf = Vec::new();
    for ev in &events {
        for s in 0..ev.shots() {
            ev.round_counts(s, &mut buf);
            counts.push(buf.clone());
        }
    }
    Campaign { events, counts }
}

fn run_counts_detector(
    det: &dyn OnlineDetector,
    campaign: &Campaign,
    baseline: &[f64],
) -> CampaignTrace {
    let mut scores = Vec::with_capacity(campaign.counts.len());
    let mut alarms = Vec::with_capacity(campaign.counts.len());
    let mut residuals = vec![0.0f64; baseline.len()];
    for counts in &campaign.counts {
        for (r, (&b, &c)) in baseline.iter().zip(counts).enumerate() {
            residuals[r] = f64::from(c) - b;
        }
        let d = det.detect(&residuals);
        scores.push(d.score);
        alarms.push(d.alarm_round);
    }
    CampaignTrace { scores, alarms, roots: Vec::new() }
}

fn run_cluster_detector(det: &ClusterDetector, campaign: &Campaign) -> CampaignTrace {
    let mut trace = CampaignTrace { scores: Vec::new(), alarms: Vec::new(), roots: Vec::new() };
    for ev in &campaign.events {
        for s in 0..ev.shots() {
            let (score, alarm, root) = det.detect_shot(ev, s);
            trace.scores.push(score);
            trace.alarms.push(alarm);
            trace.roots.push(root);
        }
    }
    trace
}

/// Raw single-event score floor of the cluster alarm (a lone event — or
/// its time-like repeat — may never alarm, whatever the calibration).
const CLUSTER_RAW_FLOOR: f64 = 1.05;

/// The boundary-calibrated cluster evaluation (`DetectionConfig::
/// boundary_norm`): every window score is rescaled by the shot's elected
/// root's *null* reference level ([`RootCalibration`]) before scoring and
/// thresholding, so corner-rooted strikes are compared against
/// corner-null behaviour instead of the chip-wide (centre-dominated)
/// score pool. The raw floor still gates alarms.
fn run_cluster_calibrated(
    probe: &ClusterDetector,
    campaign: &Campaign,
    cal: &RootCalibration,
    level: f64,
) -> CampaignTrace {
    let mut trace = CampaignTrace { scores: Vec::new(), alarms: Vec::new(), roots: Vec::new() };
    let mut windows = Vec::new();
    for ev in &campaign.events {
        for s in 0..ev.shots() {
            let root = probe.window_trace(ev, s, &mut windows);
            let mut score = 0.0f64;
            let mut alarm = None;
            for (r, &raw) in windows.iter().enumerate() {
                let norm = cal.normalize(root, raw);
                score = score.max(norm);
                if alarm.is_none() && norm >= level && raw >= CLUSTER_RAW_FLOOR {
                    alarm = Some(r);
                }
            }
            trace.scores.push(score);
            trace.alarms.push(alarm);
            trace.roots.push(root);
        }
    }
    trace
}

fn rate_of(alarms: &[Option<usize>]) -> f64 {
    alarms.iter().filter(|a| a.is_some()).count() as f64 / alarms.len() as f64
}

fn median_latency(alarms: &[Option<usize>]) -> Option<u32> {
    let rounds: Vec<u32> = alarms.iter().flatten().map(|&r| r as u32).collect();
    if rounds.is_empty() {
        None
    } else {
        Some(median_u32(&rounds))
    }
}

/// Run the detection sweep.
pub fn run_detection(cfg: &DetectionConfig) -> DetectionResult {
    let mut builder = StreamEngine::builder(cfg.code, cfg.rounds)
        .shots(cfg.shots)
        .seed(cfg.seed)
        .sampler(cfg.sampler);
    if cfg.native {
        builder = builder.native();
    }
    let engine = builder.build();
    let spec = engine.stream_spec();

    // Null campaign: shared by every root (one stream, one calibration).
    let null_batches = engine.stream_batches(&StreamFault::None, &cfg.noise);
    let null = campaign(&null_batches, &engine);

    // Calibrate the per-round baseline and the online alarm thresholds
    // from the null stream.
    let baseline = null.round_baseline();
    let std = null.residual_std(&baseline);
    let cusum = CusumDetector::calibrated(std);
    let threshold = ThresholdDetector { threshold: (4.0 * std.max(0.5)).max(2.0) };
    let localizer = Localizer::new(spec, engine.topology(), cfg.window, cfg.decay);
    // Cluster alarm level: above the null stream's 99.5th score percentile,
    // floored above 1.0 so a single event — or its time-like repeat — can
    // never alarm even on a noiseless calibration. A single window-trace
    // pass over the null campaign provides both the calibration scores
    // and, once the level is fixed, every null alarm round — the window
    // scans (the expensive part) run exactly once.
    let probe = ClusterDetector::new(localizer.clone(), f64::INFINITY);
    let mut null_window_scores: Vec<Vec<f64>> = Vec::with_capacity(cfg.shots);
    let mut null_cluster =
        CampaignTrace { scores: Vec::new(), alarms: Vec::new(), roots: Vec::new() };
    for ev in &null.events {
        for s in 0..ev.shots() {
            let mut windows = Vec::new();
            let root = probe.window_trace(ev, s, &mut windows);
            null_cluster.scores.push(windows.iter().copied().fold(0.0, f64::max));
            null_cluster.roots.push(root);
            null_window_scores.push(windows);
        }
    }
    // Boundary-aware mode: fit each root's null score baseline from the
    // probe pass and re-express scores and the alarm level on the
    // calibrated scale (see `run_cluster_calibrated`).
    let calibration = cfg.boundary_norm.then(|| {
        RootCalibration::fit(
            null_cluster.roots.iter().copied().zip(null_cluster.scores.iter().copied()),
            engine.topology(),
            0.9,
        )
    });
    let cluster_level;
    match &calibration {
        Some(cal) => {
            let norm_scores: Vec<f64> = null_cluster
                .roots
                .iter()
                .zip(&null_cluster.scores)
                .map(|(&root, &s)| cal.normalize(root, s))
                .collect();
            cluster_level = 1.1 * quantile(&norm_scores, 0.995);
            null_cluster.alarms = null_window_scores
                .iter()
                .zip(&null_cluster.roots)
                .map(|(windows, &root)| {
                    windows.iter().position(|&raw| {
                        cal.normalize(root, raw) >= cluster_level && raw >= CLUSTER_RAW_FLOOR
                    })
                })
                .collect();
            null_cluster.scores = norm_scores;
        }
        None => {
            cluster_level = (1.1 * quantile(&null_cluster.scores, 0.995)).max(CLUSTER_RAW_FLOOR);
            null_cluster.alarms = null_window_scores
                .iter()
                .map(|windows| windows.iter().position(|&s| s >= cluster_level))
                .collect();
        }
    }
    let cluster = ClusterDetector::new(localizer, cluster_level);

    let roots = cfg.roots.clone().unwrap_or_else(|| {
        // Five evenly spaced *data-carrying* physical sites (initial
        // layout): strikes on data qubits are the paper's primary threat
        // model, and the selection is deterministic.
        let layout = &engine.transpiled().initial_layout;
        let data: Vec<u32> = (0..engine.memory().n_data).map(|d| layout.physical(d)).collect();
        let picks = 5.min(data.len());
        (0..picks).map(|i| data[i * (data.len() - 1) / (picks - 1).max(1)]).collect()
    });

    let null_traces: [CampaignTrace; 3] = [
        run_counts_detector(&threshold, &null, &baseline),
        run_counts_detector(&cusum, &null, &baseline),
        null_cluster,
    ];

    let mut rows = Vec::new();
    for &root in &roots {
        let strike_batches =
            engine.stream_batches(&StreamFault::Strike { model: cfg.model, root }, &cfg.noise);
        let strike = campaign(&strike_batches, &engine);
        let dists = engine.topology().distances_from(root);
        let cluster_trace = match &calibration {
            Some(cal) => run_cluster_calibrated(&probe, &strike, cal, cluster_level),
            None => run_cluster_detector(&cluster, &strike),
        };
        let traces: [(String, CampaignTrace); 3] = [
            (threshold.name().into(), run_counts_detector(&threshold, &strike, &baseline)),
            (cusum.name().into(), run_counts_detector(&cusum, &strike, &baseline)),
            ("cluster".into(), cluster_trace),
        ];
        for ((detector, trace), null_trace) in traces.into_iter().zip(&null_traces) {
            let loc_errors: Vec<u32> = trace
                .roots
                .iter()
                .flatten()
                .map(|&est| dists[est as usize])
                .filter(|&d| d != u32::MAX)
                .collect();
            rows.push(DetectionRow {
                root,
                detector,
                auc: roc_auc(&trace.scores, &null_trace.scores),
                detection_rate: rate_of(&trace.alarms),
                false_alarm_rate: rate_of(&null_trace.alarms),
                median_latency_rounds: median_latency(&trace.alarms),
                median_loc_error_hops: if loc_errors.is_empty() {
                    None
                } else {
                    Some(median_u32(&loc_errors))
                },
            });
        }
    }

    DetectionResult {
        code_name: engine.memory().name.clone(),
        rounds: cfg.rounds,
        shots: cfg.shots,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::RepetitionCode;

    #[test]
    fn scaled_sweep_separates_strikes_from_noise() {
        // Scaled-down acceptance shape: rep-(5,1) memory, 6 rounds, strike
        // at data qubit 2 (transpiled in place on the 5×2 mesh).
        let mut cfg = DetectionConfig::new(RepetitionCode::bit_flip(5).into());
        cfg.rounds = 6;
        cfg.shots = 512;
        cfg.roots = Some(vec![2]);
        let res = run_detection(&cfg);
        assert_eq!(res.rows.len(), 3, "three detectors per root");
        for det in ["threshold", "cusum", "cluster"] {
            let row = res.row(2, det).unwrap_or_else(|| panic!("{det} row missing"));
            assert!(row.auc > 0.75, "{det} auc {}", row.auc);
            assert!(row.false_alarm_rate < 0.1, "{det} false alarms {}", row.false_alarm_rate);
        }
        // The acceptance-shaped invariants, scaled down: CUSUM separates
        // well, alarms on a solid fraction of strikes, and alarms *fast*.
        let cusum = res.row(2, "cusum").unwrap();
        assert!(cusum.auc > 0.85, "cusum auc {}", cusum.auc);
        assert!(cusum.detection_rate > 0.3, "cusum detections {}", cusum.detection_rate);
        let lat = cusum.median_latency_rounds.expect("cusum must alarm");
        assert!(lat <= 3, "cusum latency {lat}");
        let cluster = res.row(2, "cluster").unwrap();
        let hops = cluster.median_loc_error_hops.expect("clusterer must localize");
        assert!(hops <= 2, "localization error {hops} hops");
        // Count-based detectors do not localize.
        assert!(res.row(2, "cusum").unwrap().median_loc_error_hops.is_none());
    }

    #[test]
    fn csv_has_one_line_per_row() {
        let mut cfg = DetectionConfig::new(RepetitionCode::bit_flip(3).into());
        cfg.rounds = 4;
        cfg.shots = 64;
        cfg.roots = Some(vec![0, 1]);
        let res = run_detection(&cfg);
        let csv = res.to_csv();
        assert_eq!(csv.lines().count(), 1 + res.rows.len());
        assert!(csv.starts_with("root,detector,auc"));
    }

    #[test]
    fn default_roots_are_deterministic_and_used() {
        let mut cfg = DetectionConfig::new(RepetitionCode::bit_flip(3).into());
        cfg.rounds = 4;
        cfg.shots = 64;
        let a = run_detection(&cfg);
        let b = run_detection(&cfg);
        let roots_a: Vec<u32> = a.rows.iter().map(|r| r.root).collect();
        let roots_b: Vec<u32> = b.rows.iter().map(|r| r.root).collect();
        assert_eq!(roots_a, roots_b);
        assert!(!a.rows.is_empty());
    }
}
