//! Online detectors over per-round detection-event counts.
//!
//! A detector sees one shot's stream of per-round event-count
//! **residuals** — the raw counts minus a per-round baseline calibrated
//! from an intrinsic-noise-only stream — exactly what a real-time monitor
//! with a warm-up calibration would see. Baseline subtraction matters:
//! routed circuits have a *non-stationary* intrinsic event rate (the
//! first rounds after initialisation run hotter), and detectors fed raw
//! counts would keep re-detecting that ramp instead of the strike. Each
//! detector reports a [`Detection`]: a scalar anomaly score (thresholded
//! offline for ROC analysis) and the first round at which its own online
//! rule fired (detection latency).

/// Outcome of running one detector over one shot's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Anomaly score: larger = more strike-like. The ROC sweep thresholds
    /// this value.
    pub score: f64,
    /// First round at which the detector's online rule fired, if it did.
    pub alarm_round: Option<usize>,
}

/// Running state of one shot's count detector — the decode-as-you-stream
/// mirror of [`OnlineDetector::detect`]: residuals are pushed round by
/// round as the stream generates them, and [`Self::detection`] at any
/// point equals the batch call on the rounds seen so far (the batch path
/// *is* a fold over [`OnlineDetector::push`], so the two can never
/// disagree).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountDetectorState {
    /// Detector-specific running statistic (CUSUM's `S_r`; unused by the
    /// threshold rule).
    pub stat: f64,
    /// Running anomaly score.
    pub peak: f64,
    /// First alarming round, if any.
    pub alarm_round: Option<usize>,
}

impl CountDetectorState {
    /// The detection verdict of the rounds pushed so far.
    pub fn detection(&self) -> Detection {
        Detection { score: self.peak, alarm_round: self.alarm_round }
    }
}

/// An online change detector over per-round detection-event residuals.
pub trait OnlineDetector: Send + Sync {
    /// Detector display name.
    fn name(&self) -> &str;

    /// Fresh per-shot state for the incremental API.
    fn begin(&self) -> CountDetectorState;

    /// Advance one shot's state by round `round`'s residual.
    fn push(&self, state: &mut CountDetectorState, round: usize, residual: f64);

    /// Process one shot's per-round baseline-subtracted event counts
    /// (index = round) — a fold over [`Self::push`].
    fn detect(&self, residuals: &[f64]) -> Detection {
        let mut state = self.begin();
        for (r, &c) in residuals.iter().enumerate() {
            self.push(&mut state, r, c);
        }
        state.detection()
    }
}

/// Per-round event-rate threshold: alarm as soon as a single round runs
/// at least `threshold` events above its baseline. The simplest possible
/// monitor — and the baseline the CUSUM detector is measured against.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdDetector {
    /// Minimum per-round event-count excess that raises the alarm.
    pub threshold: f64,
}

impl OnlineDetector for ThresholdDetector {
    fn name(&self) -> &str {
        "threshold"
    }

    fn begin(&self) -> CountDetectorState {
        CountDetectorState { stat: 0.0, peak: f64::NEG_INFINITY, alarm_round: None }
    }

    fn push(&self, state: &mut CountDetectorState, round: usize, residual: f64) {
        state.peak = state.peak.max(residual);
        if state.alarm_round.is_none() && residual >= self.threshold {
            state.alarm_round = Some(round);
        }
    }
}

/// CUSUM change-point detector: the classical one-sided cumulative-sum
/// statistic `S_r = max(0, S_{r−1} + x_r − drift)` over the baseline
/// residuals, with alarm at `S_r ≥ threshold`.
///
/// `drift` sits between 0 (the residual mean of intrinsic noise) and the
/// post-strike excess, so intrinsic fluctuations keep resetting `S` to ~0
/// while a strike's burst of correlated events accumulates across rounds
/// — catching both a single violent round and a sustained moderate
/// elevation that no single-round threshold separates from noise.
#[derive(Debug, Clone, Copy)]
pub struct CusumDetector {
    /// Per-round drift `k` subtracted from each count.
    pub drift: f64,
    /// Alarm level `h` on the cumulative statistic.
    pub threshold: f64,
}

impl CusumDetector {
    /// Standard tuning from an intrinsic-noise calibration of the
    /// residuals: drift `σ` above the (zero) residual mean, alarm level at
    /// `4σ` (σ floored at 0.5 events so noiseless calibrations still leave
    /// a margin).
    pub fn calibrated(residual_std: f64) -> Self {
        let sigma = residual_std.max(0.5);
        CusumDetector { drift: sigma, threshold: 4.0 * sigma }
    }
}

impl OnlineDetector for CusumDetector {
    fn name(&self) -> &str {
        "cusum"
    }

    fn begin(&self) -> CountDetectorState {
        CountDetectorState { stat: 0.0, peak: 0.0, alarm_round: None }
    }

    fn push(&self, state: &mut CountDetectorState, round: usize, residual: f64) {
        state.stat = (state.stat + residual - self.drift).max(0.0);
        state.peak = state.peak.max(state.stat);
        if state.alarm_round.is_none() && state.stat >= self.threshold {
            state.alarm_round = Some(round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_fires_at_first_violating_round() {
        let det = ThresholdDetector { threshold: 3.0 };
        let d = det.detect(&[0.0, 1.0, 5.0, 2.0, 4.0]);
        assert_eq!(d.alarm_round, Some(2));
        assert_eq!(d.score, 5.0);
        let quiet = det.detect(&[-1.0, 1.0, 2.0, 1.0]);
        assert_eq!(quiet.alarm_round, None);
        assert_eq!(quiet.score, 2.0);
    }

    #[test]
    fn cusum_accumulates_sustained_elevation() {
        // Per-round counts never reach 5, but stay 2 above drift: CUSUM
        // crosses h = 6 after 3 elevated rounds.
        let det = CusumDetector { drift: 1.0, threshold: 6.0 };
        let d = det.detect(&[0.0, 3.0, 3.0, 3.0, 3.0]);
        assert_eq!(d.alarm_round, Some(3));
        assert!(d.score >= 6.0);
        // A single spike of the same total mass alarms immediately.
        let spike = det.detect(&[9.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(spike.alarm_round, Some(0));
    }

    #[test]
    fn cusum_resets_on_quiet_rounds() {
        let det = CusumDetector { drift: 2.0, threshold: 5.0 };
        // Alternating 3/0 keeps S bouncing off zero: never alarms.
        let d = det.detect(&[3.0, 0.0, 3.0, 0.0, 3.0, 0.0]);
        assert_eq!(d.alarm_round, None);
        assert!(d.score < 5.0);
    }

    #[test]
    fn incremental_push_equals_batch_detect() {
        let residuals = [0.0, 3.0, -1.0, 5.0, 2.0, 0.5, 4.0];
        let cusum = CusumDetector { drift: 1.0, threshold: 6.0 };
        let threshold = ThresholdDetector { threshold: 4.0 };
        for det in [&cusum as &dyn OnlineDetector, &threshold] {
            let mut state = det.begin();
            for (r, &c) in residuals.iter().enumerate() {
                det.push(&mut state, r, c);
                // Mid-stream verdict equals the batch verdict on the prefix.
                assert_eq!(
                    state.detection(),
                    det.detect(&residuals[..=r]),
                    "{} round {r}",
                    det.name()
                );
            }
        }
    }

    #[test]
    fn calibration_floors_sigma() {
        let c = CusumDetector::calibrated(0.0);
        assert_eq!(c.drift, 0.5);
        assert_eq!(c.threshold, 2.0);
        let c = CusumDetector::calibrated(2.0);
        assert_eq!(c.drift, 2.0);
        assert_eq!(c.threshold, 8.0);
    }
}
