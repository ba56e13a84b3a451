//! Strike localization: the sliding-window damped-defect centroid.
//!
//! A radiation strike floods the stabilizers whose ancillas and data sit
//! near the impact with detection events, with density falling off like
//! the spatial damping `S(d)`. Scoring every candidate root by its
//! recency- and distance-damped defect mass — a matched filter against
//! that very profile — therefore peaks on (or next to) the struck qubit,
//! and the peak height separates a strike's co-located burst from
//! scattered intrinsic noise.

use crate::events::{EventStream, StreamSpec};
use crate::roc::quantile;
use radqec_topology::Topology;

/// Damped-defect centroid localizer (see module docs).
///
/// Built once per (stream layout, topology) pair: BFS distance rows from
/// every ancilla position are precomputed, so localizing a shot is a small
/// weighted scan.
#[derive(Debug, Clone)]
pub struct Localizer {
    /// Rounds included in the window, starting at the strike-facing end of
    /// the stream (round 0).
    window: usize,
    /// Per-round recency damping: round `r` events weigh `decay^r`.
    decay: f64,
    rounds: usize,
    num_stabs: usize,
    /// Distance-row index per (round, stab), flattened `r·num_stabs + i`
    /// (rows deduplicated by physical qubit).
    row_of: Vec<usize>,
    /// Distinct BFS distance rows, `rows[k][q]` = hops from ancilla
    /// position `k` to qubit `q`.
    rows: Vec<Vec<u32>>,
    /// Per-candidate diffuse background of the *sharp* localization
    /// kernel: the mean weight a uniformly placed event contributes at
    /// qubit `q`. Scaled by a window's total event mass and subtracted
    /// from the local mass, it removes the advantage central qubits get
    /// merely by seeing more of the chip — leaving the *local excess*
    /// that only co-located events can produce.
    background: Vec<f64>,
    /// Boundary-calibration factor per candidate: the chip-mean diffuse
    /// wide-kernel background over the candidate's own (α = ½). Scores
    /// are multiplied by it in boundary-norm mode.
    norm: Vec<f64>,
    /// Normalise the detection score against each candidate root's null
    /// baseline (see [`Localizer::with_boundary_norm`]).
    normalize: bool,
    /// Candidate root qubits (every qubit of the topology).
    num_qubits: usize,
}

impl Localizer {
    /// Default window: the strike burst is over after 3 rounds of `γ = 10`
    /// decay (`T(2/9) ≈ 0.11`), so wider windows only admit noise.
    pub const DEFAULT_WINDOW: usize = 3;
    /// Default per-round damping, matching the paper's `T(t)` step ratio at
    /// `γ = 10`, `R = 10` (`e^{−10/9} ≈ 0.33`).
    pub const DEFAULT_DECAY: f64 = 0.33;

    /// Precompute distance rows for `spec`'s ancilla positions on `topo`.
    pub fn new(spec: &StreamSpec, topo: &Topology, window: usize, decay: f64) -> Self {
        assert!(window >= 1, "localizer window must cover at least one round");
        assert!(decay > 0.0, "decay must be positive");
        let mut rows: Vec<Vec<u32>> = Vec::new();
        let mut qubit_of_row: Vec<u32> = Vec::new();
        let row_of = spec
            .ancilla_physical
            .iter()
            .map(|&q| match qubit_of_row.iter().position(|&p| p == q) {
                Some(k) => k,
                None => {
                    qubit_of_row.push(q);
                    rows.push(topo.distances_from(q));
                    rows.len() - 1
                }
            })
            .collect();
        let num_qubits = topo.num_qubits() as usize;
        let row_of: Vec<usize> = row_of;
        let background: Vec<f64> = (0..num_qubits)
            .map(|q| {
                let total: f64 = row_of.iter().map(|&k| sharp_weight(rows[k][q])).sum();
                total / row_of.len() as f64
            })
            .collect();
        let wide_background: Vec<f64> = (0..num_qubits)
            .map(|q| row_of.iter().map(|&k| spatial_weight(rows[k][q])).sum::<f64>())
            .collect();
        let mean_bg = wide_background.iter().sum::<f64>() / num_qubits.max(1) as f64;
        let norm: Vec<f64> =
            wide_background.iter().map(|&bg| (mean_bg / bg.max(1e-12)).sqrt()).collect();
        Localizer {
            window,
            decay,
            rounds: spec.rounds,
            num_stabs: spec.num_stabs,
            row_of,
            rows,
            background,
            norm,
            normalize: false,
            num_qubits,
        }
    }

    /// Boundary-aware per-root score normalisation (ROADMAP follow-up:
    /// corner strikes separate much worse than central ones). The raw
    /// detection statistic — the wide kernel's peak — is biased towards
    /// chip-central candidates, which collect background mass from more
    /// detectors; a corner strike can never reach the alarm level that a
    /// *central-null* calibration implies. With normalisation on, every
    /// candidate's wide mass is *rescaled* by `√(b̄ / b_q)` — the
    /// chip-mean diffuse background over the candidate's own — so corner
    /// and central roots alarm on an equal footing. A ratio (not an
    /// excess subtraction): under the per-gate reset model magnitude is
    /// signal, so the raw mass is kept and only the boundary bias is
    /// divided out; √ because a strike's mass deficit at the boundary is
    /// milder than the null background's.
    pub fn with_boundary_norm(mut self, on: bool) -> Self {
        self.normalize = on;
        self
    }

    /// [`Localizer::new`] with the default window and damping.
    pub fn with_defaults(spec: &StreamSpec, topo: &Topology) -> Self {
        Self::new(spec, topo, Self::DEFAULT_WINDOW, Self::DEFAULT_DECAY)
    }

    /// Damped-defect centroid estimate of the strike root for one shot,
    /// over the default window `[0, window)` — `None` when the window
    /// holds no events (nothing to localize). Ties break to the lowest
    /// qubit index, so estimates are deterministic.
    pub fn localize(&self, events: &EventStream, shot: usize) -> Option<u32> {
        self.window_eval(events, shot, 0, self.window).map(|c| c.root)
    }

    /// Evaluate the damped-defect cluster of rounds `[start, end)` of one
    /// shot: collect events weighted `decay^(r − start)`, then scan every
    /// candidate root with two matched filters — the wide detection
    /// kernel (`S(d)` at `n = 2`), whose raw peak is the cluster *score*,
    /// and the ring-shaped localization kernel, whose background-
    /// subtracted peak is the *root estimate* (see `spatial_weight` /
    /// `sharp_weight` for why they differ). Returns the result as a
    /// [`WindowCluster`]; `None` when the window holds no events.
    pub fn window_eval(
        &self,
        events: &EventStream,
        shot: usize,
        start: usize,
        end: usize,
    ) -> Option<WindowCluster> {
        debug_assert_eq!(events.rounds(), self.rounds);
        debug_assert_eq!(events.num_stabs(), self.num_stabs);
        let mut defects: Vec<(usize, f64)> = Vec::new();
        let mut positions = 0usize;
        let mut weight = 1.0f64;
        let mut mass = 0.0f64;
        for r in start..end.min(self.rounds) {
            for i in 0..self.num_stabs {
                if events.event(r, i, shot) {
                    mass += weight;
                    let row = self.row_of[r * self.num_stabs + i];
                    if !defects.iter().any(|&(r0, _)| r0 == row) {
                        positions += 1;
                    }
                    defects.push((row, weight));
                }
            }
            weight *= self.decay;
        }
        if defects.is_empty() {
            return None;
        }
        let mut best_mass: Option<f64> = None;
        let mut best_excess: Option<(f64, u32)> = None;
        for q in 0..self.num_qubits {
            let mut wide = 0.0f64;
            let mut sharp = 0.0f64;
            for &(row, w) in &defects {
                let d = self.rows[row][q];
                wide += w * spatial_weight(d);
                sharp += w * sharp_weight(d);
            }
            // Detection statistic: the peak of the wide kernel — under
            // the per-gate reset model a strike elevates the *whole*
            // chip's event rate (compounded `S(d)` per round), so
            // magnitude is signal, not background. In boundary-norm mode
            // the peak is taken over per-candidate null z-scores instead
            // (see `with_boundary_norm`).
            let stat = if self.normalize { wide * self.norm[q] } else { wide };
            if best_mass.is_none_or(|m| stat > m) {
                best_mass = Some(stat);
            }
            // Localization statistic: the sharp kernel's *local excess*
            // over the diffuse expectation of an equally noisy but
            // spatially uniform shot. Sharp, because the estimate should
            // snap to the hottest neighbourhood; excess, because without
            // the subtraction central qubits win simply by seeing more of
            // the chip (centre bias), ruining off-centre roots.
            let excess = sharp - self.background[q] * mass;
            if best_excess.is_none_or(|(m, _)| excess > m) {
                best_excess = Some((excess, q as u32));
            }
        }
        let mut score = best_mass?;
        let (_, root) = best_excess?;
        // A window whose events all share one ancilla position is a
        // *time-like* chain (the signature of an isolated measurement
        // blip, which fires the same detector in consecutive rounds), not
        // a spatial cluster: cap it at a single event's score so it can
        // never outrank a genuine two-position spread. The cap carries
        // over to the normalised scale, where a lone event's z can spike
        // at low-baseline (corner) candidates.
        if positions < 2 {
            score = score.min(1.0);
        }
        Some(WindowCluster { mass, score, root })
    }
}

/// The detection kernel `4 / (2 + d)²` — the radiation model's spatial
/// damping form `S(d) = n²/(d+n)²` with a widened constant `n = 2`: the
/// struck qubit itself carries no detector, so a strike's events land on
/// the *ring* of ancillas one-to-two hops out, and the `n = 1` profile
/// decays too sharply to reward that ring over a single isolated event.
/// An unreachable qubit contributes nothing.
#[inline]
fn spatial_weight(d: u32) -> f64 {
    if d == u32::MAX {
        0.0
    } else {
        let dd = 2.0 + f64::from(d);
        4.0 / (dd * dd)
    }
}

/// The localization kernel — a *ring* filter peaked at `d = 1`: the
/// struck qubit itself carries no detector, so the event density a strike
/// induces is highest on the ancillas *one hop out* (its own stabilizers'
/// readouts), not at the root. A kernel peaked at `d = 0` can only ever
/// elect ancilla cells (each event's own detector trivially maximises
/// it); this profile lets the data qubit at the centre of a firing ring
/// collect more mass than any single ring member.
#[inline]
fn sharp_weight(d: u32) -> f64 {
    match d {
        0 => 0.6,
        1 => 1.0,
        2 => 0.35,
        3 => 0.15,
        u32::MAX => 0.0,
        _ => {
            let dd = 1.0 + f64::from(d);
            2.4 / (dd * dd)
        }
    }
}

/// One evaluated event window (see [`Localizer::window_eval`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowCluster {
    /// Recency-damped event mass of the window (kernel-independent).
    pub mass: f64,
    /// Best spatially-damped defect mass over candidate roots. A single
    /// isolated event scores at most 1; a strike's burst of co-located
    /// events stacks towards its mass — the spatial signature scattered
    /// intrinsic noise cannot fake with the same event count.
    pub score: f64,
    /// The maximising qubit (the strike-root estimate).
    pub root: u32,
}

/// The sliding-window spatial clusterer as an online detector: at each
/// round `r` it scores the trailing window `[r + 1 − W, r + 1)` with
/// [`Localizer::window_eval`] and alarms when the cluster score crosses
/// its threshold; the root estimate is taken from the best-scoring window
/// seen. Unlike the count-based detectors it *insists on spatial
/// concentration*, so it also reports *where* — its localization error is
/// the hop distance from the true strike root.
#[derive(Debug, Clone)]
pub struct ClusterDetector {
    localizer: Localizer,
    /// Minimum [`WindowCluster::score`] that raises the alarm.
    pub threshold: f64,
}

impl ClusterDetector {
    /// Wrap a localizer with an alarm threshold on the cluster score.
    pub fn new(localizer: Localizer, threshold: f64) -> Self {
        ClusterDetector { localizer, threshold }
    }

    /// The wrapped localizer.
    pub fn localizer(&self) -> &Localizer {
        &self.localizer
    }

    /// Run the sliding window over one shot: `(score, alarm round, root
    /// estimate)`. The score is the maximum windowed cluster score; the
    /// root comes from the maximising window (alarmed or not, so
    /// localization can be studied below the alarm threshold too).
    pub fn detect_shot(
        &self,
        events: &EventStream,
        shot: usize,
    ) -> (f64, Option<usize>, Option<u32>) {
        let w = self.localizer.window;
        let mut best_score = 0.0f64;
        let mut best_root = None;
        let mut alarm = None;
        for r in 0..events.rounds() {
            let start = (r + 1).saturating_sub(w);
            if let Some(cluster) = self.localizer.window_eval(events, shot, start, r + 1) {
                if cluster.score > best_score {
                    best_score = cluster.score;
                    best_root = Some(cluster.root);
                }
                if alarm.is_none() && cluster.score >= self.threshold {
                    alarm = Some(r);
                }
            }
        }
        (best_score, alarm, best_root)
    }

    /// The threshold-independent part of [`Self::detect_shot`]: every
    /// trailing-window cluster score (index = round, 0.0 for event-free
    /// windows, appended into `scores`) plus the best window's root
    /// estimate. A calibration pass uses this to pick the alarm level
    /// *after* scanning a null campaign and then derive each shot's alarm
    /// round in `O(rounds)` — without re-running the expensive window
    /// scans ([`Self::threshold`] is ignored).
    pub fn window_trace(
        &self,
        events: &EventStream,
        shot: usize,
        scores: &mut Vec<f64>,
    ) -> Option<u32> {
        let w = self.localizer.window;
        scores.clear();
        let mut best: Option<(f64, u32)> = None;
        for r in 0..events.rounds() {
            let start = (r + 1).saturating_sub(w);
            match self.localizer.window_eval(events, shot, start, r + 1) {
                Some(cluster) => {
                    if best.is_none_or(|(s, _)| cluster.score > s) {
                        best = Some((cluster.score, cluster.root));
                    }
                    scores.push(cluster.score);
                }
                None => scores.push(0.0),
            }
        }
        best.map(|(_, root)| root)
    }
}

/// Per-root score calibration learned from a **measured** null campaign —
/// the empirical complement of [`Localizer::with_boundary_norm`]'s
/// diffuse-background rescale. `fit` collects each candidate root's null
/// score distribution (shots whose best window elected that root) and
/// stores a per-root reference quantile; `normalize` rescales a score by
/// the elected root's reference, so a corner root — whose null scores
/// are structurally lower than a central root's — is compared against
/// corner-null behaviour instead of the chip-wide pool.
#[derive(Debug, Clone)]
pub struct RootCalibration {
    level: Vec<f64>,
    global: f64,
}

impl RootCalibration {
    /// Minimum pooled null shots before a neighbourhood's quantile is
    /// trusted over the global one.
    pub const MIN_SAMPLES: usize = 25;
    /// Hop radius of the pooling neighbourhood: null shots rarely elect
    /// any *single* corner root often enough to fit a quantile, but the
    /// boundary *region* collects plenty.
    pub const POOL_RADIUS: u32 = 2;

    /// Fit from `(best root, score)` pairs of a null campaign;
    /// `ref_quantile` (0..1) picks the per-root reference level. Each
    /// candidate pools the null scores of roots within
    /// [`Self::POOL_RADIUS`] hops on `topo`.
    pub fn fit(
        samples: impl IntoIterator<Item = (Option<u32>, f64)>,
        topo: &Topology,
        ref_quantile: f64,
    ) -> Self {
        let num_qubits = topo.num_qubits() as usize;
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); num_qubits];
        let mut all: Vec<f64> = Vec::new();
        for (root, score) in samples {
            if let Some(r) = root {
                per[r as usize].push(score);
            }
            all.push(score);
        }
        let global = quantile(&all, ref_quantile).max(1e-6);
        let level = (0..num_qubits)
            .map(|q| {
                let dists = topo.distances_from(q as u32);
                let pool: Vec<f64> = (0..num_qubits)
                    .filter(|&p| dists[p] <= Self::POOL_RADIUS)
                    .flat_map(|p| per[p].iter().copied())
                    .collect();
                if pool.len() >= Self::MIN_SAMPLES {
                    quantile(&pool, ref_quantile).max(1e-6)
                } else {
                    global
                }
            })
            .collect();
        RootCalibration { level, global }
    }

    /// Rescale `score` by the elected root's null reference level.
    pub fn normalize(&self, root: Option<u32>, score: f64) -> f64 {
        match root {
            Some(r) => score / self.level[r as usize],
            None => score / self.global,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radqec_circuit::ShotBatch;
    use radqec_topology::generators::linear;

    /// A 1-D toy: 11 chain qubits, 5 stabilizers with ancillas at odd
    /// positions 1, 3, 5, 7, 9, two rounds.
    fn toy() -> (StreamSpec, Topology) {
        let spec = StreamSpec {
            rounds: 2,
            num_stabs: 5,
            first_round_deterministic: vec![true; 5],
            ancilla_physical: vec![1, 3, 5, 7, 9, 1, 3, 5, 7, 9],
        };
        (spec, linear(11))
    }

    #[test]
    fn single_event_localizes_next_to_its_ancilla() {
        // The ring kernel models "detectors fire one hop from the root":
        // a lone event at ancilla 3 elects a *neighbour* of that ancilla
        // (ties to the lower index).
        let (spec, topo) = toy();
        let mut batch = ShotBatch::new(10, 1);
        batch.flip(spec.cbit(0, 1), 0);
        let ev = EventStream::extract(&batch, &spec);
        let loc = Localizer::with_defaults(&spec, &topo);
        assert_eq!(loc.localize(&ev, 0), Some(2));
    }

    #[test]
    fn coincident_pair_localizes_between_its_ancillas() {
        // Ancillas 3 and 5 firing together point at the shared qubit 4 —
        // exactly the strike-ring signature the kernel is matched to.
        let (spec, topo) = toy();
        let mut batch = ShotBatch::new(10, 1);
        batch.flip(spec.cbit(0, 1), 0);
        batch.flip(spec.cbit(0, 2), 0);
        let ev = EventStream::extract(&batch, &spec);
        let loc = Localizer::with_defaults(&spec, &topo);
        assert_eq!(loc.localize(&ev, 0), Some(4));
    }

    #[test]
    fn recency_damping_favours_early_rounds() {
        let (spec, topo) = toy();
        let mut batch = ShotBatch::new(10, 1);
        // Round 0: stab 0 (pos 1), echoing at round 1; round 1 adds a
        // far event at stab 4 (pos 9).
        batch.flip(spec.cbit(0, 0), 0);
        batch.flip(spec.cbit(1, 4), 0);
        let ev = EventStream::extract(&batch, &spec);
        assert!(ev.event(1, 0, 0), "stab 0 flips back → second event");
        let loc = Localizer::new(&spec, &topo, 2, 0.33);
        // Position 1 carries weight 1.0 + 0.33 vs position 9's 0.33: the
        // estimate stays beside the early-round cluster.
        assert_eq!(loc.localize(&ev, 0), Some(0));
    }

    #[test]
    fn cluster_detector_prefers_tight_windows() {
        let (spec, topo) = toy();
        let mut batch = ShotBatch::new(10, 2);
        // Shot 0: stabs 1–3 (positions 3/5/7) fire at round 0 — the ring
        // of a strike near qubit 5.
        for i in 1..4 {
            batch.flip(spec.cbit(0, i), 0);
        }
        // Shot 1: a single stab fires at round 1.
        batch.flip(spec.cbit(1, 2), 1);
        let ev = EventStream::extract(&batch, &spec);
        let det = ClusterDetector::new(Localizer::new(&spec, &topo, 2, 0.33), 1.2);
        let (score0, alarm0, root0) = det.detect_shot(&ev, 0);
        let (score1, alarm1, _) = det.detect_shot(&ev, 1);
        assert!(score0 > score1, "burst {score0} vs single event {score1}");
        assert_eq!(alarm0, Some(0));
        assert_eq!(alarm1, None, "an isolated event must not alarm");
        assert_eq!(root0, Some(4), "ring centre (ties to the lower neighbour)");
        // Quiet shots neither alarm nor localize.
        let quiet = ShotBatch::new(10, 1);
        let evq = EventStream::extract(&quiet, &spec);
        assert_eq!(det.detect_shot(&evq, 0), (0.0, None, None));
    }

    #[test]
    fn boundary_norm_boosts_low_background_candidates() {
        let (spec, topo) = toy();
        let raw = Localizer::with_defaults(&spec, &topo);
        let norm = Localizer::with_defaults(&spec, &topo).with_boundary_norm(true);
        // A burst at the chain's end (stab 0, ancilla 1): the boundary
        // candidate's normalised score must exceed its raw score (its
        // diffuse background is below the chip mean), and a central
        // burst's must shrink.
        let mut batch = ShotBatch::new(10, 2);
        batch.flip(spec.cbit(0, 0), 0);
        batch.flip(spec.cbit(0, 1), 0);
        batch.flip(spec.cbit(0, 2), 1);
        batch.flip(spec.cbit(0, 3), 1);
        let ev = EventStream::extract(&batch, &spec);
        let edge_raw = raw.window_eval(&ev, 0, 0, 1).unwrap();
        let edge_norm = norm.window_eval(&ev, 0, 0, 1).unwrap();
        let mid_raw = raw.window_eval(&ev, 1, 0, 1).unwrap();
        let mid_norm = norm.window_eval(&ev, 1, 0, 1).unwrap();
        // The boundary burst gains ground on the central burst once both
        // are scored against their own diffuse baselines.
        assert!(
            edge_norm.score / mid_norm.score > edge_raw.score / mid_raw.score,
            "norm {:.3}/{:.3} vs raw {:.3}/{:.3}",
            edge_norm.score,
            mid_norm.score,
            edge_raw.score,
            mid_raw.score
        );
        // Root estimates are untouched by the score normalisation.
        assert_eq!(edge_norm.root, edge_raw.root);
        assert_eq!(mid_norm.root, mid_raw.root);
    }

    #[test]
    fn root_calibration_pools_and_normalizes() {
        let topo = linear(9);
        // Null scores: boundary region (roots 0–2) runs at level ~1,
        // centre (roots 4–8) at level ~3; every root individually is
        // below MIN_SAMPLES, but the radius-2 pools are not.
        let mut samples: Vec<(Option<u32>, f64)> = Vec::new();
        for i in 0..20 {
            for r in [0u32, 1, 2] {
                samples.push((Some(r), 1.0 + 0.001 * f64::from(i)));
            }
            for r in [4u32, 5, 6, 7, 8] {
                samples.push((Some(r), 3.0 + 0.001 * f64::from(i)));
            }
        }
        samples.push((None, 2.0));
        let cal = RootCalibration::fit(samples, &topo, 0.9);
        // Same raw score ranks much higher against the boundary baseline.
        let at_edge = cal.normalize(Some(0), 2.0);
        let at_centre = cal.normalize(Some(7), 2.0);
        assert!(at_edge > 1.5 && at_centre < 1.0, "edge {at_edge:.2} centre {at_centre:.2}");
        // Rootless shots fall back to the global level.
        let global = cal.normalize(None, 2.0);
        assert!(global > at_centre && global < at_edge);
    }

    #[test]
    fn quiet_shot_reports_none() {
        let (spec, topo) = toy();
        let batch = ShotBatch::new(10, 2);
        let ev = EventStream::extract(&batch, &spec);
        let loc = Localizer::with_defaults(&spec, &topo);
        assert_eq!(loc.localize(&ev, 0), None);
        assert_eq!(loc.localize(&ev, 1), None);
    }
}
