//! ROC analysis and small order statistics for detection sweeps.

/// Nearest-rank `p`-quantile (`0..=1`) of a sample, by sorting a copy —
/// deterministic; the detection sweep derives its cluster alarm level
/// from it. Returns 0 for an empty sample.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Area under the ROC curve separating `positives` (strike-stream scores)
/// from `negatives` (intrinsic-noise-only scores): the tie-corrected
/// Mann–Whitney statistic
/// `P(s⁺ > s⁻) + ½·P(s⁺ = s⁻)`, computed in `O((n+m)·log m)` by binary
/// search over the sorted negatives. 0.5 = indistinguishable, 1.0 =
/// perfectly separable.
///
/// # Panics
/// Panics when either sample is empty.
pub fn roc_auc(positives: &[f64], negatives: &[f64]) -> f64 {
    assert!(!positives.is_empty() && !negatives.is_empty(), "ROC needs both classes");
    let mut neg: Vec<f64> = negatives.to_vec();
    neg.sort_by(f64::total_cmp);
    let mut u = 0.0f64;
    for &p in positives {
        let below = neg.partition_point(|&n| n < p);
        let not_above = neg.partition_point(|&n| n <= p);
        u += below as f64 + 0.5 * (not_above - below) as f64;
    }
    u / (positives.len() as f64 * negatives.len() as f64)
}

/// Median of an integer sample (lower-median for even lengths, so the
/// result is an attained value — natural for hop counts and round
/// latencies).
///
/// # Panics
/// Panics on an empty sample.
pub fn median_u32(xs: &[u32]) -> u32 {
    assert!(!xs.is_empty(), "median of empty sample");
    let mut v = xs.to_vec();
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separable_classes_score_one() {
        assert_eq!(roc_auc(&[3.0, 4.0, 5.0], &[0.0, 1.0, 2.0]), 1.0);
        assert_eq!(roc_auc(&[0.0, 1.0], &[3.0, 4.0]), 0.0);
    }

    #[test]
    fn identical_classes_score_half() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((roc_auc(&xs, &xs) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_matches_hand_count() {
        // positives {1, 3}, negatives {0, 1, 2}:
        // p=1: below 1 (0), tie 1 → 1.5; p=3: below 3 → 3.0. U = 4.5 / 6.
        assert!((roc_auc(&[1.0, 3.0], &[0.0, 1.0, 2.0]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn medians() {
        assert_eq!(median_u32(&[5, 1, 3]), 3);
        assert_eq!(median_u32(&[4, 1, 2, 3]), 2);
        assert_eq!(median_u32(&[7]), 7);
    }
}
