//! Property tests: the blossom solver must agree with the exact bitmask-DP
//! oracle on every random instance (weights, densities, parities).

use proptest::prelude::*;
use radqec_matching::{
    is_valid_matching, match_defects, matching_size, matching_weight, max_weight_matching,
    max_weight_matching_in, min_weight_perfect_matching, min_weight_perfect_matching_dp,
    BlossomScratch, DefectMatch, MatchingArena, WeightedEdge,
};

/// Strategy: a random simple graph on `n ≤ 12` vertices with i64 weights in
/// a small range (keeps DP exact and instances adversarial).
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<WeightedEdge>)> {
    (2usize..=12).prop_flat_map(|n| {
        let pairs: Vec<(u32, u32)> =
            (0..n as u32).flat_map(|a| ((a + 1)..n as u32).map(move |b| (a, b))).collect();
        let m = pairs.len();
        (
            Just(n),
            proptest::collection::vec(any::<bool>(), m),
            proptest::collection::vec(-20i64..=20, m),
        )
            .prop_map(move |(n, present, weights)| {
                let edges: Vec<WeightedEdge> = pairs
                    .iter()
                    .zip(present.iter().zip(weights.iter()))
                    .filter(|(_, (p, _))| **p)
                    .map(|(&(a, b), (_, &w))| (a, b, w))
                    .collect();
                (n, edges)
            })
    })
}

/// Brute-force maximum weight matching by recursion (n ≤ 12).
fn brute_force_max_weight(n: usize, edges: &[WeightedEdge], max_cardinality: bool) -> (usize, i64) {
    fn rec(
        edges: &[WeightedEdge],
        used: &mut Vec<bool>,
        from: usize,
        size: usize,
        weight: i64,
        best: &mut Vec<(usize, i64)>,
    ) {
        best.push((size, weight));
        for (k, &(i, j, w)) in edges.iter().enumerate().skip(from) {
            if !used[i as usize] && !used[j as usize] {
                used[i as usize] = true;
                used[j as usize] = true;
                rec(edges, used, k + 1, size + 1, weight + w, best);
                used[i as usize] = false;
                used[j as usize] = false;
            }
        }
    }
    let mut best = Vec::new();
    rec(edges, &mut vec![false; n], 0, 0, 0, &mut best);
    if max_cardinality {
        let maxsize = best.iter().map(|&(s, _)| s).max().unwrap_or(0);
        (maxsize, best.iter().filter(|&&(s, _)| s == maxsize).map(|&(_, w)| w).max().unwrap_or(0))
    } else {
        let w = best.iter().map(|&(_, w)| w).max().unwrap_or(0);
        // size of the best-weight matching is not unique; only weight matters
        (0, w)
    }
}

/// The virtual-boundary reduction of `match_defects` solved by blossom
/// alone: defects `0..k`, one virtual boundary node `k + a` per defect,
/// zero-weight edges between virtual nodes, built in the same edge order.
fn blossom_reduction(
    k: usize,
    pair: impl Fn(usize, usize) -> i64,
    bdry: impl Fn(usize) -> i64,
) -> Vec<DefectMatch> {
    let mut edges = Vec::new();
    for a in 0..k {
        for b in a + 1..k {
            edges.push((a as u32, b as u32, pair(a, b)));
        }
        edges.push((a as u32, (k + a) as u32, bdry(a)));
    }
    for a in 0..k {
        for b in a + 1..k {
            edges.push(((k + a) as u32, (k + b) as u32, 0));
        }
    }
    let mate = min_weight_perfect_matching(2 * k, &edges).expect("always perfectly matchable");
    (0..k)
        .map(|a| if mate[a] >= k { DefectMatch::Boundary } else { DefectMatch::Peer(mate[a]) })
        .collect()
}

/// Strategy: a defect count on both sides of the DP threshold, a
/// symmetric pair-weight table and boundary weights, all drawn from
/// `weights`.
fn defect_instance(
    weights: std::ops::RangeInclusive<i64>,
) -> impl Strategy<Value = (usize, Vec<i64>, Vec<i64>)> {
    (
        0usize..=18,
        proptest::collection::vec(weights.clone(), 18 * 18),
        proptest::collection::vec(weights, 18),
    )
}

/// Symmetric pair weight from an 18 × 18 table.
fn sym(table: &[i64], a: usize, b: usize) -> i64 {
    table[a.min(b) * 18 + a.max(b)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Wide-range weights make the optimum unique almost surely, so up to
    /// the DP threshold the subset DP answers: it must return exactly
    /// blossom's matching.
    #[test]
    fn match_defects_equals_blossom_reduction_on_wide_weights(
        (k, pair, bdry) in defect_instance(-1_000_000_000..=1_000_000_000),
    ) {
        let got = match_defects(k, |a, b| sym(&pair, a, b), |a| bdry[a]);
        prop_assert_eq!(got, blossom_reduction(k, |a, b| sym(&pair, a, b), |a| bdry[a]));
    }

    /// Weights in `1..=4` tie often; a tied optimum must fall through to
    /// blossom and return its choice.
    #[test]
    fn match_defects_equals_blossom_reduction_on_tied_weights(
        (k, pair, bdry) in defect_instance(1..=4),
    ) {
        let got = match_defects(k, |a, b| sym(&pair, a, b), |a| bdry[a]);
        prop_assert_eq!(got, blossom_reduction(k, |a, b| sym(&pair, a, b), |a| bdry[a]));
    }

    /// Weights near `i64::MAX / 4` overflow the DP's sums from eight
    /// defects on; it must defer to blossom, never panic or wrap.
    #[test]
    fn match_defects_defers_to_blossom_on_overflow(
        (k, pair, bdry) in defect_instance(i64::MAX / 4 - 1_000_000..=i64::MAX / 4),
    ) {
        let got = match_defects(k, |a, b| sym(&pair, a, b), |a| bdry[a]);
        prop_assert_eq!(got, blossom_reduction(k, |a, b| sym(&pair, a, b), |a| bdry[a]));
    }

    #[test]
    fn blossom_matches_brute_force_weight((n, edges) in graph_strategy()) {
        let mate = max_weight_matching(n, &edges, false);
        prop_assert!(is_valid_matching(n, &edges, &mate));
        let w = matching_weight(&edges, &mate);
        let (_, bw) = brute_force_max_weight(n, &edges, false);
        prop_assert_eq!(w, bw, "blossom weight {} != brute force {}", w, bw);
    }

    #[test]
    fn blossom_maxcardinality_matches_brute_force((n, edges) in graph_strategy()) {
        let mate = max_weight_matching(n, &edges, true);
        prop_assert!(is_valid_matching(n, &edges, &mate));
        let (bs, bw) = brute_force_max_weight(n, &edges, true);
        prop_assert_eq!(matching_size(&mate), bs);
        prop_assert_eq!(matching_weight(&edges, &mate), bw);
    }

    /// A warm (previously used, differently sized) scratch arena must give
    /// bit-identical results to the allocating entry points.
    #[test]
    fn arena_reuse_is_bit_identical(
        (n1, edges1) in graph_strategy(),
        (n2, edges2) in graph_strategy(),
        maxcard in any::<bool>(),
    ) {
        let mut scratch = BlossomScratch::default();
        // Warm the scratch on the first instance, then solve the second.
        let _ = max_weight_matching_in(&mut scratch, n1, &edges1, maxcard);
        let reused = max_weight_matching_in(&mut scratch, n2, &edges2, maxcard).to_vec();
        prop_assert_eq!(reused, max_weight_matching(n2, &edges2, maxcard));

        let mut arena = MatchingArena::new();
        let shifted1: Vec<WeightedEdge> = edges1.iter().map(|&(a, b, w)| (a, b, w + 25)).collect();
        let shifted2: Vec<WeightedEdge> = edges2.iter().map(|&(a, b, w)| (a, b, w + 25)).collect();
        let _ = arena.min_weight_perfect_matching(n1, &shifted1);
        let reused = arena.min_weight_perfect_matching(n2, &shifted2).map(<[usize]>::to_vec);
        prop_assert_eq!(reused, min_weight_perfect_matching(n2, &shifted2));
    }

    /// Arena `match_defects` equals the free function after arbitrary reuse.
    #[test]
    fn arena_match_defects_is_bit_identical(
        d1 in 0usize..19,
        d2 in 0usize..19,
        weights in proptest::collection::vec(1i64..40, 64),
        boundary in proptest::collection::vec(1i64..40, 8),
    ) {
        let pair = |a: usize, b: usize| weights[(a * 7 + b) % 64];
        let bdry = |a: usize| boundary[a % 8];
        let mut arena = MatchingArena::new();
        let _ = arena.match_defects(d1, pair, bdry); // warm on a different size
        let reused = arena.match_defects(d2, pair, bdry).to_vec();
        prop_assert_eq!(reused, match_defects(d2, pair, bdry));
    }

    #[test]
    fn mwpm_agrees_with_dp((n, edges) in graph_strategy()) {
        // Shift weights positive: MWPM semantics identical under shift for
        // perfect matchings (all have n/2 edges).
        let shifted: Vec<WeightedEdge> = edges.iter().map(|&(a, b, w)| (a, b, w + 25)).collect();
        let blossom = min_weight_perfect_matching(n, &shifted);
        let dp = min_weight_perfect_matching_dp(n, &shifted);
        match (blossom, dp) {
            (None, None) => {}
            (Some(mate), Some((dpw, _))) => {
                let w: i64 = shifted
                    .iter()
                    .filter(|&&(i, j, _)| mate[i as usize] == j as usize && mate[j as usize] == i as usize)
                    .map(|e| e.2)
                    .sum();
                // Parallel edges: blossom may pick either copy; compare weights.
                prop_assert_eq!(w, dpw, "blossom mwpm {} != dp {}", w, dpw);
            }
            (b, d) => prop_assert!(false, "feasibility disagreement: blossom={:?} dp={:?}", b.is_some(), d.is_some()),
        }
    }
}

/// Two optima of weight 3: defect 2, far from the boundary, pairs with
/// defect 0 or with defect 1 while the other takes the boundary. The
/// result must be blossom's choice.
#[test]
fn two_optimum_instance_returns_blossom_choice() {
    let bdry = |a: usize| if a == 2 { 9 } else { 1 };
    let got = match_defects(3, |_, _| 2, bdry);
    assert_eq!(got, blossom_reduction(3, |_, _| 2, bdry));
    assert_eq!(got, vec![DefectMatch::Peer(2), DefectMatch::Boundary, DefectMatch::Peer(0)]);
}

#[test]
fn large_random_instances_are_consistent() {
    // Beyond DP reach: check validity + local optimality smoke on n=60.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..10 {
        let n = 60usize;
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in a + 1..n as u32 {
                if rng.gen_bool(0.15) {
                    edges.push((a, b, rng.gen_range(1..100)));
                }
            }
        }
        let mate = max_weight_matching(n, &edges, false);
        assert!(is_valid_matching(n, &edges, &mate));
        // augmenting a single unmatched edge should never improve:
        // (sanity: every positive-weight edge between two unmatched vertices
        // would contradict optimality)
        for &(a, b, w) in &edges {
            if w > 0 {
                assert!(
                    !(mate[a as usize].is_none() && mate[b as usize].is_none()),
                    "edge ({a},{b},{w}) left both endpoints free"
                );
            }
        }
    }
}
