//! Minimum-weight perfect matching (MWPM) on top of the blossom solver,
//! including the virtual-boundary reduction used by surface-code decoders.

use crate::blossom::{matching_size, max_weight_matching_in, BlossomScratch, WeightedEdge};
use std::sync::OnceLock;

/// Minimum-weight perfect matching via weight reflection.
///
/// Transforms weights as `w' = (max_w + 1) − w` and runs maximum-weight
/// matching in max-cardinality mode: cardinality dominates, so the perfect
/// matching of minimum original weight is selected.
///
/// Returns `mate` or `None` when the graph admits no perfect matching.
pub fn min_weight_perfect_matching(
    num_vertices: usize,
    edges: &[WeightedEdge],
) -> Option<Vec<usize>> {
    let mut arena = MatchingArena::default();
    arena.min_weight_perfect_matching(num_vertices, edges).map(<[usize]>::to_vec)
}

/// Pair up `defects` against each other or a boundary, minimising total
/// weight — the core operation of an MWPM surface-code decoder.
///
/// * `pair_weight(a, b)` — cost of matching defects `a` and `b` together;
/// * `boundary_weight(a)` — cost of matching defect `a` to the boundary.
///
/// Small defect sets with a unique optimum are solved by subset DP (see
/// [`MatchingArena::match_defects`]); the rest use the standard reduction:
/// one virtual boundary node per defect, with zero-weight edges between
/// virtual nodes, so the matching is always perfect. Both return the same
/// matching. Returns, per defect index, [`DefectMatch::Peer`] or
/// [`DefectMatch::Boundary`].
///
/// Hot loops that solve many defect sets should hold a [`MatchingArena`]
/// and call [`MatchingArena::match_defects`] instead — identical results,
/// no per-call allocations.
pub fn match_defects(
    num_defects: usize,
    pair_weight: impl FnMut(usize, usize) -> i64,
    boundary_weight: impl FnMut(usize) -> i64,
) -> Vec<DefectMatch> {
    let mut arena = MatchingArena::default();
    arena.match_defects(num_defects, pair_weight, boundary_weight).to_vec()
}

/// Reusable allocations for repeated matching solves.
///
/// Surface-code decoding runs one small matching per distinct syndrome; the
/// edge list, the blossom matcher's ~18 working vectors and the result
/// buffer dominate the cost of those small instances when freshly allocated
/// each call. An arena keeps them all alive across calls. Every method is
/// bit-identical to its free-function counterpart (same algorithm, same
/// buffers — merely recycled).
#[derive(Debug, Default)]
pub struct MatchingArena {
    edges: Vec<WeightedEdge>,
    reflected: Vec<WeightedEdge>,
    mate: Vec<usize>,
    result: Vec<DefectMatch>,
    blossom: BlossomScratch,
    dp: SubsetDp,
}

impl MatchingArena {
    /// An empty arena; buffers grow to the working-set size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arena-reusing [`min_weight_perfect_matching`]. The returned slice
    /// borrows the arena and is valid until the next call.
    pub fn min_weight_perfect_matching(
        &mut self,
        num_vertices: usize,
        edges: &[WeightedEdge],
    ) -> Option<&[usize]> {
        if self.mwpm_into_mate(num_vertices, edges) {
            Some(&self.mate)
        } else {
            None
        }
    }

    /// Fill `self.mate` with the minimum-weight perfect matching; `false`
    /// when none exists.
    fn mwpm_into_mate(&mut self, num_vertices: usize, edges: &[WeightedEdge]) -> bool {
        self.mate.clear();
        if num_vertices == 0 {
            return true;
        }
        if !num_vertices.is_multiple_of(2) {
            return false;
        }
        let maxw = edges.iter().map(|e| e.2).max().unwrap_or(0);
        self.reflected.clear();
        self.reflected.extend(edges.iter().map(|&(i, j, w)| (i, j, maxw + 1 - w)));
        let mate = max_weight_matching_in(&mut self.blossom, num_vertices, &self.reflected, true);
        if matching_size(mate) * 2 != num_vertices {
            return false;
        }
        self.mate.extend(mate.iter().map(|m| m.expect("perfect")));
        true
    }

    /// Arena-reusing [`match_defects`]. The returned slice borrows the
    /// arena and is valid until the next call.
    ///
    /// Each weight closure is called once per edge, in the same order
    /// whichever solver runs: the weights fill a dense `k × k` table (the
    /// boundary weights on its diagonal), and the blossom edge list is
    /// built from that table only when blossom runs. Up to
    /// `DP_MAX_DEFECTS` (15) defects, a subset DP (see the crate docs)
    /// solves straight from the table first. Every perfect matching of the
    /// blossom reduction restricts to a defect-level matching of the same
    /// weight, and only that restriction is returned. So when exactly one
    /// defect-level matching attains the minimum, blossom, being exact,
    /// returns it too, and the DP's answer is returned as is. A tie, an
    /// `i64` overflow in a DP sum, or a larger defect set runs the blossom
    /// reduction itself, so the result never depends on which path ran.
    pub fn match_defects(
        &mut self,
        num_defects: usize,
        mut pair_weight: impl FnMut(usize, usize) -> i64,
        mut boundary_weight: impl FnMut(usize) -> i64,
    ) -> &[DefectMatch] {
        self.result.clear();
        if num_defects == 0 {
            return &self.result;
        }
        let k = num_defects;
        let weight = &mut self.dp.weight;
        weight.clear();
        weight.resize(k * k, 0);
        for a in 0..k {
            for b in a + 1..k {
                let w = pair_weight(a, b);
                weight[a * k + b] = w;
                weight[b * k + a] = w;
            }
            weight[a * k + a] = boundary_weight(a);
        }
        if k <= DP_MAX_DEFECTS && self.dp.solve_table(k, &mut self.result) {
            return &self.result;
        }
        // The blossom reduction, its edges in the order the weights were
        // drawn.
        let mut edges = std::mem::take(&mut self.edges);
        edges.clear();
        let weight = &self.dp.weight;
        for a in 0..k {
            for b in a + 1..k {
                edges.push((a as u32, b as u32, weight[a * k + b]));
            }
            edges.push((a as u32, (k + a) as u32, weight[a * k + a]));
        }
        for a in 0..k {
            for b in a + 1..k {
                edges.push(((k + a) as u32, (k + b) as u32, 0));
            }
        }
        // Defects 0..k, virtual boundary k..2k.
        let matched = self.mwpm_into_mate(2 * k, &edges);
        self.edges = edges;
        assert!(matched, "defect graph with per-defect boundary is always perfectly matchable");
        for a in 0..k {
            let m = self.mate[a];
            self.result.push(if m >= k { DefectMatch::Boundary } else { DefectMatch::Peer(m) });
        }
        &self.result
    }
}

/// Largest defect set [`MatchingArena::match_defects`] solves by subset DP
/// before the blossom reduction. Timed in situ on the radbench `paper_d5`
/// workload (XXZZ-(5,5) strikes, seed 1, 20 s, 2-vCPU x86-64 VM), both
/// solvers on every 13–16-defect set, the mean call costs:
///
/// | defects | 13 | 14 | 15 | 16 |
/// |---|---|---|---|---|
/// | subset DP | 10.8 µs | 22.5 µs | 52.7 µs | 158 µs |
/// | blossom | 82.4 µs | 78.3 µs | 107 µs | 95.5 µs |
///
/// The DP's cost more than doubles with each defect while blossom's stays
/// nearly flat, and at 16 defects the DP also grows a 512 KiB `cost` table in
/// the fresh arena each decode call builds, so the DP loses there.
/// Stopping at 15 keeps the tables at 256 KiB of `cost` and 32 KiB of
/// `choice`; larger sets go to blossom.
const DP_MAX_DEFECTS: usize = 15;

/// Subset-DP state for `k ≤ DP_MAX_DEFECTS` defects, reused across calls.
///
/// `cost[s]` is the minimum weight of matching defect set `s` (a bitmask)
/// among itself and the boundary. Its lowest defect `i` either takes the
/// boundary or pairs with some `j ∈ s`, and `choice[s]` records the best
/// such `j` (`i` itself for the boundary). Every matching of `s` makes
/// exactly one first choice, so the optimum is unique iff, at every state
/// on its path, exactly one choice attains the state's cost.
#[derive(Debug, Default)]
struct SubsetDp {
    /// Dense `k × k` weights; the diagonal holds the boundary weights.
    /// [`MatchingArena::match_defects`] fills it, and blossom's edge list
    /// is read back from it.
    weight: Vec<i64>,
    cost: Vec<i64>,
    choice: Vec<u8>,
}

/// The states a `k`-defect solve can reach, ascending, ending at the full
/// set. From the full set, each step removes a state's lowest defect and
/// at most one other, so a state whose lowest defect is `i` has lost at
/// most `i` of the defects above `i`. A list depends on `k` alone, so
/// every arena shares it; each is built on first use.
fn reachable(k: usize) -> &'static [u16] {
    static LISTS: [OnceLock<Vec<u16>>; DP_MAX_DEFECTS + 1] =
        [const { OnceLock::new() }; DP_MAX_DEFECTS + 1];
    LISTS[k].get_or_init(|| {
        (1..1u32 << k)
            .filter(|&s| s.count_ones() as usize + 2 * s.trailing_zeros() as usize >= k)
            .map(|s| s as u16)
            .collect()
    })
}

impl SubsetDp {
    /// [`Self::solve_table`] on the `k`-defect instance whose pair and
    /// boundary weights are `edges`, laid out as the blossom reduction of
    /// [`MatchingArena::match_defects`] lists them (boundary edge
    /// `(a, k + a)`).
    #[cfg(test)]
    fn solve(&mut self, k: usize, edges: &[WeightedEdge], out: &mut Vec<DefectMatch>) -> bool {
        self.weight.clear();
        self.weight.resize(k * k, 0);
        for &(a, b, w) in edges {
            // Boundary edges (a, k + a) land on the diagonal.
            let (a, b) = (a as usize, if b as usize >= k { a as usize } else { b as usize });
            self.weight[a * k + b] = w;
            self.weight[b * k + a] = w;
        }
        self.solve_table(k, out)
    }

    /// Solve the `k`-defect instance whose weights are in `self.weight`
    /// into `out`. Returns `false`, leaving `out` empty, when the optimum
    /// is tied or a sum overflows `i64`.
    fn solve_table(&mut self, k: usize, out: &mut Vec<DefectMatch>) -> bool {
        let full = (1usize << k) - 1;
        let SubsetDp { weight, cost, choice } = self;
        cost.resize(full + 1, 0);
        choice.resize(full + 1, 0);
        cost[0] = 0;
        // Removing choice `j` from `s` (lowest defect `i`) leaves
        // `s & (s - 1) & !(1 << j)`; for `j = i` that is `s & (s - 1)`.
        for &s in reachable(k) {
            let s = s as usize;
            let i = s.trailing_zeros() as usize;
            let rest = s & (s - 1);
            let row = &weight[i * k..i * k + k];
            let Some(mut best) = row[i].checked_add(cost[rest]) else { return false };
            let mut best_j = i;
            let mut others = rest;
            while others != 0 {
                let j = others.trailing_zeros() as usize;
                others &= others - 1;
                let Some(c) = row[j].checked_add(cost[rest & !(1 << j)]) else { return false };
                if c < best {
                    best = c;
                    best_j = j;
                }
            }
            cost[s] = best;
            choice[s] = best_j as u8;
        }
        // Walk the optimum, checking each state's choice is its only
        // minimiser. Every sum here was already formed without overflow.
        out.resize(k, DefectMatch::Boundary);
        let mut s = full;
        while s != 0 {
            let i = s.trailing_zeros() as usize;
            let rest = s & (s - 1);
            let row = &weight[i * k..i * k + k];
            let mut options = rest | 1 << i;
            let mut attaining = 0;
            while options != 0 {
                let j = options.trailing_zeros() as usize;
                options &= options - 1;
                attaining += usize::from(row[j] + cost[rest & !(1 << j)] == cost[s]);
            }
            if attaining > 1 {
                out.clear();
                return false;
            }
            let j = choice[s] as usize;
            s = rest & !(1 << j);
            if j != i {
                out[i] = DefectMatch::Peer(j);
                out[j] = DefectMatch::Peer(i);
            }
        }
        true
    }
}

/// Outcome of [`match_defects`] for one defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectMatch {
    /// Matched with another defect (by defect index).
    Peer(usize),
    /// Matched to the boundary.
    Boundary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_matching_minimises_weight() {
        // K4 with distinct pairing costs
        let edges = [(0u32, 1u32, 10i64), (2, 3, 10), (0, 2, 1), (1, 3, 1), (0, 3, 6), (1, 2, 6)];
        let m = min_weight_perfect_matching(4, &edges).unwrap();
        assert_eq!(m[0], 2);
        assert_eq!(m[1], 3);
    }

    #[test]
    fn no_perfect_matching_returns_none() {
        assert_eq!(min_weight_perfect_matching(4, &[(0, 1, 1)]), None);
        assert_eq!(min_weight_perfect_matching(3, &[(0, 1, 1), (1, 2, 1)]), None);
    }

    #[test]
    fn zero_defects() {
        assert!(match_defects(0, |_, _| 0, |_| 0).is_empty());
    }

    #[test]
    fn single_defect_goes_to_boundary() {
        let m = match_defects(1, |_, _| unreachable!(), |_| 3);
        assert_eq!(m, vec![DefectMatch::Boundary]);
    }

    #[test]
    fn close_pair_matches_together() {
        // two defects, pair cost 1, boundary cost 10 each
        let m = match_defects(2, |_, _| 1, |_| 10);
        assert_eq!(m, vec![DefectMatch::Peer(1), DefectMatch::Peer(0)]);
    }

    #[test]
    fn far_pair_prefers_boundary() {
        let m = match_defects(2, |_, _| 30, |_| 2);
        assert_eq!(m, vec![DefectMatch::Boundary, DefectMatch::Boundary]);
    }

    #[test]
    fn odd_defect_count_mixes() {
        // 3 defects in a line: 0 and 1 close (1), 2 far from both (20),
        // boundary costs: 0:9, 1:9, 2:2
        let m = match_defects(
            3,
            |a, b| if (a, b) == (0, 1) || (a, b) == (1, 0) { 1 } else { 20 },
            |d| if d == 2 { 2 } else { 9 },
        );
        assert_eq!(m[0], DefectMatch::Peer(1));
        assert_eq!(m[1], DefectMatch::Peer(0));
        assert_eq!(m[2], DefectMatch::Boundary);
    }

    #[test]
    fn symmetry_of_peer_matches() {
        let m = match_defects(4, |a, b| ((a as i64) - (b as i64)).abs(), |_| 100);
        for (i, &dm) in m.iter().enumerate() {
            if let DefectMatch::Peer(j) = dm {
                assert_eq!(m[j], DefectMatch::Peer(i));
            }
        }
    }

    #[test]
    fn subset_dp_solves_unique_optima() {
        // 0–1 close, 2 near the boundary (the `odd_defect_count_mixes`
        // instance, in `match_defects` edge order).
        let edges = [(0, 1, 1), (0, 2, 20), (0, 3, 9), (1, 2, 20), (1, 4, 9), (2, 5, 2)];
        let mut out = Vec::new();
        assert!(SubsetDp::default().solve(3, &edges, &mut out));
        assert_eq!(out, [DefectMatch::Peer(1), DefectMatch::Peer(0), DefectMatch::Boundary]);
    }

    #[test]
    fn reachable_lists_hold_every_state_a_solve_visits() {
        for k in 1..=DP_MAX_DEFECTS {
            let list = reachable(k);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "k = {k}: not strictly ascending");
            let full = ((1u32 << k) - 1) as u16;
            assert!(list.binary_search(&full).is_ok(), "k = {k}: full set missing");
            // The boundary choice leaves `rest`; pairing with `j` leaves
            // `rest & !(1 << j)`.
            let listed = |t: u16| t == 0 || list.binary_search(&t).is_ok();
            for &s in list {
                let rest = s & (s - 1);
                assert!(listed(rest), "k = {k}: {s:#b} steps to unlisted {rest:#b}");
                for j in 0..k {
                    let next = rest & !(1 << j);
                    assert!(listed(next), "k = {k}: {s:#b} steps to unlisted {next:#b}");
                }
            }
        }
    }

    #[test]
    fn subset_dp_defers_ties_and_overflow() {
        let mut dp = SubsetDp::default();
        let mut out = Vec::new();
        // Pair (cost 2) ties with two boundary matches (1 + 1).
        assert!(!dp.solve(2, &[(0, 1, 2), (0, 2, 1), (1, 3, 1)], &mut out));
        assert!(out.is_empty());
        // Two boundary matches of i64::MAX overflow the sum.
        assert!(!dp.solve(2, &[(0, 1, 0), (0, 2, i64::MAX), (1, 3, i64::MAX)], &mut out));
        assert!(out.is_empty());
    }
}
