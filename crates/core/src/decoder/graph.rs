//! The space-time detector graph a syndrome decoder works on.
//!
//! Nodes are (primary stabilizer, round) pairs plus one virtual boundary;
//! edges are data qubits shared between stabilizer supports (space, weight
//! 1), measurement repetitions (time, weight 1), and data qubits seen by a
//! single stabilizer (boundary, weight 1). Each space/boundary edge is
//! tagged with whether its data qubit lies on the logical readout chain, so
//! a correction path knows whether it flips the raw readout.

use crate::codes::CodeCircuit;
use std::sync::Arc;

/// A node of the detector graph: `layer * P + stab` for each syndrome
/// layer, `L * P` for the boundary (the classic 2-round graph is the
/// special case `L = 2`).
pub type DetectorNode = usize;

/// What physical mechanism an edge of the detector graph models — the
/// handle strike-aware reweighting grabs (see [`DetectorGraph::reweighted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// A data-qubit error seen by two stabilizers or one stabilizer and
    /// the boundary; carries the (logical) data qubit index.
    Data(u32),
    /// A measurement repetition of one stabilizer between the two rounds;
    /// carries the primary-stabilizer index.
    Time(usize),
}

/// The edge structure of a detector graph, flat: node `v`'s edges are
/// `edges[offsets[v]..offsets[v + 1]]`, in insertion order, with their
/// [`EdgeKind`]s aligned in `kinds`. Shared by every reweighting of one
/// geometry.
#[derive(Debug)]
struct Adjacency {
    offsets: Vec<u32>,
    /// `(neighbour, crosses_logical_readout)` per edge.
    edges: Vec<(u32, bool)>,
    kinds: Vec<EdgeKind>,
}

impl Adjacency {
    /// The edge-index range of node `v`.
    #[inline]
    fn range(&self, v: usize) -> std::ops::Range<usize> {
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }
}

/// Space-time defect graph for the primary syndrome family of a code.
#[derive(Debug, Clone)]
pub struct DetectorGraph {
    primary_count: usize,
    /// Number of syndrome layers (2 for the flat offline graph; the
    /// sliding-window space-time decoder builds W-layer graphs).
    layers: usize,
    adj: Arc<Adjacency>,
    /// All-pairs shortest-path distances, row-major `n × n` (unit BFS in
    /// the unweighted build; weighted Dijkstra after [`Self::reweighted`]).
    dist: Vec<u32>,
    /// Crossing parity along one canonical shortest path.
    parity: Vec<bool>,
    /// All-pairs distances with the boundary node *excluded* — the
    /// defect-pair metric (see [`Self::pair_distance`]).
    interior_dist: Vec<u32>,
    /// Crossing parity along the canonical boundary-free path.
    interior_parity: Vec<bool>,
    /// Perturbed matching weights over the `L · P` defect nodes, row-major:
    /// pair weights off the diagonal, boundary weights on it (filled once
    /// per graph by `mwpm::match_weights`).
    match_weights: Vec<i64>,
}

impl DetectorGraph {
    /// Build the 2-round detector graph of `code`'s primary stabilizers.
    pub fn new(code: &CodeCircuit) -> Self {
        let supports: Vec<Vec<u32>> =
            code.primary_stabilizers().iter().map(|s| s.support.clone()).collect();
        Self::space_time(&code.data_qubits, &supports, &code.logical_readout_support, 2)
    }

    /// Build an `layers`-round space-time detector graph from the primary
    /// stabilizer `supports` directly (no [`CodeCircuit`] needed, so the
    /// sliding-window decoder can build window graphs for multi-round
    /// memory circuits). Space and boundary edges are replicated per layer
    /// exactly as in the 2-round build; vertical [`EdgeKind::Time`] edges
    /// connect each stabilizer's consecutive re-measurements. `layers = 2`
    /// reproduces [`Self::new`] bit-identically (same edge insertion
    /// order, hence the same BFS-canonical paths).
    pub fn space_time(
        data_qubits: &[u32],
        supports: &[Vec<u32>],
        readout_support: &[u32],
        layers: usize,
    ) -> Self {
        assert!(layers >= 1, "a detector graph needs at least one layer");
        let p = supports.len();
        let num_nodes = layers * p + 1;
        let boundary = layers * p;
        let mut adj: Vec<Vec<(u32, bool, EdgeKind)>> = vec![Vec::new(); num_nodes];
        let readout: std::collections::HashSet<u32> = readout_support.iter().copied().collect();

        // Space and boundary edges, replicated per layer.
        for &d in data_qubits {
            let owners: Vec<usize> = supports
                .iter()
                .enumerate()
                .filter(|(_, s)| s.contains(&d))
                .map(|(i, _)| i)
                .collect();
            let crosses = readout.contains(&d);
            match owners.len() {
                0 => {} // invisible to the primary family (undecodable qubit)
                1 => {
                    for layer in 0..layers {
                        let v = layer * p + owners[0];
                        adj[v].push((boundary as u32, crosses, EdgeKind::Data(d)));
                        adj[boundary].push((v as u32, crosses, EdgeKind::Data(d)));
                    }
                }
                2 => {
                    for layer in 0..layers {
                        let (a, b) = (layer * p + owners[0], layer * p + owners[1]);
                        adj[a].push((b as u32, crosses, EdgeKind::Data(d)));
                        adj[b].push((a as u32, crosses, EdgeKind::Data(d)));
                    }
                }
                n => unreachable!("data qubit {d} owned by {n} primary stabilizers"),
            }
        }
        // Time edges between consecutive re-measurements of each stabilizer.
        for layer in 0..layers.saturating_sub(1) {
            for i in 0..p {
                let (a, b) = (layer * p + i, (layer + 1) * p + i);
                adj[a].push((b as u32, false, EdgeKind::Time(i)));
                adj[b].push((a as u32, false, EdgeKind::Time(i)));
            }
        }
        let mut offsets = vec![0u32];
        offsets.extend(adj.iter().scan(0, |end, edges| {
            *end += edges.len() as u32;
            Some(*end)
        }));
        let flat = adj.iter().flatten();
        let adj = Adjacency {
            offsets,
            edges: flat.clone().map(|&(w, cross, _)| (w, cross)).collect(),
            kinds: flat.map(|&(.., kind)| kind).collect(),
        };

        // APSP with crossing parity along the BFS-canonical shortest path,
        // plus the boundary-free tables behind [`Self::pair_distance`].
        let mut queue = Vec::with_capacity(num_nodes);
        Self::tabulated(p, layers, Arc::new(adj), |adj, src, skip, dist, parity| {
            bfs(adj, src, skip, dist, parity, &mut queue)
        })
    }

    /// A graph over `adj` with its all-pairs tables filled row by row by
    /// `search(adj, src, skip, dist_row, parity_row)` — once per source
    /// unrestricted, and once more per non-boundary source never entering
    /// the boundary (`skip`) — and then its match weights.
    fn tabulated(
        primary_count: usize,
        layers: usize,
        adj: Arc<Adjacency>,
        mut search: impl FnMut(&Adjacency, usize, usize, &mut [u32], &mut [bool]),
    ) -> Self {
        let n = layers * primary_count + 1;
        let mut g = DetectorGraph {
            primary_count,
            layers,
            adj,
            dist: vec![u32::MAX; n * n],
            parity: vec![false; n * n],
            interior_dist: vec![u32::MAX; n * n],
            interior_parity: vec![false; n * n],
            match_weights: Vec::new(),
        };
        let boundary = g.boundary();
        for src in 0..n {
            let row = src * n..(src + 1) * n;
            let (dist, parity) = (&mut g.dist[row.clone()], &mut g.parity[row.clone()]);
            search(&g.adj, src, usize::MAX, dist, parity);
            if src != boundary {
                let (dist, parity) =
                    (&mut g.interior_dist[row.clone()], &mut g.interior_parity[row]);
                search(&g.adj, src, boundary, dist, parity);
            }
        }
        g.match_weights = super::mwpm::match_weights(&g);
        g
    }

    /// Rebuild the distance/parity tables with a per-edge weight supplied
    /// by `weight` (clamped to ≥ 1) — the strike-aware reweighting layer.
    /// The adjacency is shared with `self` (one `Arc`, not rebuilt); only
    /// the all-pairs tables and the match weights change. The tables come
    /// from the deterministic Dijkstra of `dijkstra`, which writes each
    /// source's row in place and reuses one frontier buffer across every
    /// source, so a rebuild allocates its output tables, one flat
    /// per-edge weight array and that buffer — nothing per source.
    /// [`Self::distance`] then returns *weighted* shortest-path costs and
    /// [`Self::crossing_parity`] the readout parity along the new
    /// canonical cheapest path.
    ///
    /// A mask that lowers weights inside a struck region makes correction
    /// paths through that region cheap — the matcher then prefers to
    /// explain defects with errors where the strike actually put them
    /// (erasure-style decoding).
    pub fn reweighted(&self, weight: impl Fn(EdgeKind) -> u32) -> DetectorGraph {
        let weights: Vec<u32> = self.adj.kinds.iter().map(|&k| weight(k).max(1)).collect();
        let mut frontier = Vec::with_capacity(self.num_nodes());
        let adj = Arc::clone(&self.adj);
        Self::tabulated(self.primary_count, self.layers, adj, |adj, src, skip, dist, parity| {
            dijkstra(adj, &weights, src, skip, dist, parity, &mut frontier)
        })
    }

    /// Number of primary stabilizers `P`.
    pub fn primary_count(&self) -> usize {
        self.primary_count
    }

    /// Number of syndrome layers `L` (2 for the flat offline graph).
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Node id of stabilizer `stab` in `round` (`0..L`).
    #[inline]
    pub fn node(&self, stab: usize, round: usize) -> DetectorNode {
        debug_assert!(round < self.layers && stab < self.primary_count);
        round * self.primary_count + stab
    }

    /// The virtual boundary node.
    #[inline]
    pub fn boundary(&self) -> DetectorNode {
        self.layers * self.primary_count
    }

    /// BFS distance between two nodes (u32::MAX = unreachable).
    #[inline]
    pub fn distance(&self, a: DetectorNode, b: DetectorNode) -> u32 {
        self.dist[a * self.num_nodes() + b]
    }

    /// Readout-crossing parity along the canonical shortest path `a → b`.
    #[inline]
    pub fn crossing_parity(&self, a: DetectorNode, b: DetectorNode) -> bool {
        self.parity[a * self.num_nodes() + b]
    }

    /// Shortest-path distance between two detector nodes with the
    /// boundary node **excluded** — the defect-*pair* metric. A pairing
    /// whose cheapest route runs through the boundary is not a pairing
    /// at all (it is two boundary matches wearing one edge), and letting
    /// the matcher treat it as one lets a whole-history solve "pair"
    /// defects across any temporal distance at boundary cost — a
    /// matching no sliding window can reproduce. Matchers therefore
    /// price defect pairs with this metric and boundary matches with
    /// [`Self::distance`]`(v, boundary)`; minimum matching weights are
    /// unchanged (the through-boundary pair and its two boundary
    /// matches tie, with composing parity), but the optimum becomes
    /// expressible window-locally.
    #[inline]
    pub fn pair_distance(&self, a: DetectorNode, b: DetectorNode) -> u32 {
        self.interior_dist[a * self.num_nodes() + b]
    }

    /// Readout-crossing parity along the canonical boundary-free path
    /// `a → b` (the path [`Self::pair_distance`] measures).
    #[inline]
    pub fn pair_crossing_parity(&self, a: DetectorNode, b: DetectorNode) -> bool {
        self.interior_parity[a * self.num_nodes() + b]
    }

    /// Canonically perturbed matching weight between defect nodes: the
    /// pair weight of `a` and `b` off the diagonal, `a`'s boundary weight
    /// on it (see `mwpm::match_weights`). One table read.
    #[inline]
    pub(crate) fn match_weight(&self, a: DetectorNode, b: DetectorNode) -> i64 {
        self.match_weights[a * self.boundary() + b]
    }

    /// Total node count (including the boundary).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.boundary() + 1
    }
}

/// Deterministic Dijkstra over the tiny detector graphs, writing one
/// source's row into `dist` / `parity` (which must arrive unreachable:
/// `u32::MAX` / `false`). Nodes are settled in (distance, index) order
/// and relaxations are strictly improving, so the canonical cheapest path
/// — and with it the crossing parity — is a pure function of the weight
/// assignment.
///
/// The selection scans only the `frontier`: one packed
/// `distance << 32 | node` entry per improvement, so the smallest entry
/// is the smallest (distance, index) pair. An entry whose distance a later
/// improvement undercut is stale and skipped when it comes up; the
/// improved entry always comes up before it, and weights ≥ 1 mean a
/// settled node is never improved again, so the settle order is that of
/// a scan over all unsettled nodes. `frontier` is scratch reused across
/// sources.
fn dijkstra(
    adj: &Adjacency,
    weights: &[u32],
    src: usize,
    skip: usize,
    dist: &mut [u32],
    parity: &mut [bool],
    frontier: &mut Vec<u64>,
) {
    frontier.clear();
    dist[src] = 0;
    frontier.push(src as u64);
    while !frontier.is_empty() {
        let mut slot = 0;
        for (i, &entry) in frontier.iter().enumerate().skip(1) {
            if entry < frontier[slot] {
                slot = i;
            }
        }
        let entry = frontier.swap_remove(slot);
        let (d, v) = ((entry >> 32) as u32, entry as u32 as usize);
        if d != dist[v] {
            continue; // stale
        }
        for e in adj.range(v) {
            let (w, cross) = adj.edges[e];
            let w = w as usize;
            if w == skip {
                continue;
            }
            let cand = d.saturating_add(weights[e]);
            if cand < dist[w] {
                dist[w] = cand;
                parity[w] = parity[v] ^ cross;
                frontier.push(u64::from(cand) << 32 | w as u64);
            }
        }
    }
}

/// Breadth-first search from `src` (never entering `skip`), writing one
/// source's row into `dist` / `parity` (which must arrive unreachable);
/// `queue` is scratch reused across sources.
fn bfs(
    adj: &Adjacency,
    src: usize,
    skip: usize,
    dist: &mut [u32],
    parity: &mut [bool],
    queue: &mut Vec<u32>,
) {
    queue.clear();
    dist[src] = 0;
    queue.push(src as u32);
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        let v = v as usize;
        for &(w, cross) in &adj.edges[adj.range(v)] {
            let w = w as usize;
            if w == skip {
                continue;
            }
            if dist[w] == u32::MAX {
                dist[w] = dist[v] + 1;
                parity[w] = parity[v] ^ cross;
                queue.push(w as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{RepetitionCode, XxzzCode};

    #[test]
    fn repetition_graph_is_a_ladder() {
        // d=5: 4 stabs per layer; stab i and i+1 share data qubit i+1.
        let code = RepetitionCode::bit_flip(5).build();
        let g = DetectorGraph::new(&code);
        assert_eq!(g.primary_count(), 4);
        assert_eq!(g.num_nodes(), 9);
        // neighbours in space
        assert_eq!(g.distance(g.node(0, 0), g.node(1, 0)), 1);
        // far ends may legitimately shortcut through the boundary node
        // (equivalent to matching each defect to the boundary separately)
        assert_eq!(g.distance(g.node(0, 0), g.node(3, 0)), 2);
        assert_eq!(g.distance(g.node(1, 0), g.node(3, 0)), 2);
        // time edge
        assert_eq!(g.distance(g.node(2, 0), g.node(2, 1)), 1);
        // boundary adjacency from the chain ends (data 0 and data 4)
        assert_eq!(g.distance(g.node(0, 0), g.boundary()), 1);
        assert_eq!(g.distance(g.node(3, 1), g.boundary()), 1);
        // middle stabilizer reaches boundary in 2 (via either end)
        assert_eq!(g.distance(g.node(1, 0), g.boundary()), 2);
    }

    #[test]
    fn repetition_crossing_parity_counts_chain_qubits() {
        // Readout support = {data 0}: only paths using data 0 cross.
        let code = RepetitionCode::bit_flip(3).build();
        let g = DetectorGraph::new(&code);
        // stab0 -> boundary: BFS reaches it via data 0 or data 2 (both
        // distance 1); the canonical path is the first adjacency entry,
        // which is data 0 (crossing).
        assert!(g.crossing_parity(g.node(0, 0), g.boundary()));
        // stab0 -> stab1 via data 1 (no crossing)
        assert!(!g.crossing_parity(g.node(0, 0), g.node(1, 0)));
        // stab1 -> boundary via data 2 (no crossing)
        assert!(!g.crossing_parity(g.node(1, 0), g.boundary()));
        // time edge: no crossing
        assert!(!g.crossing_parity(g.node(0, 0), g.node(0, 1)));
    }

    #[test]
    fn xxzz_graph_connects_all_z_stabs_to_boundary() {
        let code = XxzzCode::new(3, 3).build();
        let g = DetectorGraph::new(&code);
        assert_eq!(g.primary_count(), 4);
        for i in 0..4 {
            for layer in 0..2 {
                let d = g.distance(g.node(i, layer), g.boundary());
                assert!(d != u32::MAX && d <= 3, "stab {i} layer {layer}: {d}");
            }
        }
    }

    #[test]
    fn xxzz_readout_row_crossings() {
        // Z̄ is row 0; matching a defect pair through row 0 must flip parity.
        let code = XxzzCode::new(3, 3).build();
        let g = DetectorGraph::new(&code);
        // Each Z-stab containing a row-0 data qubit has a crossing edge
        // either to the boundary or to a neighbour.
        let row0: Vec<u32> = code.logical_readout_support.clone();
        let mut crossing_edges = 0;
        for &(_, cross) in &g.adj.edges {
            if cross {
                crossing_edges += 1;
            }
        }
        assert!(crossing_edges > 0, "no crossing edges for row {row0:?}");
    }

    #[test]
    fn space_time_two_layers_matches_flat_build() {
        for code in [RepetitionCode::bit_flip(5).build(), XxzzCode::new(3, 3).build()] {
            let flat = DetectorGraph::new(&code);
            let supports: Vec<Vec<u32>> =
                code.primary_stabilizers().iter().map(|s| s.support.clone()).collect();
            let st = DetectorGraph::space_time(
                &code.data_qubits,
                &supports,
                &code.logical_readout_support,
                2,
            );
            assert_eq!(st.num_nodes(), flat.num_nodes());
            assert_eq!(st.layers(), 2);
            for a in 0..flat.num_nodes() {
                for b in 0..flat.num_nodes() {
                    assert_eq!(
                        st.distance(a, b),
                        flat.distance(a, b),
                        "{}: dist {a}->{b}",
                        code.name
                    );
                    assert_eq!(
                        st.crossing_parity(a, b),
                        flat.crossing_parity(a, b),
                        "{}: parity {a}->{b}",
                        code.name
                    );
                }
            }
        }
    }

    #[test]
    fn space_time_multi_layer_time_chain_and_boundary() {
        let code = RepetitionCode::bit_flip(5).build();
        let supports: Vec<Vec<u32>> =
            code.primary_stabilizers().iter().map(|s| s.support.clone()).collect();
        let g = DetectorGraph::space_time(
            &code.data_qubits,
            &supports,
            &code.logical_readout_support,
            4,
        );
        assert_eq!(g.layers(), 4);
        assert_eq!(g.num_nodes(), 4 * 4 + 1);
        // Pure time chain: stab 2 at round 0 to round 3 is three time hops.
        assert_eq!(g.distance(g.node(2, 0), g.node(2, 3)), 3);
        // Time edges never cross the readout chain.
        assert!(!g.crossing_parity(g.node(2, 0), g.node(2, 3)));
        // Chain-end stabilizers reach the boundary in one hop at any layer,
        // and the round-0 crossing behaviour replicates to every layer.
        for layer in 0..4 {
            assert_eq!(g.distance(g.node(0, layer), g.boundary()), 1);
            assert_eq!(g.distance(g.node(3, layer), g.boundary()), 1);
            assert!(g.crossing_parity(g.node(0, layer), g.boundary()));
            assert!(!g.crossing_parity(g.node(3, layer), g.boundary()));
        }
    }

    /// FNV-1a over `distance`, `crossing_parity`, `pair_distance` and
    /// `pair_crossing_parity` of every ordered node pair.
    fn table_digest(g: &DetectorGraph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
        for a in 0..g.num_nodes() {
            for b in 0..g.num_nodes() {
                eat(u64::from(g.distance(a, b)));
                eat(u64::from(g.crossing_parity(a, b)));
                eat(u64::from(g.pair_distance(a, b)));
                eat(u64::from(g.pair_crossing_parity(a, b)));
            }
        }
        h
    }

    /// A fixed mask spanning every weight class from background to
    /// saturation.
    fn fixed_mask(data: usize, stabs: usize) -> crate::decoder::DecoderMask {
        const PROBS: [f64; 6] = [0.0, 0.03, 0.1, 0.3, 0.7, 1.0];
        crate::decoder::DecoderMask::from_probs(
            (0..data).map(|d| PROBS[(3 * d + 1) % 6]).collect(),
            (0..stabs).map(|i| PROBS[(5 * i + 2) % 6]).collect(),
        )
    }

    /// The geometry the space-time decoder builds for a `layers`-layer
    /// window of a readout-terminated memory.
    fn window_graph(memory: &crate::codes::MemoryCircuit, layers: usize) -> DetectorGraph {
        let supports: Vec<Vec<u32>> =
            memory.primary_stabilizers().iter().map(|s| s.support.clone()).collect();
        let readout = &memory.final_readout.as_ref().unwrap().support;
        DetectorGraph::space_time(
            &(0..memory.n_data).collect::<Vec<_>>(),
            &supports,
            readout,
            layers,
        )
    }

    #[test]
    fn reweighted_tables_are_pinned() {
        // Digests recorded from the per-source `Vec` Dijkstra over
        // `Vec<Vec<_>>` tables; any layout or traversal change must keep
        // every distance and every canonical-path parity.
        let (rep5, xxzz33) = (
            RepetitionCode::bit_flip(5).build_memory_readout(10),
            XxzzCode::new(3, 3).build_memory_readout(10),
        );
        let graphs = [
            (window_graph(&rep5, 6), rep5.n_data as usize),
            (window_graph(&xxzz33, 6), xxzz33.n_data as usize),
            (DetectorGraph::new(&XxzzCode::new(5, 5).build()), 25),
        ];
        let digests: Vec<(u64, u64)> = graphs
            .iter()
            .map(|(g, data)| {
                let mask = fixed_mask(*data, g.primary_count());
                (table_digest(g), table_digest(&mask.reweight(g)))
            })
            .collect();
        assert_eq!(
            digests,
            [
                (800485662599133526, 16152621958971278130),
                (15429514546350798318, 15750418063266517418),
                (14958638470130636286, 16220489965105358538),
            ]
        );
    }

    #[test]
    fn parity_is_symmetric_enough_for_matching() {
        // dist symmetric; parity along canonical path must agree both ways
        // whenever paths are unique (ladder ends).
        let code = RepetitionCode::bit_flip(7).build();
        let g = DetectorGraph::new(&code);
        for a in 0..g.num_nodes() {
            for b in 0..g.num_nodes() {
                assert_eq!(g.distance(a, b), g.distance(b, a));
            }
        }
    }
}
