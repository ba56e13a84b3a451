//! The space-time detector graph a syndrome decoder works on.
//!
//! Nodes are (primary stabilizer, round) pairs plus one virtual boundary;
//! edges are data qubits shared between stabilizer supports (space, weight
//! 1), measurement repetitions (time, weight 1), and data qubits seen by a
//! single stabilizer (boundary, weight 1). Each space/boundary edge is
//! tagged with whether its data qubit lies on the logical readout chain, so
//! a correction path knows whether it flips the raw readout.

use crate::codes::CodeCircuit;

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

/// Space-time defect graph for the primary syndrome family of a code.
#[derive(Debug, Clone)]
pub struct DetectorGraph {
    primary_count: usize,
    /// Number of syndrome layers (2 for the flat offline graph; the
    /// sliding-window space-time decoder builds W-layer graphs).
    layers: usize,
    /// adj[v] = (neighbour, crosses_logical_readout).
    adj: Vec<Vec<(u32, bool)>>,
    /// Edge kind per adjacency entry, aligned with `adj` (kept separate so
    /// the BFS walks stay over plain `(neighbour, crossing)` pairs; only
    /// [`Self::reweighted`] reads it).
    edge_kinds: Vec<Vec<EdgeKind>>,
    /// All-pairs shortest-path distances (unit BFS in the unweighted
    /// build; weighted Dijkstra after [`Self::reweighted`]).
    dist: Vec<Vec<u32>>,
    /// Crossing parity along one canonical shortest path.
    parity: Vec<Vec<bool>>,
    /// All-pairs distances with the boundary node *excluded* — the
    /// defect-pair metric (see [`Self::pair_distance`]).
    interior_dist: Vec<Vec<u32>>,
    /// Crossing parity along the canonical boundary-free path.
    interior_parity: Vec<Vec<bool>>,
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
        let mut adj: Vec<Vec<(u32, bool)>> = vec![Vec::new(); num_nodes];
        let mut edge_kinds: Vec<Vec<EdgeKind>> = vec![Vec::new(); num_nodes];
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
                        adj[v].push((boundary as u32, crosses));
                        edge_kinds[v].push(EdgeKind::Data(d));
                        adj[boundary].push((v as u32, crosses));
                        edge_kinds[boundary].push(EdgeKind::Data(d));
                    }
                }
                2 => {
                    for layer in 0..layers {
                        let (a, b) = (layer * p + owners[0], layer * p + owners[1]);
                        adj[a].push((b as u32, crosses));
                        edge_kinds[a].push(EdgeKind::Data(d));
                        adj[b].push((a as u32, crosses));
                        edge_kinds[b].push(EdgeKind::Data(d));
                    }
                }
                n => unreachable!("data qubit {d} owned by {n} primary stabilizers"),
            }
        }
        // Time edges between consecutive re-measurements of each stabilizer.
        for layer in 0..layers.saturating_sub(1) {
            for i in 0..p {
                let (a, b) = (layer * p + i, (layer + 1) * p + i);
                adj[a].push((b as u32, false));
                edge_kinds[a].push(EdgeKind::Time(i));
                adj[b].push((a as u32, false));
                edge_kinds[b].push(EdgeKind::Time(i));
            }
        }

        // APSP with crossing parity along the BFS-canonical shortest path,
        // plus the boundary-free tables behind [`Self::pair_distance`].
        let mut dist = vec![vec![u32::MAX; num_nodes]; num_nodes];
        let mut parity = vec![vec![false; num_nodes]; num_nodes];
        let mut interior_dist = vec![vec![u32::MAX; num_nodes]; num_nodes];
        let mut interior_parity = vec![vec![false; num_nodes]; num_nodes];
        for src in 0..num_nodes {
            let (d, par) = bfs(&adj, src, usize::MAX);
            dist[src] = d;
            parity[src] = par;
            if src != boundary {
                let (d, par) = bfs(&adj, src, boundary);
                interior_dist[src] = d;
                interior_parity[src] = par;
            }
        }
        DetectorGraph {
            primary_count: p,
            layers,
            adj,
            edge_kinds,
            dist,
            parity,
            interior_dist,
            interior_parity,
        }
    }

    /// Rebuild the distance/parity tables with a per-edge weight supplied
    /// by `weight` (≥ 1; the unweighted build is the special case of every
    /// edge weighing 1) — the strike-aware reweighting layer. The adjacency
    /// structure is shared; only the all-pairs tables change, computed by a
    /// deterministic Dijkstra, so [`Self::distance`] returns *weighted*
    /// shortest-path costs and [`Self::crossing_parity`] the readout
    /// parity along the new canonical cheapest path.
    ///
    /// A mask that lowers weights inside a struck region makes correction
    /// paths through that region cheap — the matcher then prefers to
    /// explain defects with errors where the strike actually put them
    /// (erasure-style decoding).
    pub fn reweighted(&self, weight: impl Fn(EdgeKind) -> u32) -> DetectorGraph {
        let num_nodes = self.adj.len();
        let boundary = self.boundary();
        let weights: Vec<Vec<u32>> = self
            .edge_kinds
            .iter()
            .map(|kinds| kinds.iter().map(|&k| weight(k).max(1)).collect())
            .collect();
        let mut dist = vec![vec![u32::MAX; num_nodes]; num_nodes];
        let mut parity = vec![vec![false; num_nodes]; num_nodes];
        let mut interior_dist = vec![vec![u32::MAX; num_nodes]; num_nodes];
        let mut interior_parity = vec![vec![false; num_nodes]; num_nodes];
        for src in 0..num_nodes {
            let (d, par) = dijkstra(&self.adj, &weights, src, usize::MAX);
            dist[src] = d;
            parity[src] = par;
            if src != boundary {
                let (d, par) = dijkstra(&self.adj, &weights, src, boundary);
                interior_dist[src] = d;
                interior_parity[src] = par;
            }
        }
        DetectorGraph {
            primary_count: self.primary_count,
            layers: self.layers,
            adj: self.adj.clone(),
            edge_kinds: self.edge_kinds.clone(),
            dist,
            parity,
            interior_dist,
            interior_parity,
        }
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
        self.dist[a][b]
    }

    /// Readout-crossing parity along the canonical shortest path `a → b`.
    #[inline]
    pub fn crossing_parity(&self, a: DetectorNode, b: DetectorNode) -> bool {
        self.parity[a][b]
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
        self.interior_dist[a][b]
    }

    /// Readout-crossing parity along the canonical boundary-free path
    /// `a → b` (the path [`Self::pair_distance`] measures).
    #[inline]
    pub fn pair_crossing_parity(&self, a: DetectorNode, b: DetectorNode) -> bool {
        self.interior_parity[a][b]
    }

    /// Total node count (including the boundary).
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }
}

/// Deterministic O(n²) Dijkstra over the tiny detector graphs: nodes are
/// settled in (distance, index) order and relaxations are strictly
/// improving, so the canonical cheapest path — and with it the crossing
/// parity — is a pure function of the weight assignment.
fn dijkstra(
    adj: &[Vec<(u32, bool)>],
    weights: &[Vec<u32>],
    src: usize,
    skip: usize,
) -> (Vec<u32>, Vec<bool>) {
    let n = adj.len();
    let mut dist = vec![u32::MAX; n];
    let mut parity = vec![false; n];
    let mut done = vec![false; n];
    dist[src] = 0;
    for _ in 0..n {
        let mut v = usize::MAX;
        let mut best = u32::MAX;
        for (u, (&d, &fin)) in dist.iter().zip(&done).enumerate() {
            if !fin && d < best {
                best = d;
                v = u;
            }
        }
        if v == usize::MAX {
            break; // remaining nodes unreachable
        }
        done[v] = true;
        for (e, &(w, cross)) in adj[v].iter().enumerate() {
            let w = w as usize;
            if w == skip {
                continue;
            }
            let cand = dist[v].saturating_add(weights[v][e]);
            if cand < dist[w] {
                dist[w] = cand;
                parity[w] = parity[v] ^ cross;
            }
        }
    }
    (dist, parity)
}

fn bfs(adj: &[Vec<(u32, bool)>], src: usize, skip: usize) -> (Vec<u32>, Vec<bool>) {
    let n = adj.len();
    let mut dist = vec![u32::MAX; n];
    let mut parity = vec![false; n];
    dist[src] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        for &(w, cross) in &adj[v] {
            let w = w as usize;
            if w == skip {
                continue;
            }
            if dist[w] == u32::MAX {
                dist[w] = dist[v] + 1;
                parity[w] = parity[v] ^ cross;
                queue.push_back(w);
            }
        }
    }
    (dist, parity)
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
        for v in 0..g.num_nodes() {
            for &(_, cross) in &g.adj[v] {
                if cross {
                    crossing_edges += 1;
                }
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
