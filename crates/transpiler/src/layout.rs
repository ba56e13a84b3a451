//! Initial-layout selection: where each logical circuit qubit starts on the
//! physical device.

use radqec_circuit::Circuit;
use radqec_topology::Topology;

/// How the initial logical→physical placement is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutStrategy {
    /// Logical qubit `i` starts on physical qubit `i`.
    Trivial,
    /// Greedy interaction-aware placement: the most-connected logical qubit
    /// is placed on the highest-degree physical site, then each remaining
    /// logical qubit is placed to minimise its total distance to already
    /// placed interaction partners.
    #[default]
    DegreeGreedy,
    /// Pair a BFS ordering of the circuit's interaction graph with a BFS
    /// ordering of the device graph — keeps interaction clusters physically
    /// contiguous, which suits the lattice-structured code circuits.
    BfsPairing,
    /// Local-search placement: start from the greedy layout and hill-climb
    /// (with a deterministic RNG) on the total gate-weighted distance
    /// objective, the placement quality class of Qiskit's SABRE layout the
    /// paper's "default optimisation" relies on.
    Anneal,
}

/// Why a logical→physical table is not a [`Layout`] (see
/// [`Layout::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// A physical qubit at or beyond the device size.
    OutOfRange {
        /// The offending physical index.
        physical: u32,
    },
    /// A physical qubit assigned to two logical qubits.
    AssignedTwice {
        /// The doubly assigned physical index.
        physical: u32,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::OutOfRange { physical } => {
                write!(f, "physical qubit {physical} out of range")
            }
            LayoutError::AssignedTwice { physical } => {
                write!(f, "physical qubit {physical} assigned twice")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// A bidirectional logical↔physical qubit assignment that evolves as the
/// router inserts SWAPs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// logical → physical.
    l2p: Vec<u32>,
    /// physical → logical (`u32::MAX` = unoccupied).
    p2l: Vec<u32>,
}

impl Layout {
    /// Build from a logical→physical table over `num_physical` sites.
    ///
    /// # Panics
    /// Panics if the table is not injective or indices are out of range —
    /// use [`Layout::try_new`] for untrusted tables.
    pub fn new(l2p: Vec<u32>, num_physical: u32) -> Self {
        Self::try_new(l2p, num_physical).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Layout::new`]: `Err` on a physical index at or beyond
    /// `num_physical` or a physical qubit assigned twice.
    pub fn try_new(l2p: Vec<u32>, num_physical: u32) -> Result<Self, LayoutError> {
        let mut p2l = vec![u32::MAX; num_physical as usize];
        for (l, &p) in l2p.iter().enumerate() {
            if p >= num_physical {
                return Err(LayoutError::OutOfRange { physical: p });
            }
            if p2l[p as usize] != u32::MAX {
                return Err(LayoutError::AssignedTwice { physical: p });
            }
            p2l[p as usize] = l as u32;
        }
        Ok(Layout { l2p, p2l })
    }

    /// Physical position of logical qubit `l`.
    #[inline]
    pub fn physical(&self, l: u32) -> u32 {
        self.l2p[l as usize]
    }

    /// Logical qubit at physical site `p`, if any.
    #[inline]
    pub fn logical(&self, p: u32) -> Option<u32> {
        let l = self.p2l[p as usize];
        (l != u32::MAX).then_some(l)
    }

    /// The logical→physical table.
    pub fn as_table(&self) -> &[u32] {
        &self.l2p
    }

    /// Number of logical qubits placed.
    pub fn num_logical(&self) -> usize {
        self.l2p.len()
    }

    /// Swap the contents of two physical sites (used when the router emits
    /// a SWAP gate). Either site may be unoccupied.
    pub fn swap_physical(&mut self, a: u32, b: u32) {
        let la = self.p2l[a as usize];
        let lb = self.p2l[b as usize];
        self.p2l[a as usize] = lb;
        self.p2l[b as usize] = la;
        if la != u32::MAX {
            self.l2p[la as usize] = b;
        }
        if lb != u32::MAX {
            self.l2p[lb as usize] = a;
        }
    }
}

/// Logical-qubit interaction counts from the circuit's two-qubit gates.
fn interaction_matrix(circuit: &Circuit) -> Vec<Vec<u32>> {
    let n = circuit.num_qubits() as usize;
    let mut m = vec![vec![0u32; n]; n];
    for g in circuit.ops() {
        if g.is_two_qubit() {
            let qs = g.qubits();
            let (a, b) = (qs[0] as usize, qs[1] as usize);
            m[a][b] += 1;
            m[b][a] += 1;
        }
    }
    m
}

/// Choose the initial layout for `circuit` on `topo`.
///
/// # Panics
/// Panics if the device is smaller than the circuit.
pub fn choose_layout(circuit: &Circuit, topo: &Topology, strategy: LayoutStrategy) -> Layout {
    let nl = circuit.num_qubits();
    let np = topo.num_qubits();
    assert!(nl <= np, "circuit needs {nl} qubits but topology {} has only {np}", topo.name());
    match strategy {
        LayoutStrategy::Trivial => Layout::new((0..nl).collect(), np),
        LayoutStrategy::Anneal => {
            let start = choose_layout(circuit, topo, LayoutStrategy::DegreeGreedy);
            anneal_layout(circuit, topo, start)
        }
        LayoutStrategy::BfsPairing => {
            let inter = interaction_matrix(circuit);
            let total: Vec<u32> = inter.iter().map(|row| row.iter().sum()).collect();
            // Logical BFS over the interaction graph, heaviest first.
            let mut logical_order: Vec<u32> = Vec::with_capacity(nl as usize);
            let mut seen = vec![false; nl as usize];
            let mut seeds: Vec<u32> = (0..nl).collect();
            seeds.sort_by_key(|&l| (std::cmp::Reverse(total[l as usize]), l));
            for seed in seeds {
                if seen[seed as usize] {
                    continue;
                }
                let mut queue = std::collections::VecDeque::from([seed]);
                seen[seed as usize] = true;
                while let Some(v) = queue.pop_front() {
                    logical_order.push(v);
                    let mut nbrs: Vec<u32> = (0..nl)
                        .filter(|&w| inter[v as usize][w as usize] > 0 && !seen[w as usize])
                        .collect();
                    nbrs.sort_by_key(|&w| (std::cmp::Reverse(inter[v as usize][w as usize]), w));
                    for w in nbrs {
                        seen[w as usize] = true;
                        queue.push_back(w);
                    }
                }
            }
            // Physical BFS over the device from its best-connected site.
            let start = topo.nodes_by_degree()[0];
            let mut phys_order: Vec<u32> = Vec::with_capacity(np as usize);
            let mut pseen = vec![false; np as usize];
            let mut queue = std::collections::VecDeque::from([start]);
            pseen[start as usize] = true;
            while let Some(v) = queue.pop_front() {
                phys_order.push(v);
                for &w in topo.neighbors(v) {
                    if !pseen[w as usize] {
                        pseen[w as usize] = true;
                        queue.push_back(w);
                    }
                }
            }
            for p in 0..np {
                if !pseen[p as usize] {
                    phys_order.push(p);
                }
            }
            let mut l2p = vec![u32::MAX; nl as usize];
            for (i, &l) in logical_order.iter().enumerate() {
                l2p[l as usize] = phys_order[i];
            }
            Layout::new(l2p, np)
        }
        LayoutStrategy::DegreeGreedy => {
            let inter = interaction_matrix(circuit);
            let total: Vec<u32> = inter.iter().map(|row| row.iter().sum()).collect();
            let dist = topo.all_pairs_distances();
            let mut l2p = vec![u32::MAX; nl as usize];
            let mut phys_free = vec![true; np as usize];
            let mut placed: Vec<u32> = Vec::new();
            // Logical placement order: most interacting first, then those
            // with most already-placed partners.
            let mut order: Vec<u32> = (0..nl).collect();
            order.sort_by_key(|&l| (std::cmp::Reverse(total[l as usize]), l));
            for (rank, &l) in order.iter().enumerate() {
                let best = if rank == 0 {
                    // Seed on the highest-degree physical site.
                    *topo.nodes_by_degree().first().expect("topology has at least one node")
                } else {
                    let mut best = u32::MAX;
                    let mut best_cost = u64::MAX;
                    for p in 0..np {
                        if !phys_free[p as usize] {
                            continue;
                        }
                        let mut cost = 0u64;
                        let mut connected = true;
                        for &pl in &placed {
                            let w = inter[l as usize][pl as usize] as u64;
                            let d = dist[p as usize][l2p[pl as usize] as usize];
                            if d == u32::MAX {
                                connected = false;
                                break;
                            }
                            // Weighted distance to interaction partners plus a
                            // tiny pull toward the placed cluster.
                            cost += (w * 100 + 1) * d as u64;
                        }
                        if connected && cost < best_cost {
                            best_cost = cost;
                            best = p;
                        }
                    }
                    assert!(best != u32::MAX, "no reachable free site on {}", topo.name());
                    best
                };
                l2p[l as usize] = best;
                phys_free[best as usize] = false;
                placed.push(l);
            }
            Layout::new(l2p, np)
        }
    }
}

/// Hill-climb the placement: repeatedly move one logical qubit to another
/// (possibly occupied) physical site, accepting non-worsening changes of the
/// gate-weighted total distance. Deterministic (fixed RNG seed).
fn anneal_layout(circuit: &Circuit, topo: &Topology, start: Layout) -> Layout {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let nl = circuit.num_qubits() as usize;
    let np = topo.num_qubits() as usize;
    if nl < 2 {
        return start;
    }
    let dist = topo.all_pairs_distances();
    // Weighted interaction edge list.
    let inter = interaction_matrix(circuit);
    let mut edges: Vec<(usize, usize, u64)> = Vec::new();
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); nl];
    for a in 0..nl {
        for b in a + 1..nl {
            if inter[a][b] > 0 {
                incident[a].push(edges.len());
                incident[b].push(edges.len());
                edges.push((a, b, inter[a][b] as u64));
            }
        }
    }
    let mut l2p: Vec<u32> = start.as_table().to_vec();
    let mut p2l: Vec<u32> = vec![u32::MAX; np];
    for (l, &p) in l2p.iter().enumerate() {
        p2l[p as usize] = l as u32;
    }
    let edge_cost = |l2p: &[u32], e: &(usize, usize, u64)| -> u64 {
        let d = dist[l2p[e.0] as usize][l2p[e.1] as usize];
        e.2 * d.max(1) as u64
    };
    let cost_of = |l2p: &[u32], l: usize| -> u64 {
        incident[l].iter().map(|&ei| edge_cost(l2p, &edges[ei])).sum()
    };
    let mut rng = StdRng::seed_from_u64(0xA11C);
    let iterations = 4000 * nl.max(8);
    for _ in 0..iterations {
        let l = rng.gen_range(0..nl);
        let target = rng.gen_range(0..np) as u32;
        let from = l2p[l];
        if target == from {
            continue;
        }
        let other = p2l[target as usize]; // logical at target, or MAX
        let mut before = cost_of(&l2p, l);
        if other != u32::MAX {
            before += cost_of(&l2p, other as usize);
        }
        // Apply tentatively.
        l2p[l] = target;
        if other != u32::MAX {
            l2p[other as usize] = from;
        }
        let mut after = cost_of(&l2p, l);
        if other != u32::MAX {
            after += cost_of(&l2p, other as usize);
        }
        if after <= before {
            p2l[target as usize] = l as u32;
            p2l[from as usize] = other;
        } else {
            // Revert.
            l2p[l] = from;
            if other != u32::MAX {
                l2p[other as usize] = target;
            }
        }
    }
    Layout::new(l2p, topo.num_qubits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use radqec_topology::generators::{linear, mesh};

    #[test]
    fn layout_roundtrip_and_swap() {
        let mut lay = Layout::new(vec![2, 0], 4);
        assert_eq!(lay.physical(0), 2);
        assert_eq!(lay.logical(2), Some(0));
        assert_eq!(lay.logical(3), None);
        lay.swap_physical(2, 3);
        assert_eq!(lay.physical(0), 3);
        assert_eq!(lay.logical(2), None);
        lay.swap_physical(3, 0);
        assert_eq!(lay.physical(0), 0);
        assert_eq!(lay.physical(1), 3);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn layout_rejects_duplicates() {
        Layout::new(vec![1, 1], 3);
    }

    #[test]
    fn try_new_reports_bad_tables() {
        assert_eq!(Layout::try_new(vec![0, 3], 3), Err(LayoutError::OutOfRange { physical: 3 }));
        assert_eq!(
            Layout::try_new(vec![2, 0, 2], 3),
            Err(LayoutError::AssignedTwice { physical: 2 })
        );
        assert_eq!(Layout::try_new(vec![2, 0], 3), Ok(Layout::new(vec![2, 0], 3)));
    }

    #[test]
    fn trivial_layout_is_identity() {
        let mut c = Circuit::new(3, 0);
        c.cx(0, 2);
        let lay = choose_layout(&c, &linear(5), LayoutStrategy::Trivial);
        assert_eq!(lay.as_table(), &[0, 1, 2]);
    }

    #[test]
    fn greedy_layout_places_partners_adjacent() {
        // Chain circuit 0-1, 1-2: greedy should produce adjacent placements
        let mut c = Circuit::new(3, 0);
        c.cx(0, 1).cx(1, 2).cx(0, 1);
        let topo = mesh(3, 3);
        let lay = choose_layout(&c, &topo, LayoutStrategy::DegreeGreedy);
        let d = topo.all_pairs_distances();
        assert_eq!(d[lay.physical(0) as usize][lay.physical(1) as usize], 1);
        assert_eq!(d[lay.physical(1) as usize][lay.physical(2) as usize], 1);
    }

    #[test]
    #[should_panic(expected = "only")]
    fn layout_rejects_small_device() {
        let c = Circuit::new(6, 0);
        choose_layout(&c, &linear(3), LayoutStrategy::Trivial);
    }
}
