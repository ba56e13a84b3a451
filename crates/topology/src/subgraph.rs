//! Connected-subgraph selection.
//!
//! The paper's Fig. 6/7 methodology: "We selected a subset of connected
//! subgraphs in the lattice, then treated each subgraph as a hypernode
//! inside of which each qubit would undergo the same fault event", grouping
//! results by subgraph size. This module samples connected induced
//! subgraphs of a given size at random, and checks that a node set
//! induces a connected subgraph.

use crate::graph::Topology;
use rand::seq::SliceRandom;
use rand::Rng;

/// Randomly sample up to `count` connected induced subgraphs of `size` nodes
/// by randomised BFS growth (duplicates are removed; the sampler is not
/// exactly uniform, matching the paper's "selected a subset" methodology).
pub fn sample_connected_subgraphs<R: Rng + ?Sized>(
    topo: &Topology,
    size: usize,
    count: usize,
    rng: &mut R,
) -> Vec<Vec<u32>> {
    let n = topo.num_qubits() as usize;
    if size == 0 || size > n || count == 0 {
        return Vec::new();
    }
    let mut seen = std::collections::HashSet::new();
    let mut out: Vec<Vec<u32>> = Vec::new();
    // Cap attempts so sparse/disconnected graphs terminate.
    let max_attempts = count * 40 + 100;
    for _ in 0..max_attempts {
        if out.len() >= count {
            break;
        }
        let start = rng.gen_range(0..n as u32);
        let mut chosen = vec![start];
        let mut in_chosen = vec![false; n];
        in_chosen[start as usize] = true;
        let mut frontier: Vec<u32> = topo.neighbors(start).to_vec();
        while chosen.len() < size && !frontier.is_empty() {
            let idx = rng.gen_range(0..frontier.len());
            let v = frontier.swap_remove(idx);
            if in_chosen[v as usize] {
                continue;
            }
            in_chosen[v as usize] = true;
            chosen.push(v);
            for &u in topo.neighbors(v) {
                if !in_chosen[u as usize] {
                    frontier.push(u);
                }
            }
        }
        if chosen.len() == size {
            chosen.sort_unstable();
            if seen.insert(chosen.clone()) {
                out.push(chosen);
            }
        }
    }
    out.shuffle(rng);
    out
}

/// Check that `nodes` induces a connected subgraph of `topo`.
pub fn is_connected_subset(topo: &Topology, nodes: &[u32]) -> bool {
    if nodes.is_empty() {
        return true;
    }
    let set: std::collections::HashSet<u32> = nodes.iter().copied().collect();
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![nodes[0]];
    seen.insert(nodes[0]);
    while let Some(v) = stack.pop() {
        for &u in topo.neighbors(v) {
            if set.contains(&u) && seen.insert(u) {
                stack.push(u);
            }
        }
    }
    seen.len() == nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{linear, mesh};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_yields_valid_connected_sets() {
        let t = mesh(5, 6);
        let mut rng = StdRng::seed_from_u64(9);
        for size in [1, 3, 7, 15, 30] {
            let subs = sample_connected_subgraphs(&t, size, 20, &mut rng);
            assert!(!subs.is_empty(), "no samples at size {size}");
            for s in &subs {
                assert_eq!(s.len(), size);
                assert!(is_connected_subset(&t, s));
            }
            // no duplicates
            let set: std::collections::HashSet<_> = subs.iter().cloned().collect();
            assert_eq!(set.len(), subs.len());
        }
    }

    #[test]
    fn sampling_impossible_size_returns_empty() {
        let t = linear(4);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample_connected_subgraphs(&t, 5, 10, &mut rng).is_empty());
        assert!(sample_connected_subgraphs(&t, 0, 10, &mut rng).is_empty());
    }

    #[test]
    fn is_connected_subset_detects_disconnection() {
        let t = linear(5);
        assert!(is_connected_subset(&t, &[1, 2, 3]));
        assert!(!is_connected_subset(&t, &[0, 2]));
        assert!(is_connected_subset(&t, &[]));
    }
}
