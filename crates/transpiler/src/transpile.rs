//! The end-to-end transpilation pass: layout → routing → SWAP decomposition.

use crate::layout::{choose_layout, Layout, LayoutStrategy};
use crate::router::{route, RouterKind};
use radqec_circuit::Circuit;
use radqec_topology::Topology;

/// Options controlling [`transpile`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TranspileOptions {
    /// Initial placement strategy (ignored when `auto` is set).
    pub layout: LayoutStrategy,
    /// Routing algorithm (ignored when `auto` is set).
    pub router: RouterKind,
    /// Try every (layout, router) combination and keep the result with the
    /// fewest SWAPs — the equivalent of Qiskit's multi-trial default
    /// transpilation the paper relies on.
    pub auto: bool,
}

impl TranspileOptions {
    /// Multi-trial transpilation (the engine default).
    pub fn auto() -> Self {
        TranspileOptions { auto: true, ..Default::default() }
    }
}

/// A circuit transpiled onto a hardware topology.
#[derive(Debug, Clone)]
pub struct Transpiled {
    /// The physical circuit (register size = device size).
    pub circuit: Circuit,
    /// Initial logical→physical placement.
    pub initial_layout: Layout,
    /// Final logical→physical placement (after routing SWAPs).
    pub final_layout: Layout,
    /// Number of SWAPs the router inserted (before decomposition).
    pub swap_count: usize,
    /// Time-resolved qubit→seat map: one snapshot of the evolving
    /// logical→physical assignment per `Barrier` of the source circuit
    /// (see [`RoutedCircuit::seat_maps`]).
    ///
    /// [`RoutedCircuit::seat_maps`]: crate::RoutedCircuit::seat_maps
    pub seat_maps: Vec<Layout>,
}

impl Transpiled {
    /// Physical qubits touched by at least one operation, ascending — the
    /// set the paper's Fig. 8 plots (unused device qubits are omitted).
    pub fn used_physical_qubits(&self) -> Vec<u32> {
        self.circuit.used_qubits()
    }

    /// The seat assignment in force at barrier `epoch` — for memory
    /// circuits (one barrier per round), the map under which round
    /// `epoch` opens. Epochs past the last barrier resolve to the final
    /// layout, and a barrier-free circuit resolves every epoch there; on
    /// a SWAP-free host every epoch is the initial layout, which is why
    /// the initial-layout projection of strike masks is exact there and
    /// only approximate on routed hosts.
    pub fn seat_at(&self, epoch: usize) -> &Layout {
        self.seat_maps.get(epoch).unwrap_or(&self.final_layout)
    }
}

/// Map `circuit` onto `topo`: choose an initial layout, route all two-qubit
/// gates onto device edges, and decompose each inserted SWAP into 3 CX
/// gates — routed circuits then pay the full gate-count cost, which is what
/// drives the paper's Observation VIII.
///
/// # Panics
/// Panics if the device has fewer qubits than the circuit or required
/// operands are unreachable from each other.
pub fn transpile(circuit: &Circuit, topo: &Topology, opts: &TranspileOptions) -> Transpiled {
    let trials: Vec<(LayoutStrategy, RouterKind)> = if opts.auto {
        let layouts =
            [LayoutStrategy::Anneal, LayoutStrategy::BfsPairing, LayoutStrategy::DegreeGreedy];
        let routers = [RouterKind::Lookahead, RouterKind::BasicShortestPath];
        layouts.iter().flat_map(|&l| routers.iter().map(move |&r| (l, r))).collect()
    } else {
        vec![(opts.layout, opts.router)]
    };
    let mut best: Option<Transpiled> = None;
    for (layout, router) in trials {
        let initial = choose_layout(circuit, topo, layout);
        let routed = route(circuit, topo, &initial, router);
        if best.as_ref().is_none_or(|b| routed.swap_count < b.swap_count) {
            best = Some(Transpiled {
                circuit: routed.circuit,
                initial_layout: initial,
                final_layout: routed.final_layout,
                swap_count: routed.swap_count,
                seat_maps: routed.seat_maps,
            });
        }
    }
    let mut t = best.expect("at least one transpilation trial");
    t.circuit = t.circuit.decompose_swaps();
    t
}

/// [`transpile`] with a caller-provided initial placement instead of a
/// layout search — for circuits whose author knows a (near-)native
/// embedding on the device, e.g. the rotated surface code's checkerboard
/// on a mesh (`radqec_core::codes::CodeSpec::native_embedding`), where the
/// layout heuristics cannot be expected to rediscover the structure.
/// `opts.layout` and `opts.auto` are ignored; routing and SWAP
/// decomposition behave as in [`transpile`].
///
/// # Panics
/// Panics when `initial` does not fit the (circuit, topology) pair or
/// operands are unreachable.
pub fn transpile_with_layout(
    circuit: &Circuit,
    topo: &Topology,
    initial: Layout,
    opts: &TranspileOptions,
) -> Transpiled {
    assert!(
        initial.num_logical() >= circuit.num_qubits() as usize,
        "layout covers {} logical qubits, circuit needs {}",
        initial.num_logical(),
        circuit.num_qubits()
    );
    let routed = route(circuit, topo, &initial, opts.router);
    Transpiled {
        circuit: routed.circuit.decompose_swaps(),
        initial_layout: initial,
        final_layout: routed.final_layout,
        swap_count: routed.swap_count,
        seat_maps: routed.seat_maps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radqec_circuit::Gate;
    use radqec_topology::generators::{linear, mesh};

    #[test]
    fn transpile_decomposes_swaps_by_default() {
        let mut c = Circuit::new(4, 0);
        c.cx(0, 3);
        let t = transpile(
            &c,
            &linear(4),
            &TranspileOptions { layout: LayoutStrategy::Trivial, ..Default::default() },
        );
        assert_eq!(t.swap_count, 2);
        assert_eq!(t.circuit.count_by_name("swap"), 0);
        assert_eq!(t.circuit.count_by_name("cx"), 2 * 3 + 1);
    }

    #[test]
    fn used_physical_qubits_reports_occupancy() {
        let mut c = Circuit::new(2, 0);
        c.cx(0, 1);
        let t = transpile(&c, &mesh(3, 3), &TranspileOptions::default());
        let used = t.used_physical_qubits();
        assert_eq!(used.len(), 2);
        for g in t.circuit.ops() {
            if let Gate::Cx { control, target } = g {
                assert!(used.contains(control) && used.contains(target));
            }
        }
    }

    #[test]
    fn greedy_layout_beats_trivial_on_swap_count() {
        // A ring-interaction circuit placed trivially on a mesh needs more
        // SWAPs than a clustered greedy placement.
        let mut c = Circuit::new(6, 0);
        for _ in 0..3 {
            c.cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4).cx(4, 5).cx(5, 0);
        }
        let topo = mesh(5, 6);
        let greedy = transpile(&c, &topo, &TranspileOptions::default());
        let trivial = transpile(
            &c,
            &topo,
            &TranspileOptions { layout: LayoutStrategy::Trivial, ..Default::default() },
        );
        assert!(
            greedy.swap_count <= trivial.swap_count,
            "greedy {} > trivial {}",
            greedy.swap_count,
            trivial.swap_count
        );
    }
}
