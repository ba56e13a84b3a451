//! The minimum-weight perfect-matching decoder (paper Sec. II-D: "MWPM
//! offers the better trade-off between high accuracy and low
//! time-to-solution").

use crate::codes::CodeCircuit;
use crate::decoder::graph::DetectorGraph;
use radqec_circuit::ShotRecord;
use radqec_matching::{DefectMatch, MatchingArena};

/// Weight assigned to an unreachable pairing (effectively forbids it
/// without overflowing the matcher's arithmetic).
const UNREACHABLE: i64 = 1 << 30;

/// Map a BFS distance to a matching weight ([`UNREACHABLE`] forbids the
/// pairing without overflowing the matcher's arithmetic).
#[inline]
pub(crate) fn weight_of(d: u32) -> i64 {
    if d == u32::MAX {
        UNREACHABLE
    } else {
        d as i64
    }
}

/// Scale lifting graph distances into matching weights, leaving the low
/// bits for the canonical tie-break perturbation of [`match_weights`].
/// Any matching carries at most 128 edges and each perturbation is
/// `< PAIR_BIAS + 509`, so the summed perturbation stays below one scaled
/// distance unit: a perturbed minimum-weight matching is always a true
/// minimum-weight matching of the unperturbed distances.
const TIE_SCALE: i64 = 1 << 20;

/// Tie-break bias every defect–defect pairing carries over boundary
/// matches (larger than any [`tie_eps`] value, smaller than
/// [`TIE_SCALE`]`/128` together with it). On equal base weight the
/// canonical optimum therefore maximises the number of boundary matches
/// — the choice that *decouples* chains of degenerate alternatives.
/// Without it, a tie at one end of an alternating defect chain can only
/// be resolved by looking arbitrarily far along the chain (each link
/// ties, so the epsilons decide globally), and a sliding window whose
/// horizon cuts the chain would commit differently than the
/// whole-history solve. Boundary-matched defects sever such chains, so
/// the decision each window commits is determined by defects it can
/// actually see.
const PAIR_BIAS: i64 = 1 << 12;

/// SplitMix64 finalizer — a deterministic pseudo-random sub-unit weight
/// from an edge descriptor.
#[inline]
fn tie_eps(x: u64) -> i64 {
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % 509) as i64
}

/// Perturbed weight of pairing the defects at `(stab, layer)` sites `a`
/// and `b`, `d` apart on the boundary-free metric.
#[inline]
fn perturbed_pair(d: u32, a: (usize, usize), b: (usize, usize)) -> i64 {
    if d == u32::MAX {
        return UNREACHABLE * TIE_SCALE;
    }
    let ((s0, l0), (s1, l1)) = if a <= b { (a, b) } else { (b, a) };
    let dt = (l1 as i64 - l0 as i64 + (1 << 20)) as u64;
    d as i64 * TIE_SCALE + PAIR_BIAS + tie_eps((s0 as u64) << 44 | (s1 as u64) << 24 | dt)
}

/// Perturbed weight of matching a defect of stabilizer `stab` to the
/// boundary, `d` away.
#[inline]
fn perturbed_boundary(d: u32, stab: usize) -> i64 {
    if d == u32::MAX {
        return UNREACHABLE * TIE_SCALE;
    }
    d as i64 * TIE_SCALE + tie_eps(1 << 60 | stab as u64)
}

/// The canonically perturbed matching weights of `g`'s `L · P` defect
/// nodes, row-major: entry `a · L·P + b` prices pairing `a` with `b`,
/// entry `a · L·P + a` matching `a` to the boundary
/// ([`DetectorGraph::match_weight`] reads them).
///
/// Minimum-weight matchings of raw detector-graph distances are often
/// degenerate (on a distance-3 chain, two neighbouring defects pair for
/// the same weight 2 as two boundary matches — with opposite readout
/// parity), and which optimum a solver returns then depends on node
/// numbering. A sliding-window solve numbers nodes window-locally, so
/// the windowed and whole-history decoders would break such ties
/// *differently* even on histories the window covers perfectly. The
/// perturbation makes the minimum generically unique, and it is built
/// only from translation-invariant descriptors — for a pair, the two
/// stabilizer indices and their signed layer separation (after sorting
/// the endpoints, so `(a, b)` and `(b, a)` agree); for a boundary match,
/// the stabilizer index alone — never from absolute layer numbers. A
/// window solve and a whole-history solve therefore perturb the same
/// physical pairing by the same amount and select the same optimum,
/// which is what lets the window-equivalence suite demand bit-identity
/// on real noise streams rather than only on tie-free synthetic ones.
///
/// Filled once per graph, walking `(layer, stab)` pairs so that no entry
/// pays for dividing a node id by `P`.
pub(crate) fn match_weights(g: &DetectorGraph) -> Vec<i64> {
    let (p, layers, boundary) = (g.primary_count(), g.layers(), g.boundary());
    let mut table = Vec::with_capacity(boundary * boundary);
    for la in 0..layers {
        for sa in 0..p {
            let a = la * p + sa;
            for lb in 0..layers {
                for sb in 0..p {
                    let b = lb * p + sb;
                    table.push(if a == b {
                        perturbed_boundary(g.distance(a, boundary), sa)
                    } else {
                        perturbed_pair(g.pair_distance(a, b), (sa, la), (sb, lb))
                    });
                }
            }
        }
    }
    table
}

/// The perturbed weight of pairing defect nodes `a` and `b`, computed
/// straight from node ids — the reference [`match_weights`] is tested
/// against.
#[cfg(test)]
fn pair_weight(g: &DetectorGraph, a: usize, b: usize) -> i64 {
    let p = g.primary_count();
    perturbed_pair(g.pair_distance(a, b), (a % p, a / p), (b % p, b / p))
}

/// The perturbed weight of matching defect node `a` to the boundary,
/// computed straight from its node id (see [`pair_weight`]).
#[cfg(test)]
fn boundary_weight(g: &DetectorGraph, a: usize) -> i64 {
    perturbed_boundary(g.distance(a, g.boundary()), a % g.primary_count())
}

/// Readout-flip parity the minimum-weight matching of `defects` implies —
/// the exact core of [`MwpmDecoder::decode`], factored out so
/// [`BulkDecoder`](crate::decoder::BulkDecoder) provably computes the
/// same function (every value its memo holds comes from
/// this very routine).
///
/// Matches on the canonically perturbed weights ([`match_weights`]), so
/// degenerate optima resolve the same way in every solver that shares
/// this routine *and* in the sliding-window decoder's window solves.
pub(crate) fn matching_flip(
    g: &DetectorGraph,
    defects: &[usize],
    arena: &mut MatchingArena,
) -> bool {
    commit_matching(g, defects, arena, usize::MAX).0
}

/// The minimum-weight matching of `defects` (detector node ids, in the
/// caller's order), committed below node `commit_nodes` — the one
/// matching walk behind [`matching_flip`] (`commit_nodes = usize::MAX`:
/// commit everything) and every space-time window solve. Returns the
/// crossing parity of every match with an endpoint below `commit_nodes`,
/// and the node bitmask of the defects at or above it that no committed
/// defect consumed (the window's survivors; ≤ 128 defects in that case).
pub(crate) fn commit_matching(
    g: &DetectorGraph,
    defects: &[usize],
    arena: &mut MatchingArena,
    commit_nodes: usize,
) -> (bool, u128) {
    let boundary = g.boundary();
    let matches = arena.match_defects(
        defects.len(),
        |a, b| g.match_weight(defects[a], defects[b]),
        |a| g.match_weight(defects[a], defects[a]),
    );
    let mut flip = false;
    // Tentative defects consumed by a commit-region partner, by defect
    // index.
    let mut consumed = 0u128;
    for (a, m) in matches.iter().enumerate() {
        let na = defects[a];
        if na >= commit_nodes {
            continue;
        }
        match *m {
            DefectMatch::Boundary => flip ^= g.crossing_parity(na, boundary),
            // Commit–commit pairs appear twice; count once.
            DefectMatch::Peer(b) if defects[b] < commit_nodes && b < a => {}
            DefectMatch::Peer(b) => {
                flip ^= g.pair_crossing_parity(na, defects[b]);
                if defects[b] >= commit_nodes {
                    consumed |= 1u128 << b;
                }
            }
        }
    }
    let mut survivors = 0u128;
    for (a, &node) in defects.iter().enumerate() {
        if node >= commit_nodes && consumed >> a & 1 == 0 {
            survivors |= 1u128 << node;
        }
    }
    (flip, survivors)
}

/// MWPM decoder over a code's primary detector graph.
#[derive(Debug, Clone)]
pub struct MwpmDecoder {
    graph: DetectorGraph,
    cbits_round1: Vec<u32>,
    cbits_round2: Vec<u32>,
    readout_cbit: u32,
}

impl MwpmDecoder {
    /// Build the decoder for `code`. The decoder depends only on the code's
    /// classical-register layout, so it works unchanged on transpiled
    /// versions of the circuit.
    pub fn new(code: &CodeCircuit) -> Self {
        let graph = DetectorGraph::new(code);
        MwpmDecoder {
            graph,
            cbits_round1: code.primary_stabilizers().iter().map(|s| s.cbit_round1).collect(),
            cbits_round2: code.primary_stabilizers().iter().map(|s| s.cbit_round2).collect(),
            readout_cbit: code.readout_cbit,
        }
    }

    /// The strike-aware reference decoder: [`MwpmDecoder::new`] with the
    /// detector graph reweighted by `mask`
    /// ([`DecoderMask::reweight`](crate::decoder::DecoderMask::reweight)),
    /// so matchings prefer correction paths through the struck region.
    /// This is the per-shot oracle the masked contexts of
    /// [`BulkDecoder`](crate::decoder::BulkDecoder) are validated against
    /// (`tests/strike_aware_decoding.rs`) — both sides build their graph
    /// through the same reweighting function, so the exactness argument of
    /// the unmasked decoder carries over unchanged.
    pub fn masked(code: &CodeCircuit, mask: &crate::decoder::DecoderMask) -> Self {
        let mut dec = Self::new(code);
        dec.graph = mask.reweight(&dec.graph);
        dec
    }

    /// The underlying detector graph.
    pub fn graph(&self) -> &DetectorGraph {
        &self.graph
    }

    /// Extract defect nodes from a shot in the canonical order every
    /// two-round decoder shares: ascending primary stabilizer, round 0
    /// before round 1 (round-1 detectors fire when the first syndrome
    /// deviates from the deterministic initial value 0, round-2 detectors
    /// when the syndrome changes between rounds). The matcher's
    /// tie-breaking depends on that order; [`BulkDecoder`] reproduces it by
    /// reading its defect planes `2i + r` in ascending order.
    ///
    /// [`BulkDecoder`]: crate::decoder::BulkDecoder
    pub fn defects(&self, shot: &ShotRecord) -> Vec<usize> {
        let mut defects = Vec::new();
        for i in 0..self.graph.primary_count() {
            let s1 = shot.get(self.cbits_round1[i]);
            let s2 = shot.get(self.cbits_round2[i]);
            if s1 {
                defects.push(self.graph.node(i, 0));
            }
            if s1 != s2 {
                defects.push(self.graph.node(i, 1));
            }
        }
        defects
    }

    /// Decode a shot into the corrected logical readout value (`true` =
    /// logical |1⟩).
    pub fn decode(&self, shot: &ShotRecord) -> bool {
        let defects = self.defects(shot);
        let raw = shot.get(self.readout_cbit);
        if defects.is_empty() {
            return raw;
        }
        raw ^ matching_flip(&self.graph, &defects, &mut MatchingArena::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{RepetitionCode, XxzzCode};
    use radqec_circuit::{execute, Circuit};
    use radqec_stabilizer::StabilizerBackend;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_noiseless(code: &CodeCircuit, seed: u64) -> ShotRecord {
        let mut backend = StabilizerBackend::new(code.total_qubits());
        let mut rng = StdRng::seed_from_u64(seed);
        execute(&code.circuit, &mut backend, &mut rng)
    }

    #[test]
    fn noiseless_repetition_decodes_to_one() {
        for d in [3, 5, 7, 9, 11, 13, 15] {
            let code = RepetitionCode::bit_flip(d).build();
            let dec = MwpmDecoder::new(&code);
            for seed in 0..5 {
                let shot = run_noiseless(&code, seed);
                assert!(dec.defects(&shot).is_empty(), "d={d}");
                assert!(dec.decode(&shot), "d={d} seed={seed}");
            }
        }
    }

    #[test]
    fn noiseless_xxzz_decodes_to_one() {
        for (dz, dx) in [(3, 3), (3, 1), (1, 3), (3, 5), (5, 3)] {
            let code = XxzzCode::new(dz, dx).build();
            let dec = MwpmDecoder::new(&code);
            for seed in 0..5 {
                let shot = run_noiseless(&code, seed);
                assert!(dec.defects(&shot).is_empty(), "({dz},{dx}) defects");
                assert!(dec.decode(&shot), "({dz},{dx}) seed={seed}");
            }
        }
    }

    #[test]
    fn noiseless_phase_flip_repetition_decodes_to_one() {
        let code = RepetitionCode::phase_flip(5).build();
        let dec = MwpmDecoder::new(&code);
        for seed in 0..5 {
            let shot = run_noiseless(&code, seed);
            assert!(dec.decode(&shot), "seed={seed}");
        }
    }

    /// Inject a single X error on a data qubit between the rounds and check
    /// the decoder corrects it for every position.
    fn single_data_error_corrected(code: &CodeCircuit, data: u32) -> bool {
        // Rebuild the circuit with an X error right after the logical op.
        let mut broken = Circuit::new(code.circuit.num_qubits(), code.circuit.num_clbits());
        let mut barriers = 0;
        for g in code.circuit.ops() {
            broken.push(*g);
            if matches!(g, radqec_circuit::Gate::Barrier) {
                barriers += 1;
                if barriers == 2 {
                    broken.x(data); // fault after the logical X layer
                }
            }
        }
        let dec = MwpmDecoder::new(code);
        let mut backend = StabilizerBackend::new(code.total_qubits());
        let mut rng = StdRng::seed_from_u64(17);
        let shot = execute(&broken, &mut backend, &mut rng);
        dec.decode(&shot)
    }

    #[test]
    fn repetition_corrects_any_single_data_flip() {
        let code = RepetitionCode::bit_flip(5).build();
        for d in 0..5 {
            assert!(single_data_error_corrected(&code, d), "uncorrected flip on data {d}");
        }
    }

    #[test]
    fn xxzz_corrects_any_single_data_flip() {
        let code = XxzzCode::new(3, 3).build();
        for d in 0..9 {
            assert!(single_data_error_corrected(&code, d), "uncorrected flip on data {d}");
        }
    }

    #[test]
    fn xxzz_5x5_corrects_any_single_data_flip() {
        let code = XxzzCode::new(5, 5).build();
        for d in 0..25 {
            assert!(single_data_error_corrected(&code, d), "uncorrected flip on data {d}");
        }
    }

    #[test]
    fn match_weights_are_the_perturbed_pair_and_boundary_weights() {
        use crate::decoder::DecoderMask;
        let (rep5, xxzz33) = (RepetitionCode::bit_flip(5).build(), XxzzCode::new(3, 3).build());
        let supports: Vec<Vec<u32>> =
            rep5.primary_stabilizers().iter().map(|s| s.support.clone()).collect();
        let window = DetectorGraph::space_time(
            &rep5.data_qubits,
            &supports,
            &rep5.logical_readout_support,
            6,
        );
        let mask =
            DecoderMask::from_probs(vec![1.0, 0.3, 0.0, 0.05, 0.7], vec![0.0, 0.9, 0.2, 0.0]);
        let xxzz_mask = DecoderMask::from_probs(
            (0..9).map(|d| [0.0, 0.4, 1.0][d % 3]).collect(),
            vec![0.6, 0.0, 0.0, 0.15],
        );
        let graphs = [
            DetectorGraph::new(&rep5),
            DetectorGraph::new(&xxzz33),
            DetectorGraph::new(&XxzzCode::new(5, 5).build()),
            mask.reweight(&window),
            mask.reweight(&DetectorGraph::new(&rep5)),
            xxzz_mask.reweight(&DetectorGraph::new(&xxzz33)),
            window,
        ];
        for (k, g) in graphs.iter().enumerate() {
            for a in 0..g.boundary() {
                assert_eq!(g.match_weight(a, a), boundary_weight(g, a), "graph {k}: boundary {a}");
                for b in (0..g.boundary()).filter(|&b| b != a) {
                    assert_eq!(g.match_weight(a, b), pair_weight(g, a, b), "graph {k}: {a}-{b}");
                }
            }
        }
    }

    #[test]
    fn defect_extraction_pairs_layers() {
        // Craft a synthetic shot: stab 1 fired in round 1 and round 2 ->
        // defect only at layer 0 (the round-2 detector is the XOR).
        let code = RepetitionCode::bit_flip(5).build();
        let dec = MwpmDecoder::new(&code);
        let mut shot = ShotRecord::new(code.circuit.num_clbits());
        shot.set(code.stabilizers[1].cbit_round1, true);
        shot.set(code.stabilizers[1].cbit_round2, true);
        let defects = dec.defects(&shot);
        assert_eq!(defects, vec![dec.graph().node(1, 0)]);
        // Fired only in round 2 -> defect at layer 1.
        let mut shot2 = ShotRecord::new(code.circuit.num_clbits());
        shot2.set(code.stabilizers[1].cbit_round2, true);
        assert_eq!(dec.defects(&shot2), vec![dec.graph().node(1, 1)]);
    }

    #[test]
    fn interior_defect_pair_leaves_readout_alone() {
        // Stabs 1 and 2 fire in both rounds => inferred X error on shared
        // data qubit 2, which is outside the readout chain {data 0}: the
        // raw readout must pass through unflipped.
        let code = RepetitionCode::bit_flip(5).build();
        let dec = MwpmDecoder::new(&code);
        let mut shot = ShotRecord::new(code.circuit.num_clbits());
        for s in [1, 2] {
            shot.set(code.stabilizers[s].cbit_round1, true);
            shot.set(code.stabilizers[s].cbit_round2, true);
        }
        shot.set(code.readout_cbit, true); // raw parity untouched by the error
        assert!(dec.decode(&shot), "correction must not flip the readout");
    }

    #[test]
    fn boundary_defect_flips_readout() {
        // Stab 0 fires in both rounds => inferred X error on data 0 (the
        // readout chain): the corrupted raw readout 0 must be flipped to 1.
        let code = RepetitionCode::bit_flip(5).build();
        let dec = MwpmDecoder::new(&code);
        let mut shot = ShotRecord::new(code.circuit.num_clbits());
        shot.set(code.stabilizers[0].cbit_round1, true);
        shot.set(code.stabilizers[0].cbit_round2, true);
        shot.set(code.readout_cbit, false); // data 0 flip corrupted the parity
        assert!(dec.decode(&shot), "boundary correction must restore logical 1");
    }
}
