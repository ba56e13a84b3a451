//! The XXZZ rotated surface code (paper Sec. IV-B, Fig. 1).
//!
//! A CSS rotated surface code over a `d_Z × d_X` data-qubit grid (this is
//! the code qtcodes calls "XXZZ", after its two stabilizer families; the
//! paper notes it is "virtually identical to the XZZX code, only varying in
//! terms of Pauli string generators"). Total qubits: `2·d_Z·d_X` — data
//! qubits plus `d_Z·d_X − 1` plaquette ancillas plus one readout ancilla.
//!
//! Geometry: data qubit `(r, c)` at index `r·d_X + c`; plaquette faces sit
//! between 2×2 blocks of data qubits, checkerboard-coloured, with weight-2
//! boundary faces of X type on the top/bottom rows and Z type on the
//! left/right columns. The logical X̄ is a vertical X-chain (column 0,
//! weight `d_Z` — the paper's transversal X column in Fig. 1) and the
//! logical Z̄ a horizontal Z-chain (row 0, weight `d_X`) measured by the
//! readout ancilla.

use super::{
    assemble, assemble_memory, assemble_memory_readout, Basis, CodeCircuit, CodeLayout,
    MemoryCircuit, StabKind,
};
use radqec_topology::{generators::mesh, Topology};

/// One stabilizer face: `(kind, data-qubit support, (fr, fc) face coordinate)`.
type Plaquette = (StabKind, Vec<u32>, (i64, i64));

/// A parameterised XXZZ rotated surface code with distances `(d_Z, d_X)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct XxzzCode {
    /// Bit-flip distance (rows of the data grid).
    pub dz: u32,
    /// Phase-flip distance (columns of the data grid).
    pub dx: u32,
}

impl XxzzCode {
    /// Create a `(d_Z, d_X)` code.
    ///
    /// # Panics
    /// Panics unless both distances are odd and ≥ 1, and at least one is ≥ 3.
    pub fn new(dz: u32, dx: u32) -> Self {
        assert!(dz % 2 == 1 && dx % 2 == 1, "distances must be odd, got ({dz},{dx})");
        assert!(dz >= 1 && dx >= 1 && dz * dx >= 3, "code too small: ({dz},{dx})");
        XxzzCode { dz, dx }
    }

    /// Stabilizer supports as `(kind, data-qubit indices)` plus the face
    /// coordinate `(fr, fc)` (top-left corner; `(−1, −1)` for the
    /// degenerate line codes, whose edges have no face geometry), primary
    /// (Z) first.
    fn plaquettes(&self) -> (Vec<Plaquette>, usize) {
        let (rows, cols) = (self.dz as i64, self.dx as i64);
        let at = |r: i64, c: i64| -> u32 { (r * cols + c) as u32 };
        let mut z_faces: Vec<(Vec<u32>, (i64, i64))> = Vec::new();
        let mut x_faces: Vec<(Vec<u32>, (i64, i64))> = Vec::new();

        if rows == 1 || cols == 1 {
            // Degenerate line code: (L−1)/2 edges each carry a ZZ *and* an
            // XX check (they commute on two shared qubits), leaving the last
            // qubit unchecked. This keeps the paper's stated m_Z = m_X =
            // (d_Z·d_X − 1)/2 split — adjacent alternating ZZ/XX pairs would
            // anticommute and cannot form a stabilizer group.
            let len = rows * cols;
            let mut i = 0;
            while i + 1 < len {
                z_faces.push((vec![i as u32, (i + 1) as u32], (-1, -1)));
                x_faces.push((vec![i as u32, (i + 1) as u32], (-1, -1)));
                i += 2;
            }
        } else {
            // Full rotated lattice. Faces indexed by their top-left corner
            // (fr, fc) ∈ [−1, rows−1] × [−1, cols−1].
            for fr in -1..rows {
                for fc in -1..cols {
                    let corners = [(fr, fc), (fr, fc + 1), (fr + 1, fc), (fr + 1, fc + 1)];
                    let support: Vec<u32> = corners
                        .iter()
                        .filter(|&&(r, c)| r >= 0 && r < rows && c >= 0 && c < cols)
                        .map(|&(r, c)| at(r, c))
                        .collect();
                    if support.len() < 2 {
                        continue; // corner stubs carry no check
                    }
                    let interior = fr >= 0 && fr < rows - 1 && fc >= 0 && fc < cols - 1;
                    let top_bottom = (fr == -1 || fr == rows - 1) && fc >= 0 && fc < cols - 1;
                    let left_right = (fc == -1 || fc == cols - 1) && fr >= 0 && fr < rows - 1;
                    let is_z = (fr + fc).rem_euclid(2) == 0;
                    // Checkerboard colouring; boundary faces only exist on
                    // the side matching their type (X on top/bottom, Z on
                    // left/right) so the logical operators terminate there.
                    let include = interior || (top_bottom && !is_z) || (left_right && is_z);
                    if include {
                        if is_z {
                            z_faces.push((support, (fr, fc)));
                        } else {
                            x_faces.push((support, (fr, fc)));
                        }
                    }
                }
            }
        }
        let primary = z_faces.len();
        let mut stabs: Vec<Plaquette> =
            z_faces.into_iter().map(|(s, f)| (StabKind::Z, s, f)).collect();
        stabs.extend(x_faces.into_iter().map(|(s, f)| (StabKind::X, s, f)));
        (stabs, primary)
    }

    fn logical_supports(&self) -> (Vec<u32>, Vec<u32>) {
        let (rows, cols) = (self.dz, self.dx);
        if cols == 1 {
            // Vertical line: X̄ = X^⊗rows; Z̄ = Z on the unchecked last
            // qubit (any Z inside a Bell-pair edge would anticommute with
            // that edge's XX check).
            ((0..rows).collect(), vec![rows - 1])
        } else if rows == 1 {
            // Horizontal line: X̄ = X on the unchecked last qubit,
            // Z̄ = Z^⊗cols.
            (vec![cols - 1], (0..cols).collect())
        } else {
            // X̄: vertical X-chain down column 0; Z̄: horizontal Z-chain
            // along row 0.
            ((0..rows).map(|r| r * cols).collect(), (0..cols).collect())
        }
    }

    fn layout(&self) -> CodeLayout {
        let (stabs, primary_count) = self.plaquettes();
        let (logical_op_support, logical_readout_support) = self.logical_supports();
        CodeLayout {
            name: self.name(),
            n_data: self.dz * self.dx,
            stabs: stabs.into_iter().map(|(k, s, _)| (k, s)).collect(),
            primary_count,
            logical_op_support,
            logical_readout_support,
            readout_basis: Basis::Z,
            distance: (self.dz, self.dx),
            init_plus: false,
        }
    }

    /// The code's *native* device embedding, for the memory/streaming
    /// workload: the rotated lattice drawn at 45° on a
    /// `(d_Z+d_X−1)²` mesh — data qubit `(r, c)` at mesh cell
    /// `(r+c, c−r+d_Z−1)` and each plaquette ancilla at its face's centre
    /// cell, which is mesh-adjacent to all of the face's corners. Every
    /// stabilizer CX then runs on a device edge and routing inserts **no
    /// SWAPs** — the layout real superconducting surface-code deployments
    /// use, and the host on which a strike's spatial footprint stays sharp
    /// (the fitted 5×k mesh needs hundreds of SWAPs per round, smearing it).
    ///
    /// Returns `(topology, logical→physical table)` covering the memory
    /// circuit's register (data block then ancillas, in stabilizer order);
    /// `None` for the degenerate line codes, whose paired ZZ/XX edges have
    /// no face geometry.
    pub fn native_embedding(&self) -> Option<(Topology, Vec<u32>)> {
        if self.dz == 1 || self.dx == 1 {
            return None;
        }
        let side = (self.dz + self.dx - 1) as i64;
        // Doubled coordinates so data corners (integral) and face centres
        // (half-integral) share one map.
        let cell = |x2: i64, y2: i64| -> u32 {
            let row = (x2 + y2) / 2;
            let col = (y2 - x2) / 2 + self.dz as i64 - 1;
            debug_assert!((0..side).contains(&row) && (0..side).contains(&col));
            (row * side + col) as u32
        };
        let mut l2p = Vec::with_capacity(2 * (self.dz * self.dx) as usize - 1);
        for r in 0..self.dz as i64 {
            for c in 0..self.dx as i64 {
                l2p.push(cell(2 * r, 2 * c));
            }
        }
        let (stabs, _) = self.plaquettes();
        for (_, _, (fr, fc)) in stabs {
            l2p.push(cell(2 * fr + 1, 2 * fc + 1));
        }
        Some((mesh(side as u32, side as u32), l2p))
    }

    /// Build the full experiment circuit and its decoding structure.
    pub fn build(&self) -> CodeCircuit {
        assemble(self.layout())
    }

    /// Build the `rounds`-round memory experiment (syndrome streaming; see
    /// [`MemoryCircuit`]).
    pub fn build_memory(&self, rounds: usize) -> MemoryCircuit {
        assemble_memory(self.layout(), rounds)
    }

    /// Build the `rounds`-round memory experiment with a final transversal
    /// data readout (see [`MemoryReadout`](super::MemoryReadout)) — the
    /// space-time decoding workload, where each replica's full history is
    /// scored against its true logical frame.
    pub fn build_memory_readout(&self, rounds: usize) -> MemoryCircuit {
        assemble_memory_readout(self.layout(), rounds)
    }

    /// Short name (used in experiment tables).
    pub fn name(&self) -> String {
        format!("xxzz-({},{})", self.dz, self.dx)
    }

    /// Total qubits the built circuit will use.
    pub fn total_qubits(&self) -> u32 {
        2 * self.dz * self.dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_3_3_matches_paper_figure1() {
        // Fig. 1: 9 data, 4 mz, 4 mx, 1 ancilla = 18 qubits; cregs 8+8+1.
        let code = XxzzCode::new(3, 3).build();
        assert_eq!(code.total_qubits(), 18);
        assert_eq!(code.data_qubits.len(), 9);
        assert_eq!(code.primary_count, 4);
        assert_eq!(code.num_stabilizers(), 8);
        assert_eq!(code.circuit.num_clbits(), 17);
        // 3 X gates for the logical column, 4 mx ancillas × 2 H per round × 2 rounds
        assert_eq!(code.circuit.count_by_name("x"), 3);
        assert_eq!(code.circuit.count_by_name("h"), 16);
        code.validate().unwrap();
    }

    #[test]
    fn stabilizer_count_is_data_minus_one() {
        for (dz, dx) in [(3, 3), (3, 5), (5, 3), (5, 5), (3, 1), (1, 3), (5, 1), (1, 5)] {
            let code = XxzzCode::new(dz, dx).build();
            assert_eq!(code.num_stabilizers() as u32, dz * dx - 1, "({dz},{dx})");
            assert_eq!(code.total_qubits(), 2 * dz * dx, "({dz},{dx})");
            code.validate().unwrap();
        }
    }

    #[test]
    fn asymmetric_codes_have_asymmetric_z_counts() {
        // (5,3) must devote more checks to bit flips than (3,5): that is the
        // paper's Observation IV mechanism.
        let z53 = XxzzCode::new(5, 3).build().primary_count;
        let z35 = XxzzCode::new(3, 5).build().primary_count;
        assert!(z53 > z35, "z-stabs (5,3)={z53} vs (3,5)={z35}");
    }

    #[test]
    fn line_codes_match_paper_sizes() {
        // Fig. 6b: (3,1) and (1,3) have circuit size 6.
        assert_eq!(XxzzCode::new(3, 1).build().total_qubits(), 6);
        assert_eq!(XxzzCode::new(1, 3).build().total_qubits(), 6);
        // (3,5)/(5,3): 30 qubits.
        assert_eq!(XxzzCode::new(3, 5).build().total_qubits(), 30);
    }

    #[test]
    fn line_code_logical_structure() {
        let c31 = XxzzCode::new(3, 1).build();
        assert_eq!(c31.logical_op_support, vec![0, 1, 2]);
        assert_eq!(c31.logical_readout_support, vec![2]);
        assert_eq!(c31.primary_count, 1); // one ZZ check
        let c13 = XxzzCode::new(1, 3).build();
        assert_eq!(c13.logical_op_support, vec![2]);
        assert_eq!(c13.logical_readout_support, vec![0, 1, 2]);
        assert_eq!(c13.primary_count, 1);
    }

    #[test]
    fn plaquette_weights_are_two_or_four() {
        let code = XxzzCode::new(5, 5).build();
        for s in &code.stabilizers {
            assert!(s.support.len() == 2 || s.support.len() == 4);
        }
        // interior plaquettes exist
        assert!(code.stabilizers.iter().any(|s| s.support.len() == 4));
    }

    #[test]
    fn every_data_qubit_is_covered_by_some_stabilizer_on_square_codes() {
        let code = XxzzCode::new(5, 5).build();
        let mut covered = vec![false; 25];
        for s in &code.stabilizers {
            for &d in &s.support {
                covered[d as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "{covered:?}");
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_distances_rejected() {
        XxzzCode::new(2, 3);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn trivial_code_rejected() {
        XxzzCode::new(1, 1);
    }
}
