//! Aaronson–Gottesman CHP stabilizer tableau, stored qubit-major.
//!
//! The state of `n` qubits is tracked as `2n` Pauli rows: destabilizer `i`
//! and stabilizer `i`, interleaved as rows `2i` and `2i + 1`. Storage is by
//! column: each qubit owns an X column and a Z column of `⌈2n/64⌉` row
//! words (one word up to 32 qubits), and the rows' phase bits form one
//! more packed vector of the same width. A Clifford gate therefore touches
//! only its operands' columns and the phase vector, as a branch-free loop
//! over `⌈2n/64⌉` words; SWAP exchanges two column pairs. A random
//! measurement multiplies the pivot row into every other anticommuting row
//! at once, keeping the mod-4 phase sums in two bit-sliced counter words,
//! for `O(n · ⌈2n/64⌉)` word operations. A deterministic measurement folds
//! the sign of the stabilizer product in registers at the same cost, so
//! CHP's scratch row is never stored. Nothing is allocated per gate or per
//! measurement.
//!
//! All gates in the `radqec` set are Clifford, so this simulator is an
//! *exact* model of every circuit in the paper. Its algebra is CHP's to the
//! bit: the same rows, the lowest-index stabilizer as the pivot of a random
//! measurement and one `next_u32` per random outcome, so states, outcomes
//! and RNG streams match the textbook row-major form exactly
//! (`tests/tableau_bit_identity.rs`).
//!
//! Reference: S. Aaronson and D. Gottesman, "Improved simulation of
//! stabilizer circuits", Phys. Rev. A 70, 052328 (2004). The bit-sliced
//! phase counters below are the row-parallel form of their `rowsum`.

use crate::pauli::PauliString;
use rand::RngCore;

/// Row bits of the destabilizers (even rows) within a row word.
const DESTAB: u64 = 0x5555_5555_5555_5555;
/// Row bits of the stabilizers (odd rows) within a row word.
const STAB: u64 = !DESTAB;

/// Inclusive prefix XOR: bit `k` of the result is the parity of bits
/// `0..=k` of `v`.
#[inline]
fn prefix_xor(mut v: u64) -> u64 {
    v ^= v << 1;
    v ^= v << 2;
    v ^= v << 4;
    v ^= v << 8;
    v ^= v << 16;
    v ^ v << 32
}

/// CHP tableau over `n` qubits.
#[derive(Debug, Clone)]
pub struct Tableau {
    n: usize,
    /// Row words per column: `⌈2n/64⌉`.
    w: usize,
    /// Qubit-major columns: qubit `q`'s X column is words
    /// `2qw .. 2qw + w`, its Z column the `w` words after it. Row `2i` is
    /// destabilizer `i`, row `2i + 1` stabilizer `i`.
    cols: Vec<u64>,
    /// Phase bit per row (`1` = −1), packed like a column.
    rs: Vec<u64>,
}

impl Tableau {
    /// A fresh tableau in the |0…0⟩ state.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "tableau needs at least one qubit");
        let w = (2 * n).div_ceil(64);
        let mut t = Tableau { n, w, cols: vec![0; 2 * n * w], rs: vec![0; w] };
        t.clear();
        t
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Re-initialise to |0…0⟩ without reallocating.
    pub fn clear(&mut self) {
        self.cols.fill(0);
        self.rs.fill(0);
        let w = self.w;
        for q in 0..self.n {
            // Destabilizer q = X_q, stabilizer q = Z_q.
            self.cols[2 * q * w + q / 32] |= 1 << (2 * q % 64);
            self.cols[(2 * q + 1) * w + q / 32] |= 1 << ((2 * q + 1) % 64);
        }
    }

    /// Word `word` of qubit `q`'s X column (`z = false`) or Z column.
    #[inline]
    fn at(&self, q: usize, z: bool, word: usize) -> usize {
        (2 * q + usize::from(z)) * self.w + word
    }

    /// Apply `f(x, z, r)` to every row word of qubit `a`'s columns and the
    /// phase vector.
    #[inline]
    fn single(&mut self, a: usize, f: impl Fn(&mut u64, &mut u64, &mut u64)) {
        let w = self.w;
        let (xs, zs) = self.cols[2 * a * w..2 * (a + 1) * w].split_at_mut(w);
        for ((x, z), r) in xs.iter_mut().zip(zs).zip(&mut self.rs) {
            f(x, z, r);
        }
    }

    /// Apply `f(xa, za, xb, zb, r)` to every row word of qubits `a` and
    /// `b` (distinct) and the phase vector.
    #[inline]
    fn pair(
        &mut self,
        a: usize,
        b: usize,
        f: impl Fn(&mut u64, &mut u64, &mut u64, &mut u64, &mut u64),
    ) {
        let w = self.w;
        let (lo, hi) = (a.min(b), a.max(b));
        let (left, right) = self.cols.split_at_mut(2 * hi * w);
        let (xl, zl) = left[2 * lo * w..2 * (lo + 1) * w].split_at_mut(w);
        let (xh, zh) = right[..2 * w].split_at_mut(w);
        let ((xa, za), (xb, zb)) = if a < b { ((xl, zl), (xh, zh)) } else { ((xh, zh), (xl, zl)) };
        let rows = xa.iter_mut().zip(za).zip(xb.iter_mut().zip(zb)).zip(&mut self.rs);
        for (((xa, za), (xb, zb)), r) in rows {
            f(xa, za, xb, zb, r);
        }
    }

    // --- Clifford gates ----------------------------------------------------------

    /// Hadamard on `a`: swaps X/Z, phase flips on Y.
    pub fn h(&mut self, a: usize) {
        self.single(a, |x, z, r| {
            *r ^= *x & *z;
            std::mem::swap(x, z);
        });
    }

    /// Phase gate S on `a` (X→Y, Z→Z).
    pub fn s(&mut self, a: usize) {
        self.single(a, |x, z, r| {
            *r ^= *x & *z;
            *z ^= *x;
        });
    }

    /// Inverse phase gate S† on `a` (X→−Y, Z→Z).
    pub fn sdg(&mut self, a: usize) {
        self.single(a, |x, z, r| {
            *r ^= *x & !*z;
            *z ^= *x;
        });
    }

    /// Pauli X on `a` (phase flips rows with a Z component).
    pub fn x(&mut self, a: usize) {
        self.single(a, |_, z, r| *r ^= *z);
    }

    /// Pauli Z on `a` (phase flips rows with an X component).
    pub fn z(&mut self, a: usize) {
        self.single(a, |x, _, r| *r ^= *x);
    }

    /// Pauli Y on `a` (phase flips rows with X or Z but not both).
    pub fn y(&mut self, a: usize) {
        self.single(a, |x, z, r| *r ^= *x ^ *z);
    }

    /// CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) {
        assert_ne!(c, t, "cx with control == target");
        self.pair(c, t, |xc, zc, xt, zt, r| {
            *r ^= *xc & *zt & !(*xt ^ *zc);
            *xt ^= *xc;
            *zc ^= *zt;
        });
    }

    /// Controlled-Z on `a`, `b` (symmetric; equal to H(b)·CX(a, b)·H(b)).
    pub fn cz(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "cz with identical qubits");
        self.pair(a, b, |xa, za, xb, zb, r| {
            *r ^= *xa & *xb & (*za ^ *zb);
            *za ^= *xb;
            *zb ^= *xa;
        });
    }

    /// SWAP of qubits `a` and `b` — pure column relabelling, no phases.
    pub fn swap(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "swap with identical qubits");
        self.pair(a, b, |xa, za, xb, zb, _| {
            std::mem::swap(xa, xb);
            std::mem::swap(za, zb);
        });
    }

    // --- measurement -------------------------------------------------------------

    /// The lowest-index stabilizer row with an X component on `a` (it
    /// anticommutes with Z_a), if any.
    fn pivot(&self, a: usize) -> Option<usize> {
        let x = &self.cols[self.at(a, false, 0)..][..self.w];
        x.iter().enumerate().find_map(|(word, &v)| {
            let s = v & STAB;
            (s != 0).then(|| 64 * word + s.trailing_zeros() as usize)
        })
    }

    /// Random outcome: CHP `rowsum(h, p)` into every row `h ≠ p` with an X
    /// component on `a`, all rows of a word at once, then row `p` becomes
    /// its own destabilizer partner and is replaced by ±Z_a.
    fn collapse(&mut self, a: usize, p: usize, rng: &mut dyn RngCore) -> bool {
        let (w, pw, pb) = (self.w, p / 64, p % 64);
        let rp = (self.rs[pw] >> pb & 1).wrapping_neg();
        for word in 0..w {
            let mut m = self.cols[self.at(a, false, word)];
            if word == pw {
                m &= !(1 << pb);
            }
            if m == 0 {
                continue;
            }
            // Per-row mod-4 phase sum, bit-sliced: starts at 2·r_h + 2·r_p.
            let (mut c0, mut c1) = (0u64, self.rs[word] ^ rp);
            for col in self.cols.chunks_exact_mut(2 * w) {
                let (xs, zs) = col.split_at_mut(w);
                let x1 = (xs[pw] >> pb & 1).wrapping_neg();
                let z1 = (zs[pw] >> pb & 1).wrapping_neg();
                if x1 | z1 == 0 {
                    continue;
                }
                // The pivot's factor P1 times each row's factor P2 gains
                // i^±1 where they anticommute; the sign is −1 exactly where
                // x ⊕ z ⊕ x1·z2 of the product P1·P2 is set.
                let (x2, z2) = (xs[word], zs[word]);
                let x1z2 = x1 & z2;
                let anti = x1z2 ^ (z1 & x2);
                c1 ^= anti & (c0 ^ x2 ^ x1 ^ z2 ^ z1 ^ x1z2);
                c0 ^= anti;
                xs[word] = x2 ^ (m & x1);
                zs[word] = z2 ^ (m & z1);
            }
            // Destabilizer rows may sum to an odd exponent, but their phases
            // are never read: keep only the sign bit, as CHP does.
            self.rs[word] = (self.rs[word] & !m) | (c1 & m);
        }
        // Destabilizer partner of `p` (row p − 1, same word) := row p;
        // row p := Z_a with the drawn sign.
        let pair = 3u64 << (pb - 1);
        let shift = |v: u64| (v & !pair) | (v >> pb & 1) << (pb - 1);
        for v in self.cols[pw..].iter_mut().step_by(w) {
            *v = shift(*v);
        }
        let iz = self.at(a, true, pw);
        self.cols[iz] |= 1 << pb;
        let outcome = rng.next_u32() & 1 == 1;
        self.rs[pw] = shift(self.rs[pw]) | u64::from(outcome) << pb;
        outcome
    }

    /// Deterministic outcome: the sign of the product of the stabilizers
    /// whose destabilizer partners have an X component on `a` (that
    /// product is ±Z_a). The rows commute, so the product's phase is
    /// `(−1)^(Σr + Σ_{j<k} z_j·x_k) · i^(#Y)`, summed per qubit over the
    /// rows in index order.
    fn determined(&self, a: usize) -> bool {
        let (w, xa) = (self.w, self.at(a, false, 0));
        let sel = |word: usize| (self.cols[xa + word] & DESTAB) << 1;
        let mut sign = 0u32;
        let mut rows = 0u32;
        for word in 0..w {
            sign ^= (self.rs[word] & sel(word)).count_ones();
            rows += sel(word).count_ones();
        }
        if rows == 1 {
            // A single row is ±Z_a itself.
            return sign & 1 == 1;
        }
        let mut ys = 0u32;
        for col in self.cols.chunks_exact(2 * w) {
            let (xs, zs) = col.split_at(w);
            // Parity of the selected Z factors in earlier words.
            let mut z_before = 0u64;
            for (word, (&x, &z)) in xs.iter().zip(zs).enumerate() {
                let s = sel(word);
                let (x, z) = (x & s, z & s);
                // Only X factors after a Z factor (or Y factors) add phase.
                if x != 0 && z | z_before != 0 {
                    ys += (x & z).count_ones();
                    sign ^= (x & (prefix_xor(z) ^ z ^ z_before)).count_ones();
                }
                z_before ^= (u64::from(z.count_ones()) & 1).wrapping_neg();
            }
        }
        (sign & 1 == 1) ^ (ys & 2 == 2)
    }

    /// Z-basis measurement of qubit `a`, collapsing the state.
    pub fn measure(&mut self, a: usize, rng: &mut dyn RngCore) -> bool {
        match self.pivot(a) {
            Some(p) => self.collapse(a, p, rng),
            None => self.determined(a),
        }
    }

    /// Whether measuring `a` would give a deterministic outcome, and if so
    /// which. Does not collapse the state.
    pub fn peek_z(&mut self, a: usize) -> Option<bool> {
        match self.pivot(a) {
            Some(_) => None,
            None => Some(self.determined(a)),
        }
    }

    /// Whether measuring `a` in the X basis would give a deterministic
    /// outcome (`Some(false)` = |+⟩, `Some(true)` = |−⟩), and if so which.
    /// Does not collapse the state.
    ///
    /// Implemented by conjugating with H (X-basis determinism of the state
    /// is Z-basis determinism of its H-rotated image); the tableau is
    /// restored before returning.
    pub fn peek_x(&mut self, a: usize) -> Option<bool> {
        self.h(a);
        let r = self.peek_z(a);
        self.h(a);
        r
    }

    /// Reset qubit `a` to |0⟩ (measure, then correct).
    pub fn reset(&mut self, a: usize, rng: &mut dyn RngCore) {
        if self.measure(a, rng) {
            self.x(a);
        }
    }

    /// The `i`-th stabilizer generator as a [`PauliString`] (for inspection
    /// and tests).
    pub fn stabilizer(&self, i: usize) -> PauliString {
        assert!(i < self.n, "stabilizer index out of range");
        let (word, bit) = ((2 * i + 1) / 64, (2 * i + 1) % 64);
        let mut p = PauliString::identity(self.n);
        for q in 0..self.n {
            p.set_x(q, self.cols[self.at(q, false, word)] >> bit & 1 == 1);
            p.set_z(q, self.cols[self.at(q, true, word)] >> bit & 1 == 1);
        }
        p.sign = self.rs[word] >> bit & 1 == 1;
        p
    }

    /// Sanity check: stabilizer rows pairwise commute and are independent
    /// of each other via the destabilizer pairing (each destabilizer
    /// anticommutes with its stabilizer only). Used in tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.n {
            for j in 0..self.n {
                let si = self.stabilizer(i);
                let sj = self.stabilizer(j);
                if !si.commutes_with(&sj) {
                    return Err(format!("stabilizers {i} and {j} anticommute"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDECAF)
    }

    #[test]
    fn fresh_state_measures_zero() {
        let mut t = Tableau::new(3);
        let mut r = rng();
        for q in 0..3 {
            assert!(!t.measure(q, &mut r));
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut t = Tableau::new(2);
        let mut r = rng();
        t.x(0);
        assert!(t.measure(0, &mut r));
        assert!(!t.measure(1, &mut r));
    }

    #[test]
    fn hzh_equals_x() {
        let mut t = Tableau::new(1);
        let mut r = rng();
        t.h(0);
        t.z(0);
        t.h(0);
        assert_eq!(t.peek_z(0), Some(true));
        assert!(t.measure(0, &mut r));
    }

    #[test]
    fn hsssh_is_not_x_but_hssh_is() {
        // S^2 = Z, so H S S H = H Z H = X.
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0);
        t.s(0);
        t.h(0);
        assert_eq!(t.peek_z(0), Some(true));
    }

    #[test]
    fn sdg_inverts_s() {
        let mut t = Tableau::new(1);
        t.h(0); // |+>
        t.s(0);
        t.sdg(0);
        t.h(0); // back to |0>
        assert_eq!(t.peek_z(0), Some(false));
    }

    #[test]
    fn y_equals_ixz_up_to_global_phase() {
        let mut t1 = Tableau::new(1);
        t1.y(0);
        let mut t2 = Tableau::new(1);
        t2.z(0);
        t2.x(0);
        // Both give |1> with some global phase
        assert_eq!(t1.peek_z(0), Some(true));
        assert_eq!(t2.peek_z(0), Some(true));
    }

    #[test]
    fn plus_state_is_random_then_stable() {
        let mut t = Tableau::new(1);
        let mut r = rng();
        t.h(0);
        assert_eq!(t.peek_z(0), None);
        let m1 = t.measure(0, &mut r);
        // collapsed: now deterministic and repeatable
        assert_eq!(t.peek_z(0), Some(m1));
        assert_eq!(t.measure(0, &mut r), m1);
    }

    #[test]
    fn plus_state_outcomes_are_roughly_uniform() {
        let mut r = rng();
        let mut ones = 0;
        for _ in 0..2000 {
            let mut t = Tableau::new(1);
            t.h(0);
            if t.measure(0, &mut r) {
                ones += 1;
            }
        }
        assert!((800..1200).contains(&ones), "ones={ones}");
    }

    #[test]
    fn bell_pair_is_correlated() {
        let mut r = rng();
        for _ in 0..200 {
            let mut t = Tableau::new(2);
            t.h(0);
            t.cx(0, 1);
            let a = t.measure(0, &mut r);
            let b = t.measure(1, &mut r);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn ghz_state_is_fully_correlated() {
        let mut r = rng();
        for _ in 0..100 {
            let mut t = Tableau::new(5);
            t.h(0);
            for q in 1..5 {
                t.cx(0, q);
            }
            let m0 = t.measure(0, &mut r);
            for q in 1..5 {
                assert_eq!(t.measure(q, &mut r), m0);
            }
        }
    }

    #[test]
    fn cz_phase_kickback() {
        // CZ between |+>|1> flips the first qubit's phase: H CZ(0,1) with q1=|1>
        // sends |+> to |->, so a final H gives |1>.
        let mut t = Tableau::new(2);
        t.x(1);
        t.h(0);
        t.cz(0, 1);
        t.h(0);
        assert_eq!(t.peek_z(0), Some(true));
        assert_eq!(t.peek_z(1), Some(true));
    }

    #[test]
    fn swap_moves_state() {
        let mut t = Tableau::new(2);
        t.x(0);
        t.swap(0, 1);
        assert_eq!(t.peek_z(0), Some(false));
        assert_eq!(t.peek_z(1), Some(true));
    }

    #[test]
    fn swap_equals_three_cx() {
        let mut a = Tableau::new(2);
        a.h(0);
        a.s(1);
        a.swap(0, 1);
        let mut b = Tableau::new(2);
        b.h(0);
        b.s(1);
        b.cx(0, 1);
        b.cx(1, 0);
        b.cx(0, 1);
        for i in 0..2 {
            assert_eq!(a.stabilizer(i).to_string(), b.stabilizer(i).to_string());
        }
    }

    #[test]
    fn reset_forces_zero() {
        let mut r = rng();
        for _ in 0..50 {
            let mut t = Tableau::new(2);
            t.h(0);
            t.cx(0, 1);
            t.reset(0, &mut r);
            assert_eq!(t.peek_z(0), Some(false));
        }
    }

    #[test]
    fn reset_breaks_entanglement_partner_random() {
        let mut r = rng();
        let mut ones = 0;
        for _ in 0..1000 {
            let mut t = Tableau::new(2);
            t.h(0);
            t.cx(0, 1);
            t.reset(0, &mut r);
            if t.measure(1, &mut r) {
                ones += 1;
            }
        }
        // Partner of a measured-and-reset Bell qubit is classical 0/1 uniform.
        assert!((350..650).contains(&ones), "ones={ones}");
    }

    #[test]
    fn stabilizers_commute_after_random_circuit() {
        let mut t = Tableau::new(6);
        let mut r = rng();
        for step in 0..200 {
            match step % 5 {
                0 => t.h(step % 6),
                1 => t.s((step + 1) % 6),
                2 => t.cx(step % 6, (step + 3) % 6),
                3 => t.x((step + 2) % 6),
                _ => {
                    t.measure(step % 6, &mut r);
                }
            }
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn clear_restores_fresh_state() {
        let mut t = Tableau::new(3);
        let mut r = rng();
        t.h(0);
        t.cx(0, 1);
        t.x(2);
        t.clear();
        for q in 0..3 {
            assert_eq!(t.peek_z(q), Some(false), "qubit {q}");
        }
        assert!(!t.measure(0, &mut r));
    }

    #[test]
    fn initial_stabilizers_are_single_z() {
        let t = Tableau::new(3);
        assert_eq!(t.stabilizer(0).to_string(), "+ZII");
        assert_eq!(t.stabilizer(1).to_string(), "+IZI");
        assert_eq!(t.stabilizer(2).to_string(), "+IIZ");
    }

    #[test]
    fn works_across_word_boundaries() {
        // 70 qubits: exercise the second u64 word.
        let mut t = Tableau::new(70);
        let mut r = rng();
        t.h(65);
        t.cx(65, 3);
        let a = t.measure(65, &mut r);
        let b = t.measure(3, &mut r);
        assert_eq!(a, b);
        t.x(69);
        assert!(t.measure(69, &mut r));
    }
}
