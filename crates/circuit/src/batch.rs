//! Shot-major batched classical records.
//!
//! [`ShotBatch`] is the bit-packed, many-shot counterpart of
//! [`ShotRecord`](crate::ShotRecord): one `u64` bit-plane row per classical
//! bit, with shot `s` living at bit `s % 64` of word `s / 64`. Batch
//! executors (the Pauli-frame sampler in `radqec-noise`) fill whole rows
//! with single word operations; decoders either extract per-shot records or
//! read the rows directly.

use crate::backend::ShotRecord;
use crate::gate::Clbit;

/// Bit-packed classical records for a batch of shots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShotBatch {
    num_clbits: u32,
    shots: usize,
    /// Words per clbit row: `shots.div_ceil(64)`.
    words: usize,
    /// Clbit-major bit planes, `num_clbits` rows of `words` words.
    bits: Vec<u64>,
}

impl ShotBatch {
    /// All-zero batch of `shots` records with `num_clbits` classical bits.
    pub fn new(num_clbits: u32, shots: usize) -> Self {
        assert!(shots > 0, "batch needs at least one shot");
        let words = shots.div_ceil(64);
        ShotBatch { num_clbits, shots, words, bits: vec![0; num_clbits as usize * words] }
    }

    /// The batch holding `records` in order (shot `s` is `records[s]`),
    /// one clbit row per record bit.
    ///
    /// # Panics
    /// Panics on an empty slice or records of differing widths.
    pub fn from_records(records: &[ShotRecord]) -> Self {
        let num_clbits = records.first().map_or(0, ShotRecord::len) as u32;
        let mut batch = ShotBatch::new(num_clbits, records.len());
        for (shot, record) in records.iter().enumerate() {
            assert_eq!(record.len(), num_clbits as usize, "record width mismatch");
            for (c, _) in record.bits().iter().enumerate().filter(|(_, &b)| b) {
                batch.flip(c as Clbit, shot);
            }
        }
        batch
    }

    /// Re-shape this batch in place to an all-zero `(num_clbits, shots)`
    /// grid, recycling the word buffer (workspace pooling). Returns
    /// whether the existing buffer was large enough to avoid
    /// reallocating.
    pub fn reset(&mut self, num_clbits: u32, shots: usize) -> bool {
        assert!(shots > 0, "batch needs at least one shot");
        let words = shots.div_ceil(64);
        let reused = self.bits.capacity() >= num_clbits as usize * words;
        self.num_clbits = num_clbits;
        self.shots = shots;
        self.words = words;
        self.bits.clear();
        self.bits.resize(num_clbits as usize * words, 0);
        reused
    }

    /// Number of classical bits per shot.
    #[inline]
    pub fn num_clbits(&self) -> u32 {
        self.num_clbits
    }

    /// Number of shots in the batch.
    #[inline]
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Words per clbit row.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Mask selecting the valid shot bits of the last word of a row.
    #[inline]
    pub fn tail_mask(&self) -> u64 {
        let rem = self.shots % 64;
        if rem == 0 {
            !0
        } else {
            (1u64 << rem) - 1
        }
    }

    #[inline]
    fn row_range(&self, cbit: Clbit) -> std::ops::Range<usize> {
        let base = cbit as usize * self.words;
        base..base + self.words
    }

    /// The bit-plane row of classical bit `cbit`.
    #[inline]
    pub fn row(&self, cbit: Clbit) -> &[u64] {
        &self.bits[self.row_range(cbit)]
    }

    /// Overwrite `cbit`'s row with `base XOR flips`: every shot gets the
    /// reference value `base`, flipped where `flips` has a 1 bit.
    ///
    /// Bits beyond the batch's shot count are kept zero.
    pub fn set_row(&mut self, cbit: Clbit, base: bool, flips: &[u64]) {
        assert_eq!(flips.len(), self.words, "flip plane has wrong width");
        let tail = self.tail_mask();
        let range = self.row_range(cbit);
        let broadcast = if base { !0u64 } else { 0 };
        for (i, (dst, &f)) in self.bits[range].iter_mut().zip(flips).enumerate() {
            let mut v = broadcast ^ f;
            if i + 1 == self.words {
                v &= tail;
            }
            *dst = v;
        }
    }

    /// XOR `flips` into `cbit`'s row (classical measurement-flip noise).
    pub fn xor_row(&mut self, cbit: Clbit, flips: &[u64]) {
        assert_eq!(flips.len(), self.words, "flip plane has wrong width");
        let tail = self.tail_mask();
        let range = self.row_range(cbit);
        for (i, (dst, &f)) in self.bits[range].iter_mut().zip(flips).enumerate() {
            let mut v = f;
            if i + 1 == self.words {
                v &= tail;
            }
            *dst ^= v;
        }
    }

    /// Flip classical bit `cbit` of a single shot.
    #[inline]
    pub fn flip(&mut self, cbit: Clbit, shot: usize) {
        debug_assert!(shot < self.shots);
        let base = cbit as usize * self.words;
        self.bits[base + shot / 64] ^= 1u64 << (shot % 64);
    }

    /// Value of classical bit `cbit` in shot `shot`.
    #[inline]
    pub fn get(&self, cbit: Clbit, shot: usize) -> bool {
        debug_assert!(shot < self.shots);
        let base = cbit as usize * self.words;
        self.bits[base + shot / 64] >> (shot % 64) & 1 == 1
    }

    /// Copy shot `shot` into an existing [`ShotRecord`] (reusing its
    /// allocation; the record must have the batch's clbit count).
    pub fn fill_record(&self, shot: usize, record: &mut ShotRecord) {
        assert_eq!(record.len(), self.num_clbits as usize, "record width mismatch");
        for c in 0..self.num_clbits {
            record.set(c, self.get(c, shot));
        }
    }

    /// Extract shot `shot` as a fresh [`ShotRecord`].
    pub fn record(&self, shot: usize) -> ShotRecord {
        let mut r = ShotRecord::new(self.num_clbits);
        self.fill_record(shot, &mut r);
        r
    }

    /// Write the word-wise XOR of rows `a` and `b` into `out` — the
    /// detection-event bit-plane of two consecutive syndrome rounds, one
    /// word operation per 64 shots (`radqec-detect` builds its event
    /// streams from this).
    pub fn xor_of_rows(&self, a: Clbit, b: Clbit, out: &mut [u64]) {
        assert_eq!(out.len(), self.words, "output plane has wrong width");
        let ra = self.row_range(a);
        let rb = self.row_range(b);
        for (i, dst) in out.iter_mut().enumerate() {
            *dst = self.bits[ra.start + i] ^ self.bits[rb.start + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_row_broadcasts_and_flips() {
        let mut b = ShotBatch::new(2, 70);
        let mut flips = vec![0u64; 2];
        flips[0] = 0b1010;
        b.set_row(0, true, &flips);
        assert!(b.get(0, 0));
        assert!(!b.get(0, 1)); // flipped
        assert!(b.get(0, 2));
        assert!(!b.get(0, 3)); // flipped
        assert!(b.get(0, 69));
        // untouched row stays zero
        assert!(!b.get(1, 5));
    }

    #[test]
    fn tail_bits_stay_zero() {
        let mut b = ShotBatch::new(1, 10);
        b.set_row(0, true, &[0u64; 1]);
        assert_eq!(b.row(0)[0], (1u64 << 10) - 1);
        b.xor_row(0, &[!0u64]);
        assert_eq!(b.row(0)[0], 0);
    }

    #[test]
    fn record_extraction_roundtrips() {
        let mut b = ShotBatch::new(3, 5);
        b.flip(0, 1);
        b.flip(2, 1);
        b.flip(1, 4);
        let r = b.record(1);
        assert!(r.get(0) && !r.get(1) && r.get(2));
        let mut reuse = ShotRecord::new(3);
        b.fill_record(4, &mut reuse);
        assert_eq!(reuse, b.record(4));
    }

    #[test]
    fn from_records_roundtrips_through_record() {
        let records: Vec<ShotRecord> = (0..70u32)
            .map(|shot| {
                let mut r = ShotRecord::new(3);
                for c in 0..3 {
                    r.set(c, (shot * 7 + c * 3) % 5 < 2);
                }
                r
            })
            .collect();
        let batch = ShotBatch::from_records(&records);
        assert_eq!((batch.num_clbits(), batch.shots()), (3, 70));
        for (shot, r) in records.iter().enumerate() {
            assert_eq!(&batch.record(shot), r, "shot {shot}");
        }
        assert_eq!(ShotBatch::from_records(&[batch.record(69)]).record(0), records[69]);
    }

    #[test]
    fn xor_of_rows_matches_per_shot_xor() {
        let mut b = ShotBatch::new(2, 70);
        for s in [0usize, 3, 63, 64, 69] {
            b.flip(0, s);
        }
        for s in [3usize, 5, 64] {
            b.flip(1, s);
        }
        let mut plane = vec![0u64; b.words()];
        b.xor_of_rows(0, 1, &mut plane);
        for s in 0..70 {
            let want = b.get(0, s) ^ b.get(1, s);
            assert_eq!(plane[s / 64] >> (s % 64) & 1 == 1, want, "shot {s}");
        }
    }

    #[test]
    fn xor_row_accumulates() {
        let mut b = ShotBatch::new(1, 64);
        b.xor_row(0, &[0xFF]);
        b.xor_row(0, &[0x0F]);
        assert_eq!(b.row(0)[0], 0xF0);
    }

    #[test]
    #[should_panic(expected = "at least one shot")]
    fn zero_shots_rejected() {
        ShotBatch::new(1, 0);
    }
}
