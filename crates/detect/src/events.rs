//! Detection-event extraction: from bit-packed multi-round syndrome
//! records to per-round event bit-planes, 64 shots per word operation.

use radqec_circuit::ShotBatch;

/// Static description of a syndrome stream's classical layout — everything
/// extraction and localization need to know about the producing circuit.
///
/// The producer (the streaming engine in `radqec-core`) guarantees that
/// stabilizer `i`'s round-`r` outcome occupies classical bit
/// `r · num_stabs + i` of each record.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Number of stabilisation rounds `R` per shot.
    pub rounds: usize,
    /// Number of stabilizer generators measured per round.
    pub num_stabs: usize,
    /// Whether stabilizer `i`'s round-0 outcome is deterministic on the
    /// initial state (so round 0 gets a detection event for it; other
    /// stabilizers' streams start at round 1).
    pub first_round_deterministic: Vec<bool>,
    /// Physical qubit measured for (round `r`, stabilizer `i`), flattened
    /// as `r · num_stabs + i` — ancillas can migrate between rounds when
    /// routing SWAPs through them, so the position is per round.
    pub ancilla_physical: Vec<u32>,
}

impl StreamSpec {
    /// Classical bit of stabilizer `stab`'s round-`round` outcome.
    #[inline]
    pub fn cbit(&self, round: usize, stab: usize) -> u32 {
        debug_assert!(round < self.rounds && stab < self.num_stabs);
        (round * self.num_stabs + stab) as u32
    }
}

/// Per-round detection-event bit-planes for a batch of streamed shots.
///
/// Plane `(r, i)` holds one bit per shot: did stabilizer `i`'s syndrome
/// *change* at round `r`? (`r = 0` compares against the deterministic
/// initial value where one exists, else the plane is all zero.)
#[derive(Debug, Clone)]
pub struct EventStream {
    rounds: usize,
    num_stabs: usize,
    shots: usize,
    words: usize,
    /// Plane `(r, i)` at `[(r·num_stabs + i)·words ..][..words]`.
    planes: Vec<u64>,
}

impl EventStream {
    /// Extract the event planes from a streamed batch — word-parallel: one
    /// XOR per 64 shots per (round, stabilizer) pair, via
    /// [`ShotBatch::xor_of_rows`].
    ///
    /// # Panics
    /// Panics when `batch` has fewer classical bits than the spec's
    /// `rounds × num_stabs` grid.
    pub fn extract(batch: &ShotBatch, spec: &StreamSpec) -> Self {
        assert!(
            batch.num_clbits() as usize >= spec.rounds * spec.num_stabs,
            "batch too narrow for {}x{} stream",
            spec.rounds,
            spec.num_stabs
        );
        let words = batch.words();
        let mut planes = vec![0u64; spec.rounds * spec.num_stabs * words];
        for i in 0..spec.num_stabs {
            if spec.first_round_deterministic[i] {
                // Round 0 detects any deviation from the deterministic
                // initial syndrome 0: the event plane is the syndrome row.
                planes[i * words..(i + 1) * words].copy_from_slice(batch.row(spec.cbit(0, i)));
            }
            for r in 1..spec.rounds {
                let base = (r * spec.num_stabs + i) * words;
                batch.xor_of_rows(
                    spec.cbit(r, i),
                    spec.cbit(r - 1, i),
                    &mut planes[base..base + words],
                );
            }
        }
        EventStream {
            rounds: spec.rounds,
            num_stabs: spec.num_stabs,
            shots: batch.shots(),
            words,
            planes,
        }
    }

    /// Number of rounds.
    #[inline]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of stabilizers.
    #[inline]
    pub fn num_stabs(&self) -> usize {
        self.num_stabs
    }

    /// Number of shots.
    #[inline]
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// The bit-plane of (round, stab): one bit per shot.
    #[inline]
    pub fn plane(&self, round: usize, stab: usize) -> &[u64] {
        let base = (round * self.num_stabs + stab) * self.words;
        &self.planes[base..base + self.words]
    }

    /// Did stabilizer `stab` produce a detection event at `round` in shot
    /// `shot`?
    #[inline]
    pub fn event(&self, round: usize, stab: usize, shot: usize) -> bool {
        debug_assert!(shot < self.shots);
        self.plane(round, stab)[shot / 64] >> (shot % 64) & 1 == 1
    }

    /// Per-round total event counts of one shot, written into `out`
    /// (resized to `rounds`) — the input every [`OnlineDetector`] consumes.
    ///
    /// [`OnlineDetector`]: crate::OnlineDetector
    pub fn round_counts(&self, shot: usize, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.rounds, 0);
        let (w, b) = (shot / 64, shot % 64);
        for (r, slot) in out.iter_mut().enumerate() {
            let mut count = 0u32;
            for i in 0..self.num_stabs {
                count += (self.plane(r, i)[w] >> b & 1) as u32;
            }
            *slot = count;
        }
    }

    /// Per-shot event counts of **one** round, written into `out`
    /// (resized to `shots`) — the incremental counterpart of
    /// [`Self::round_counts`], used by decode-as-you-stream consumers to
    /// advance their per-shot detector states the moment a round lands.
    pub fn round_shot_counts(&self, round: usize, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.shots, 0);
        for i in 0..self.num_stabs {
            for (w, &word) in self.plane(round, i).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    out[w * 64 + b] += 1;
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Detection events of one round, summed over stabilizers and shots
    /// (popcount of the round's planes) — the per-round count the fleet's
    /// spike gate and the stream decoder's detector consume.
    pub fn round_total(&self, round: usize) -> u64 {
        let base = round * self.num_stabs * self.words;
        let planes = &self.planes[base..base + self.num_stabs * self.words];
        planes.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Total detection events across the whole stream (popcount of every
    /// plane) — a cheap aggregate for rate monitoring and tests.
    pub fn total_events(&self) -> u64 {
        self.planes.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

impl PartialEq for EventStream {
    fn eq(&self, other: &Self) -> bool {
        self.rounds == other.rounds
            && self.num_stabs == other.num_stabs
            && self.shots == other.shots
            && self.planes == other.planes
    }
}

/// Incremental [`EventStream`] builder for decode-as-you-stream: rounds
/// are pushed one at a time as the producer generates them, and each
/// round's event planes are available immediately — the consumer never
/// waits for the full multi-round record to materialise.
///
/// `push_round` takes the round's **raw syndrome rows** (stabilizer-major
/// bit-planes, one row of `words` words per stabilizer — exactly the
/// layout of `radqec_core::streaming::RoundSlice::syndrome_rows`) and
/// XORs them against the retained previous round, word-parallel.
/// `finish` returns an [`EventStream`] bit-identical to
/// [`EventStream::extract`] over the materialised batch.
#[derive(Debug, Clone)]
pub struct EventAccumulator {
    stream: EventStream,
    first_round_deterministic: Vec<bool>,
    /// Last pushed round's raw syndromes, stabilizer-major.
    prev: Vec<u64>,
    next_round: usize,
}

impl EventAccumulator {
    /// Start accumulating a `shots`-shot stream laid out by `spec`.
    pub fn new(spec: &StreamSpec, shots: usize) -> Self {
        assert!(shots > 0, "stream needs at least one shot");
        let words = shots.div_ceil(64);
        EventAccumulator {
            stream: EventStream {
                rounds: spec.rounds,
                num_stabs: spec.num_stabs,
                shots,
                words,
                planes: vec![0u64; spec.rounds * spec.num_stabs * words],
            },
            first_round_deterministic: spec.first_round_deterministic.clone(),
            prev: vec![0u64; spec.num_stabs * words],
            next_round: 0,
        }
    }

    /// Rounds pushed so far (event planes for rounds `< rounds_pushed()`
    /// are final).
    pub fn rounds_pushed(&self) -> usize {
        self.next_round
    }

    /// Push round `round`'s raw syndrome rows (stabilizer-major, `words`
    /// words per stabilizer) and compute its detection-event planes.
    ///
    /// # Panics
    /// Panics when rounds arrive out of order or `rows` has the wrong
    /// width.
    pub fn push_round(&mut self, round: usize, rows: &[u64]) {
        assert_eq!(round, self.next_round, "rounds must be pushed in order");
        assert!(round < self.stream.rounds, "more rounds than the spec declares");
        let words = self.stream.words;
        assert_eq!(rows.len(), self.stream.num_stabs * words, "syndrome rows have wrong width");
        for i in 0..self.stream.num_stabs {
            let base = (round * self.stream.num_stabs + i) * words;
            let row = &rows[i * words..(i + 1) * words];
            if round == 0 {
                // Round 0 detects deviation from the deterministic initial
                // syndrome 0 where one exists; other stabilizers carry no
                // round-0 detector.
                if self.first_round_deterministic[i] {
                    self.stream.planes[base..base + words].copy_from_slice(row);
                }
            } else {
                for (w, (plane, &cur)) in
                    self.stream.planes[base..base + words].iter_mut().zip(row).enumerate()
                {
                    *plane = cur ^ self.prev[i * words + w];
                }
            }
            self.prev[i * words..(i + 1) * words].copy_from_slice(row);
        }
        self.next_round += 1;
    }

    /// The event planes accumulated so far (planes of un-pushed rounds are
    /// zero). Borrow for mid-stream detection; `finish` for the owned
    /// stream.
    pub fn stream(&self) -> &EventStream {
        &self.stream
    }

    /// Finish the stream.
    ///
    /// # Panics
    /// Panics when not every round was pushed.
    pub fn finish(self) -> EventStream {
        assert_eq!(self.next_round, self.stream.rounds, "stream is missing rounds");
        self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rounds: usize, num_stabs: usize) -> StreamSpec {
        StreamSpec {
            rounds,
            num_stabs,
            first_round_deterministic: vec![true; num_stabs],
            ancilla_physical: vec![0; rounds * num_stabs],
        }
    }

    #[test]
    fn extraction_matches_per_shot_xor() {
        let spec = spec(3, 2);
        let mut batch = ShotBatch::new(6, 70);
        // Stab 0: fires from round 1 on in shot 3 → event exactly at round 1.
        batch.flip(spec.cbit(1, 0), 3);
        batch.flip(spec.cbit(2, 0), 3);
        // Stab 1: fires only in round 0 of shot 65 → events at rounds 0 and 1.
        batch.flip(spec.cbit(0, 1), 65);
        let ev = EventStream::extract(&batch, &spec);
        for shot in 0..70 {
            for r in 0..3 {
                for i in 0..2 {
                    let prev = if r == 0 { false } else { batch.get(spec.cbit(r - 1, i), shot) };
                    let want = batch.get(spec.cbit(r, i), shot) != prev;
                    assert_eq!(ev.event(r, i, shot), want, "shot {shot} r{r} s{i}");
                }
            }
        }
        assert_eq!(ev.total_events(), 3);
    }

    #[test]
    fn non_deterministic_first_round_is_suppressed() {
        let mut s = spec(2, 1);
        s.first_round_deterministic = vec![false];
        let mut batch = ShotBatch::new(2, 4);
        batch.flip(0, 1); // round-0 syndrome fires...
        let ev = EventStream::extract(&batch, &s);
        assert!(!ev.event(0, 0, 1), "...but round 0 carries no detector");
        assert!(ev.event(1, 0, 1), "the change is caught by the round-1 XOR");
    }

    #[test]
    fn accumulator_matches_extract() {
        let mut spec = spec(4, 3);
        spec.first_round_deterministic = vec![true, false, true];
        let mut batch = ShotBatch::new(12, 130);
        // A scatter of syndrome bits across rounds, stabs and both words.
        for (r, i, s) in [(0, 0, 3), (0, 1, 64), (1, 0, 3), (1, 2, 129), (2, 2, 129), (3, 1, 7)] {
            batch.flip(spec.cbit(r, i), s);
        }
        let oneshot = EventStream::extract(&batch, &spec);
        let mut acc = EventAccumulator::new(&spec, 130);
        let words = batch.words();
        for r in 0..4 {
            let mut rows = Vec::with_capacity(3 * words);
            for i in 0..3 {
                rows.extend_from_slice(batch.row(spec.cbit(r, i)));
            }
            acc.push_round(r, &rows);
            // Already-pushed planes are final mid-stream.
            for rr in 0..=r {
                for i in 0..3 {
                    assert_eq!(acc.stream().plane(rr, i), oneshot.plane(rr, i), "r{rr} s{i}");
                }
            }
        }
        assert_eq!(acc.finish(), oneshot);
    }

    #[test]
    #[should_panic(expected = "pushed in order")]
    fn accumulator_rejects_out_of_order_rounds() {
        let spec = spec(3, 1);
        let mut acc = EventAccumulator::new(&spec, 4);
        acc.push_round(1, &[0]);
    }

    #[test]
    fn round_counts_sum_events() {
        let spec = spec(2, 3);
        let mut batch = ShotBatch::new(6, 2);
        batch.flip(spec.cbit(0, 0), 1);
        batch.flip(spec.cbit(0, 2), 1);
        let ev = EventStream::extract(&batch, &spec);
        let mut counts = Vec::new();
        ev.round_counts(1, &mut counts);
        // Round 0: stabs 0 and 2 fire. Round 1: both XOR back to events.
        assert_eq!(counts, vec![2, 2]);
        ev.round_counts(0, &mut counts);
        assert_eq!(counts, vec![0, 0]);
        // The transposed single-round view agrees.
        let mut per_shot = Vec::new();
        ev.round_shot_counts(0, &mut per_shot);
        assert_eq!(per_shot, vec![0, 2]);
        ev.round_shot_counts(1, &mut per_shot);
        assert_eq!(per_shot, vec![0, 2]);
        // The round total is the sum of the per-shot counts.
        for r in 0..2 {
            ev.round_shot_counts(r, &mut per_shot);
            assert_eq!(ev.round_total(r), per_shot.iter().map(|&c| u64::from(c)).sum::<u64>());
        }
    }
}
