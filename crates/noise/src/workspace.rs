//! [`StreamWorkspace`] — the reusable per-(worker, chunk) arena of the
//! streaming hot path.
//!
//! Every streamed chunk needs three buffers: the bit-packed
//! [`PauliFrameBatch`] (two planes × qubits × words), the classical
//! [`ShotBatch`] record, and the Bernoulli scratch mask. The pre-overhaul
//! engine allocated all three afresh for every chunk of every sweep
//! point; the workspace allocates them once and *recycles* them — a chunk
//! begins by re-initialising the frame in place with **exactly the draw
//! sequence of a fresh construction**, so recycled and fresh chunks
//! produce bit-identical streams (pinned by `tests/golden_stream.rs`).
//!
//! The workspace also counts its buffer (re)allocations, so engines can
//! report reuse rates (`StreamEngine::stream_stats`) and regression tests
//! can assert that reuse actually happens. Engines keep their workspaces
//! in one [`WorkspacePool`], which sums those counters into
//! [`WorkspaceStats`].

use crate::depolarizing::NoiseSpec;
use crate::fault::ActiveFault;
use radqec_circuit::{Circuit, ShotBatch};
use radqec_stabilizer::{PauliFrameBatch, ReferenceTrace};
use rand::RngCore;
use std::sync::{Mutex, PoisonError};

/// Reusable buffers for streaming one chunk of shots (see module docs).
#[derive(Debug, Default)]
pub struct StreamWorkspace {
    frame: Option<PauliFrameBatch>,
    record: Option<ShotBatch>,
    mask: Vec<u64>,
    allocations: u64,
    reuses: u64,
    /// A chunk has begun ([`Self::begin_chunk`]) but not finished
    /// ([`Self::finish_chunk`]) — the buffers hold a half-streamed chunk.
    /// Supervised engines use this to quarantine workspaces abandoned by a
    /// panicking worker instead of returning them to the pool.
    in_flight: bool,
}

impl StreamWorkspace {
    /// An empty workspace; buffers are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer allocations performed so far (frame + record + mask grows).
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Chunk set-ups that reused every buffer without allocating.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Whether a chunk is mid-stream (begun but not marked finished). An
    /// in-flight workspace must not be pooled: its buffers may have been
    /// abandoned half-written by a panicking worker.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// Mark the chunk begun by [`Self::begin_chunk`] complete, making the
    /// workspace safe to pool again. (Recycling does not *need* a finished
    /// chunk — `begin_chunk` reinitialises every buffer — but a workspace
    /// abandoned mid-chunk is indistinguishable from one whose owner died
    /// between corrupting unrelated state and here, so supervisors drop
    /// it.)
    pub fn finish_chunk(&mut self) {
        self.in_flight = false;
    }

    /// Prepare the workspace for a `shots`-wide chunk of `circuit` on
    /// `n_qubits` physical qubits: the frame is (re)initialised with the
    /// same draws a fresh [`PauliFrameBatch::new`] would make, the record
    /// is zeroed and the mask sized. Returns `(frame, record, mask)`
    /// ready for [`run_noisy_ops_segmented`](crate::run_noisy_ops_segmented).
    pub fn begin_chunk<R: RngCore + ?Sized>(
        &mut self,
        circuit: &Circuit,
        n_qubits: usize,
        shots: usize,
        rng: &mut R,
    ) -> (&mut PauliFrameBatch, &mut ShotBatch, &mut [u64]) {
        let words = shots.div_ceil(64);
        self.in_flight = true;
        let mut fresh = 0u64;
        match &mut self.frame {
            Some(frame) => fresh += u64::from(!frame.reinit(n_qubits, shots, rng)),
            None => {
                self.frame = Some(PauliFrameBatch::new(n_qubits, shots, rng));
                fresh += 1;
            }
        }
        match &mut self.record {
            Some(record) => fresh += u64::from(!record.reset(circuit.num_clbits(), shots)),
            None => {
                self.record = Some(ShotBatch::new(circuit.num_clbits(), shots));
                fresh += 1;
            }
        }
        if self.mask.len() < words {
            self.mask.resize(words, 0);
            fresh += 1;
        }
        self.allocations += fresh;
        self.reuses += u64::from(fresh == 0);
        (
            self.frame.as_mut().expect("frame just initialised"),
            self.record.as_mut().expect("record just initialised"),
            &mut self.mask[..words],
        )
    }

    /// The prepared buffers of the chunk begun by [`Self::begin_chunk`],
    /// for callers that advance the executor op range by op range (the
    /// round-by-round stream). `words` must be the current chunk's word
    /// count.
    ///
    /// # Panics
    /// Panics when called before `begin_chunk`.
    pub fn parts(&mut self, words: usize) -> (&mut PauliFrameBatch, &mut ShotBatch, &mut [u64]) {
        (
            self.frame.as_mut().expect("begin_chunk first"),
            self.record.as_mut().expect("begin_chunk first"),
            &mut self.mask[..words],
        )
    }

    /// Run a whole segmented chunk through the workspace and hand back the
    /// finished record by value (the buffers stay pooled for the next
    /// chunk; only the returned record is a fresh allocation, exactly as
    /// the unpooled path would have made).
    #[allow(clippy::too_many_arguments)]
    pub fn run_chunk<R: RngCore + ?Sized>(
        &mut self,
        circuit: &Circuit,
        reference: &ReferenceTrace,
        noise: &NoiseSpec,
        segments: &[(usize, &ActiveFault)],
        n_qubits: usize,
        shots: usize,
        rng: &mut R,
    ) -> ShotBatch {
        let (frame, record, mask) = self.begin_chunk(circuit, n_qubits, shots, rng);
        crate::run_noisy_ops_segmented(
            circuit,
            reference,
            frame,
            noise,
            segments,
            0..circuit.len(),
            record,
            mask,
            rng,
        );
        let out = record.clone();
        self.finish_chunk();
        out
    }
}

/// Buffer counters summed over a [`WorkspacePool`]'s pooled workspaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Buffer allocations — flat once the pool is warm.
    pub allocated: u64,
    /// Chunk set-ups that reused every pooled buffer.
    pub reused: u64,
}

/// The workspaces an engine's workers share across chunks and campaigns.
/// Poison-tolerant: it holds only whole workspaces, because [`Self::put`]
/// drops an in-flight one (abandoned mid-chunk by a panicking worker).
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<StreamWorkspace>>,
}

impl WorkspacePool {
    /// Pop a pooled workspace, or start a fresh one.
    pub fn take(&self) -> StreamWorkspace {
        self.free.lock().unwrap_or_else(PoisonError::into_inner).pop().unwrap_or_default()
    }

    /// Return a workspace to the pool; an in-flight one is dropped.
    pub fn put(&self, ws: StreamWorkspace) {
        if !ws.in_flight() {
            self.free.lock().unwrap_or_else(PoisonError::into_inner).push(ws);
        }
    }

    /// Counters summed over the pooled workspaces (read between
    /// campaigns).
    pub fn stats(&self) -> WorkspaceStats {
        let free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        WorkspaceStats {
            allocated: free.iter().map(StreamWorkspace::allocations).sum(),
            reused: free.iter().map(StreamWorkspace::reuses).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radqec_circuit::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ghz(n: u32) -> Circuit {
        let mut c = Circuit::new(n, n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        for q in 0..n {
            c.measure(q, q);
        }
        c
    }

    #[test]
    fn recycled_chunks_match_fresh_chunks_bit_for_bit() {
        let c = ghz(4);
        let reference = ReferenceTrace::compute(&c, 4, 7);
        let noise = NoiseSpec::depolarizing(0.05);
        let fault = ActiveFault::from_probs(vec![0.3, 0.0, 0.1, 0.0]);
        let segments = [(0usize, &fault)];
        let fresh: Vec<ShotBatch> = (0..4u64)
            .map(|chunk| {
                let mut rng = StdRng::seed_from_u64(100 + chunk);
                let mut frame = PauliFrameBatch::new(4, 100, &mut rng);
                crate::run_noisy_batch_segmented(
                    &c, &reference, &mut frame, &noise, &segments, &mut rng,
                )
            })
            .collect();
        let mut ws = StreamWorkspace::new();
        let pooled: Vec<ShotBatch> = (0..4u64)
            .map(|chunk| {
                let mut rng = StdRng::seed_from_u64(100 + chunk);
                ws.run_chunk(&c, &reference, &noise, &segments, 4, 100, &mut rng)
            })
            .collect();
        assert_eq!(fresh, pooled);
        assert!(ws.reuses() >= 3, "3 of 4 chunks must reuse: {ws:?}");
        assert_eq!(ws.allocations(), 3, "one frame, one record, one mask");
    }

    #[test]
    fn in_flight_tracks_the_chunk_lifecycle() {
        let c = ghz(3);
        let mut ws = StreamWorkspace::new();
        assert!(!ws.in_flight(), "fresh workspace has no chunk in flight");
        let mut rng = StdRng::seed_from_u64(1);
        let _ = ws.begin_chunk(&c, 3, 64, &mut rng);
        assert!(ws.in_flight(), "begin_chunk must mark the chunk in flight");
        ws.finish_chunk();
        assert!(!ws.in_flight());
        // run_chunk clears the flag on its own.
        let reference = ReferenceTrace::compute(&c, 3, 1);
        let noise = NoiseSpec::noiseless();
        let fault = ActiveFault::none(3);
        let segments = [(0usize, &fault)];
        let _ = ws.run_chunk(&c, &reference, &noise, &segments, 3, 64, &mut rng);
        assert!(!ws.in_flight());
    }

    #[test]
    fn workspace_handles_shrinking_and_growing_chunks() {
        let c = ghz(3);
        let reference = ReferenceTrace::compute(&c, 3, 1);
        let noise = NoiseSpec::noiseless();
        let fault = ActiveFault::none(3);
        let segments = [(0usize, &fault)];
        let mut ws = StreamWorkspace::new();
        for shots in [100usize, 30, 200, 64] {
            let mut rng = StdRng::seed_from_u64(shots as u64);
            let batch = ws.run_chunk(&c, &reference, &noise, &segments, 3, shots, &mut rng);
            assert_eq!(batch.shots(), shots);
            // GHZ correlation sanity on the recycled buffers.
            for s in 0..shots {
                assert_eq!(batch.get(0, s), batch.get(2, s), "shots={shots} s={s}");
            }
        }
    }

    /// A workspace that has run `chunks` 64-shot GHZ chunks.
    fn worked(chunks: u64) -> StreamWorkspace {
        let c = ghz(3);
        let reference = ReferenceTrace::compute(&c, 3, 1);
        let fault = ActiveFault::none(3);
        let mut ws = StreamWorkspace::new();
        for chunk in 0..chunks {
            let mut rng = StdRng::seed_from_u64(chunk);
            let noise = NoiseSpec::noiseless();
            let _ = ws.run_chunk(&c, &reference, &noise, &[(0, &fault)], 3, 64, &mut rng);
        }
        ws
    }

    #[test]
    fn pool_drops_in_flight_workspaces() {
        let pool = WorkspacePool::default();
        let mut ws = worked(1);
        let mut rng = StdRng::seed_from_u64(9);
        let _ = ws.begin_chunk(&ghz(3), 3, 64, &mut rng);
        pool.put(ws);
        assert_eq!(pool.take().allocations(), 0, "an in-flight workspace must not be pooled");
        pool.put(worked(1));
        assert_eq!(pool.take().allocations(), 3, "a finished workspace is pooled");
    }

    #[test]
    fn pool_stats_sum_over_pooled_workspaces() {
        let pool = WorkspacePool::default();
        assert_eq!(pool.stats(), WorkspaceStats::default());
        let (a, b) = (worked(1), worked(4));
        let want = WorkspaceStats {
            allocated: a.allocations() + b.allocations(),
            reused: a.reuses() + b.reuses(),
        };
        assert_eq!(want, WorkspaceStats { allocated: 6, reused: 3 });
        pool.put(a);
        pool.put(b);
        assert_eq!(pool.stats(), want);
    }

    #[test]
    fn pool_survives_a_poisoned_lock() {
        let pool = WorkspacePool::default();
        pool.put(worked(2));
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = pool.free.lock().unwrap();
                    panic!("worker died holding the pool lock");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(pool.free.is_poisoned());
        assert_eq!(pool.stats(), WorkspaceStats { allocated: 3, reused: 1 });
        let ws = pool.take();
        assert_eq!(ws.allocations(), 3, "the pooled workspace survives");
        pool.put(ws);
        pool.put(worked(1));
        assert_eq!(pool.stats().allocated, 6);
    }
}
