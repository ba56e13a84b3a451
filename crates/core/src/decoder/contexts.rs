//! The one interned solve-context table behind both matching decoders.
//!
//! A solve context (a `memo::SolveContext`: a possibly mask-reweighted
//! detector graph plus its outcome memo) is a pure function of its key: a
//! layout part `L` (`()` for the bulk decoder, the window's `(layers,
//! commit layers)` for the space-time decoder) and a mask's quantised
//! weight key (`None` = unmasked).
//! Eviction therefore never changes a decode: an evicted context's `Arc`
//! keeps in-flight work alive, and re-interning rebuilds the same function.

use radqec_telemetry::Counter;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A [`DecoderMask::weight_key`](crate::decoder::DecoderMask::weight_key).
type MaskKey = (Vec<u32>, Vec<u32>);

type Key<L> = (L, Option<MaskKey>);

struct Slots<L, V> {
    /// Interned contexts with their LRU access stamps.
    map: HashMap<Key<L>, (Arc<V>, u64)>,
    tick: u64,
    /// Entries with a mask key — the capped ones.
    masked: usize,
    evictions: u64,
}

/// Interns contexts by key, builds a missing one outside the lock, caps
/// masked entries at [`TierConfig::mask_capacity`] by exact LRU eviction
/// (unmasked entries are never evicted) and counts mask hits and
/// evictions.
///
/// [`TierConfig::mask_capacity`]: crate::decoder::TierConfig::mask_capacity
pub(crate) struct ContextTable<L, V> {
    slots: Mutex<Slots<L, V>>,
    capacity: usize,
    /// Interns of an already-present masked key (`decode.mask_hits`).
    hits: Arc<Counter>,
}

impl<L: Hash + Eq + Clone, V> ContextTable<L, V> {
    pub(crate) fn new(capacity: usize, hits: Arc<Counter>) -> Self {
        let slots = Slots { map: HashMap::new(), tick: 0, masked: 0, evictions: 0 };
        ContextTable { slots: Mutex::new(slots), capacity, hits }
    }

    /// Recovers from poisoning: a supervised worker panic must not wedge
    /// the table, and the map only ever holds finished contexts.
    fn lock(&self) -> MutexGuard<'_, Slots<L, V>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stamp and return `key`'s context if it is interned.
    fn touch(&self, slots: &mut Slots<L, V>, key: &Key<L>) -> Option<Arc<V>> {
        slots.tick += 1;
        let tick = slots.tick;
        let (ctx, stamp) = slots.map.get_mut(key)?;
        *stamp = tick;
        if key.1.is_some() {
            self.hits.inc();
        }
        Some(Arc::clone(ctx))
    }

    /// The context of `(layout, mask)`, built by `build` on a miss. The
    /// key is re-checked under the lock before anything is evicted, so
    /// racing misses of one new key insert it once and evict at most one
    /// entry; the losers count as hits.
    pub(crate) fn intern(
        &self,
        layout: L,
        mask: Option<MaskKey>,
        build: impl FnOnce() -> V,
    ) -> Arc<V> {
        let key = (layout, mask);
        if let Some(ctx) = self.touch(&mut self.lock(), &key) {
            return ctx;
        }
        let built = Arc::new(build());
        let mut slots = self.lock();
        if let Some(ctx) = self.touch(&mut slots, &key) {
            return ctx;
        }
        if key.1.is_some() {
            if slots.masked >= self.capacity {
                let masked = slots.map.iter().filter(|(k, _)| k.1.is_some());
                let oldest = masked.min_by_key(|(_, (_, stamp))| *stamp).map(|(k, _)| k.clone());
                if let Some(oldest) = oldest {
                    slots.map.remove(&oldest);
                    slots.masked -= 1;
                    slots.evictions += 1;
                }
            }
            slots.masked += 1;
        }
        let tick = slots.tick;
        slots.map.insert(key, (Arc::clone(&built), tick));
        built
    }

    /// Live entries as `(unmasked, masked)`.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let slots = self.lock();
        (slots.map.len() - slots.masked, slots.masked)
    }

    /// Masked entries evicted by the ceiling so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.lock().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn mask(w: u32) -> Option<MaskKey> {
        Some((vec![w], Vec::new()))
    }

    #[test]
    fn masked_entries_are_lru_capped_and_unmasked_are_kept() {
        let hits = Arc::new(Counter::default());
        let table = ContextTable::<usize, u32>::new(2, Arc::clone(&hits));
        for (m, v) in [(None, 0), (mask(1), 1), (mask(2), 2), (mask(1), 9), (mask(3), 3)] {
            table.intern(6, m, || v);
        }
        // Key 2 was the least recently used masked entry when key 3 came.
        assert_eq!((table.counts(), table.evictions(), hits.get()), ((1, 2), 1, 1));
        assert_eq!(*table.intern(6, mask(2), || 20), 20, "an evicted key rebuilds");
        assert_eq!(*table.intern(6, None, || 10), 0, "unmasked entries are kept");
        assert_eq!(hits.get(), 1, "unmasked lookups are not mask hits");
    }

    #[test]
    fn racing_misses_of_one_key_insert_once_and_evict_at_most_once() {
        let hits = Arc::new(Counter::default());
        let table = ContextTable::<(), u32>::new(1, Arc::clone(&hits));
        table.intern((), mask(0), || 0);
        // Each build waits for the other, so both threads have missed the
        // key before either re-locks to insert it.
        let barrier = Barrier::new(2);
        let racer = || {
            table.intern((), mask(1), || {
                barrier.wait();
                1
            })
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(racer), s.spawn(racer));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "one insert: both callers share the winner's context");
        assert_eq!(table.counts(), (0, 1));
        assert_eq!(table.evictions(), 1, "one new key evicts one old one");
        assert_eq!(hits.get(), 1, "the loser re-finds the key as a hit");
    }
}
