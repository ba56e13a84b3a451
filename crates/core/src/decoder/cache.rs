//! Engine-level cross-batch syndrome cache.
//!
//! The decode result of a shot is `raw_readout XOR flip(defect_pattern)`,
//! and `flip` is a pure function of the defect bit pattern alone (see the
//! module docs of [`crate::decoder`]). This cache stores that function's
//! values so a matching runs at most once per *distinct syndrome of the
//! whole campaign* — across batches, rayon chunks and temporal samples —
//! instead of once per distinct record per batch (the ROADMAP's
//! "cross-sample LRU" item).
//!
//! Two storage modes, chosen by detector-bit count:
//!
//! * **Direct** (≤ [`LUT_MAX_BITS`] bits): a flat table with one atomic
//!   byte per possible syndrome — the exhaustive lookup table, filled
//!   lazily. Lock-free; the benign write race stores the same value because
//!   the entry is a pure function of its index.
//! * **Sharded** (wider syndromes): mutex-sharded hash maps keyed by the
//!   `u128` defect pattern, with approximate-LRU eviction (each shard
//!   stamps entries on access and drops the older half when it outgrows its
//!   capacity share).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Widest defect pattern (in detector bits) served by the direct-indexed
/// lookup table: `2^16` one-byte entries = 64 KiB per engine, covering
/// repetition codes up to distance 9 and XXZZ codes up to 17 data qubits
/// (e.g. (3,5)/(5,3)) exactly.
pub(crate) const LUT_MAX_BITS: usize = 16;

/// Default entry budget of the sharded cache (~12 MiB of map storage).
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 1 << 18;

const SHARDS: usize = 16;

/// Direct-table encoding: 0 = unknown, 1 = flip false, 2 = flip true.
const EMPTY: u8 = 0;

/// One shard of the wide-syndrome cache.
#[derive(Default)]
struct Shard {
    map: HashMap<u128, Slot>,
    /// Monotonic access counter; stamps entries for approximate LRU.
    tick: u64,
}

struct Slot {
    flip: bool,
    stamp: u64,
}

enum Storage {
    Direct(Box<[AtomicU8]>),
    Sharded { shards: Box<[Mutex<Shard>]>, capacity_per_shard: usize },
}

/// Concurrent syndrome → flip-parity cache (see module docs).
pub(crate) struct SyndromeCache {
    storage: Storage,
    evictions: AtomicU64,
}

impl SyndromeCache {
    /// Direct-indexed table over `bits`-wide defect patterns
    /// (`bits <= LUT_MAX_BITS`).
    pub(crate) fn direct(bits: usize) -> Self {
        assert!(bits <= LUT_MAX_BITS, "direct table too wide: {bits} bits");
        let table: Vec<AtomicU8> = (0..1usize << bits).map(|_| AtomicU8::new(EMPTY)).collect();
        SyndromeCache { storage: Storage::Direct(table.into()), evictions: AtomicU64::new(0) }
    }

    /// Sharded hash cache holding at most ~`capacity` entries.
    pub(crate) fn sharded(capacity: usize) -> Self {
        let shards: Vec<Mutex<Shard>> = (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect();
        SyndromeCache {
            storage: Storage::Sharded {
                shards: shards.into(),
                capacity_per_shard: capacity.div_ceil(SHARDS).max(2),
            },
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether this cache is the exhaustive direct-indexed table.
    pub(crate) fn is_direct(&self) -> bool {
        matches!(self.storage, Storage::Direct(_))
    }

    /// Cached flip parity for `key`, if known. Refreshes the entry's LRU
    /// stamp in sharded mode.
    #[inline]
    pub(crate) fn get(&self, key: u128) -> Option<bool> {
        match &self.storage {
            Storage::Direct(table) => match table[key as usize].load(Ordering::Relaxed) {
                EMPTY => None,
                v => Some(v == 2),
            },
            Storage::Sharded { shards, .. } => {
                let mut shard = lock_shard(&shards[shard_of(key)]);
                shard.tick += 1;
                let tick = shard.tick;
                shard.map.get_mut(&key).map(|slot| {
                    slot.stamp = tick;
                    slot.flip
                })
            }
        }
    }

    /// Record the flip parity of `key`. Racing inserts are benign: the
    /// value is a pure function of the key, so all writers agree.
    #[inline]
    pub(crate) fn insert(&self, key: u128, flip: bool) {
        match &self.storage {
            Storage::Direct(table) => {
                table[key as usize].store(if flip { 2 } else { 1 }, Ordering::Relaxed);
            }
            Storage::Sharded { shards, capacity_per_shard } => {
                let mut shard = lock_shard(&shards[shard_of(key)]);
                if shard.map.len() >= *capacity_per_shard {
                    let dropped = evict_older_half(&mut shard.map);
                    self.evictions.fetch_add(dropped, Ordering::Relaxed);
                }
                shard.tick += 1;
                let stamp = shard.tick;
                shard.map.insert(key, Slot { flip, stamp });
            }
        }
    }

    /// Entries dropped by LRU eviction so far (always 0 in direct mode).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Distinct syndromes currently stored.
    pub(crate) fn len(&self) -> usize {
        match &self.storage {
            Storage::Direct(table) => {
                table.iter().filter(|e| e.load(Ordering::Relaxed) != EMPTY).count()
            }
            Storage::Sharded { shards, .. } => shards.iter().map(|s| lock_shard(s).map.len()).sum(),
        }
    }
}

/// Lock a shard, recovering from poisoning: a supervised worker panic
/// mid-decode must not wedge the campaign-lifetime cache. Every write a
/// shard ever sees is a single atomic-from-the-map's-view `insert` of a
/// pure-function value, so a poisoned shard is never half-updated.
fn lock_shard(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Drop the older half of a full shard (median access stamp and below).
/// O(n) once per `capacity_per_shard` inserts — amortised O(1).
fn evict_older_half(map: &mut HashMap<u128, Slot>) -> u64 {
    let mut stamps: Vec<u64> = map.values().map(|s| s.stamp).collect();
    stamps.sort_unstable();
    let median = stamps[stamps.len() / 2];
    let before = map.len();
    map.retain(|_, slot| slot.stamp > median);
    (before - map.len()) as u64
}

/// SplitMix-style fold of the 128-bit key onto a shard index.
#[inline]
fn shard_of(key: u128) -> usize {
    let mut z = (key as u64) ^ ((key >> 64) as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z ^ (z >> 27)) as usize % SHARDS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_table_roundtrips() {
        let c = SyndromeCache::direct(8);
        assert!(c.is_direct());
        assert_eq!(c.get(0x42), None);
        c.insert(0x42, true);
        c.insert(0x17, false);
        assert_eq!(c.get(0x42), Some(true));
        assert_eq!(c.get(0x17), Some(false));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn sharded_roundtrips_and_evicts_old_entries() {
        let c = SyndromeCache::sharded(SHARDS * 8);
        assert!(!c.is_direct());
        for k in 0..2000u64 {
            c.insert(k as u128, k.is_multiple_of(3));
        }
        assert!(c.len() <= SHARDS * 8, "len {} exceeds capacity", c.len());
        assert!(c.evictions() > 0);
        // Recently inserted keys survive and read back correctly.
        assert_eq!(c.get(1999), Some(1999u64.is_multiple_of(3)));
    }

    #[test]
    fn sharded_get_refreshes_lru_stamp() {
        // One shard's worth of keys: keep touching key `hot`; it must
        // survive the evictions triggered by a stream of cold keys.
        let c = SyndromeCache::sharded(SHARDS * 4);
        let hot = 7u128;
        c.insert(hot, true);
        for k in 100..400u128 {
            c.insert(k, false);
            assert_eq!(c.get(hot), Some(true), "hot key evicted after inserting {k}");
        }
    }
}
