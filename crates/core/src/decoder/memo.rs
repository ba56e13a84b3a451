//! The one solve context behind both matching decoders: a detector graph,
//! one outcome memo, and the memo-or-solve pass every defect key goes
//! through.
//!
//! A decode outcome (the bulk decoder's flip parity, a window's committed
//! flip and survivors) is a pure function of the context's graph and the
//! defect key, and the memo only ever stores values of that function. So
//! neither its storage nor its eviction can change a decode; they only
//! decide how often the matcher runs.
//!
//! Storage follows from the key width alone:
//!
//! * **Direct** (≤ [`LUT_MAX_BITS`] bits): one atomic word per possible
//!   key, holding a presence bit and the packed value ([`MemoValue`]).
//!   This is the exhaustive lookup table, filled lazily. It is lock-free,
//!   and the write race is benign: every writer of a slot stores the same
//!   value, because the value is a pure function of the slot's index.
//! * **Sharded** (wider keys): 16 mutex-guarded hash maps keyed by the
//!   `u128` defect pattern, together capped at the decoder's
//!   [`TierConfig::cache_capacity`](crate::decoder::TierConfig::cache_capacity).
//!   A shard that is full when a new entry arrives is cleared, and the
//!   cleared entries count as evictions.

use super::bulk::LocalStats;
use super::graph::DetectorGraph;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Widest key (in detector bits) served by the direct-indexed table:
/// `2^16` four-byte slots = 256 KiB per context, covering repetition codes
/// up to distance 9 and XXZZ codes up to 17 data qubits (e.g.
/// (3,5)/(5,3)) exactly.
pub(crate) const LUT_MAX_BITS: usize = 16;

/// Default entry budget of a sharded memo (~12 MiB of flip entries).
pub(crate) const DEFAULT_CACHE_CAPACITY: usize = 1 << 18;

const SHARDS: usize = 16;

/// A memoised outcome. Values of keys that fit the direct table pack into
/// the 31 bits above a direct slot's presence bit.
pub(crate) trait MemoValue: Copy {
    /// The value as at most 31 bits (only called for keys of at most
    /// [`LUT_MAX_BITS`] bits).
    fn pack(self) -> u32;
    /// The inverse of [`MemoValue::pack`].
    fn unpack(bits: u32) -> Self;
}

impl MemoValue for bool {
    fn pack(self) -> u32 {
        u32::from(self)
    }

    fn unpack(bits: u32) -> Self {
        bits != 0
    }
}

/// Hashes a `u128` key with one folded multiply of its halves. A memo is
/// private to its decoder, so SipHash's resistance to chosen keys buys
/// nothing, and its cost showed on every probe.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u128(&mut self, key: u128) {
        let product = u128::from(key as u64 ^ 0x243F_6A88_85A3_08D3)
            * u128::from((key >> 64) as u64 ^ 0x1319_8A2E_0370_7344);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

type Shard<V> = HashMap<u128, V, BuildHasherDefault<KeyHasher>>;

enum Storage<V> {
    /// Slot `key`: 0 = unknown, else `1 | value.pack() << 1`.
    Direct(Box<[AtomicU32]>),
    Sharded {
        shards: Box<[Mutex<Shard<V>>]>,
        per_shard: usize,
    },
}

/// Concurrent defect key → outcome memo (see module docs).
pub(crate) struct Memo<V> {
    storage: Storage<V>,
    evictions: AtomicU64,
}

impl<V: MemoValue> Memo<V> {
    /// The memo of `bits`-wide keys: the direct table when they fit it,
    /// else the sharded map holding at most `16 · ⌈capacity / 16⌉`
    /// entries.
    pub(crate) fn new(bits: usize, capacity: usize) -> Self {
        let storage = if bits <= LUT_MAX_BITS {
            Storage::Direct((0..1usize << bits).map(|_| AtomicU32::new(0)).collect())
        } else {
            Storage::Sharded {
                shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
                per_shard: capacity.div_ceil(SHARDS),
            }
        };
        Memo { storage, evictions: AtomicU64::new(0) }
    }

    /// Whether this memo is the exhaustive direct-indexed table.
    pub(crate) fn is_direct(&self) -> bool {
        matches!(self.storage, Storage::Direct(_))
    }

    /// The memoised outcome of `key`, if any.
    #[inline]
    pub(crate) fn get(&self, key: u128) -> Option<V> {
        match &self.storage {
            Storage::Direct(table) => match table[key as usize].load(Ordering::Relaxed) {
                0 => None,
                slot => Some(V::unpack(slot >> 1)),
            },
            Storage::Sharded { shards, .. } => {
                lock_shard(&shards[shard_of(key)]).get(&key).copied()
            }
        }
    }

    /// Record the outcome of `key`. Racing inserts are benign: the value
    /// is a pure function of the key, so all writers agree.
    #[inline]
    pub(crate) fn insert(&self, key: u128, value: V) {
        match &self.storage {
            Storage::Direct(table) => {
                table[key as usize].store(1 | value.pack() << 1, Ordering::Relaxed);
            }
            Storage::Sharded { shards, per_shard } => {
                let mut shard = lock_shard(&shards[shard_of(key)]);
                if shard.len() >= *per_shard {
                    self.evictions.fetch_add(shard.len() as u64, Ordering::Relaxed);
                    shard.clear();
                }
                shard.insert(key, value);
            }
        }
    }

    /// Entries cleared by full shards so far (always 0 for the direct
    /// table).
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Distinct keys currently stored.
    pub(crate) fn len(&self) -> usize {
        match &self.storage {
            Storage::Direct(table) => {
                table.iter().filter(|slot| slot.load(Ordering::Relaxed) != 0).count()
            }
            Storage::Sharded { shards, .. } => shards.iter().map(|s| lock_shard(s).len()).sum(),
        }
    }
}

/// Lock a shard, recovering from poisoning: a supervised worker panic
/// mid-decode must not wedge a campaign-lifetime memo. A shard only ever
/// sees whole `clear`s and `insert`s of pure-function values, so a
/// poisoned shard is never half-updated.
fn lock_shard<V>(shard: &Mutex<Shard<V>>) -> MutexGuard<'_, Shard<V>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// SplitMix-style fold of the 128-bit key onto a shard index.
#[inline]
fn shard_of(key: u128) -> usize {
    let mut z = (key as u64) ^ ((key >> 64) as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z ^ (z >> 27)) as usize % SHARDS
}

/// One solve context: a detector graph (uniform, mask-reweighted or a
/// space-time window) and the memo of its outcomes, keyed by defect
/// pattern over the graph's `layers · P` detector nodes.
pub(crate) struct SolveContext<V> {
    pub(crate) graph: DetectorGraph,
    pub(crate) memo: Memo<V>,
}

impl<V: MemoValue> SolveContext<V> {
    /// `graph` with an empty memo of at most `capacity` entries.
    pub(crate) fn new(graph: DetectorGraph, capacity: usize) -> Self {
        let memo = Memo::new(graph.layers() * graph.primary_count(), capacity);
        SolveContext { graph, memo }
    }

    /// The memo-or-solve pass, the one way either decoder reaches its
    /// solver. `key_of(i, target)` gives each target's key in order, or
    /// `None` when it has nothing to solve (it may settle the target
    /// itself). Memo hits are applied at once; the misses are grouped by
    /// key, and each group re-probes the memo (a concurrent pass may have
    /// solved it since) or calls `solve(key) -> (value, exact)` once,
    /// storing exact values. Each value is applied to its whole group,
    /// counted as one matching and cache hits, or as degraded shots.
    pub(crate) fn answer<T>(
        &self,
        targets: &mut [T],
        mut key_of: impl FnMut(usize, &mut T) -> Option<u128>,
        mut apply: impl FnMut(&mut T, V),
        local: &mut LocalStats,
        mut solve: impl FnMut(u128) -> (V, bool),
    ) {
        let mut misses: Vec<(u128, u32)> = Vec::new();
        for (i, target) in targets.iter_mut().enumerate() {
            let Some(key) = key_of(i, target) else { continue };
            match self.memo.get(key) {
                Some(value) => {
                    local.cache_hits += 1;
                    apply(target, value);
                }
                None => misses.push((key, i as u32)),
            }
        }
        misses.sort_unstable();
        for group in misses.chunk_by(|a, b| a.0 == b.0) {
            let (key, shots) = (group[0].0, group.len() as u64);
            let value = match self.memo.get(key) {
                Some(value) => {
                    local.cache_hits += shots;
                    value
                }
                None => {
                    let (value, exact) = solve(key);
                    if exact {
                        self.memo.insert(key, value);
                        local.matchings += 1;
                        local.cache_hits += shots - 1;
                    } else {
                        local.degraded += shots;
                    }
                    value
                }
            };
            for &(_, i) in group {
                apply(&mut targets[i as usize], value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::spacetime::WindowOutcome;

    #[test]
    fn direct_table_roundtrips() {
        let c = Memo::<bool>::new(8, DEFAULT_CACHE_CAPACITY);
        assert!(c.is_direct());
        assert_eq!(c.get(0x42), None);
        c.insert(0x42, true);
        c.insert(0x17, false);
        assert_eq!(c.get(0x42), Some(true));
        assert_eq!(c.get(0x17), Some(false));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        // A window outcome whose survivors use all 16 key bits.
        let w = Memo::<WindowOutcome>::new(LUT_MAX_BITS, DEFAULT_CACHE_CAPACITY);
        assert!(w.is_direct());
        let full = WindowOutcome { flip: true, survivors: 0xFFFF };
        let sparse = WindowOutcome { flip: false, survivors: 0x8001 };
        w.insert(0xFFFF, full);
        w.insert(0x8001, sparse);
        assert_eq!(w.get(0xFFFF), Some(full));
        assert_eq!(w.get(0x8001), Some(sparse));
        assert_eq!(w.get(0x8000), None);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn sharded_roundtrips_and_evicts_old_entries() {
        let c = Memo::<bool>::new(LUT_MAX_BITS + 1, SHARDS * 8);
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
    fn full_shard_clears_and_counts_its_evictions() {
        // Four entries per shard: the fifth key of one shard clears the
        // four before it, and only those four count as evictions.
        let c = Memo::<bool>::new(LUT_MAX_BITS + 1, SHARDS * 4);
        let keys: Vec<u128> = (0u128..).filter(|&k| shard_of(k) == 0).take(5).collect();
        for &k in &keys[..4] {
            c.insert(k, true);
        }
        let other = (0u128..).find(|&k| shard_of(k) == 1).unwrap();
        c.insert(other, false);
        assert_eq!((c.len(), c.evictions()), (5, 0));
        c.insert(keys[4], false);
        assert_eq!(c.evictions(), 4, "the full shard's four entries are cleared");
        assert_eq!(c.len(), 2);
        assert!(keys[..4].iter().all(|&k| c.get(k).is_none()));
        assert_eq!(c.get(keys[4]), Some(false));
        assert_eq!(c.get(other), Some(false), "other shards keep their entries");
    }
}
