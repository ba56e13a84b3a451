//! Lock-free log-bucketed histograms for hot-path latency tracking.
//!
//! A [`Histogram`] is a fixed array of [`AtomicU64`] buckets laid out on a
//! log scale with [`SUB_PER_OCTAVE`] sub-buckets per power of two, so a
//! single `record` is one relaxed `fetch_add` on a bucket picked with a
//! `leading_zeros` — no locks, no allocation, no floating point. Relative
//! bucket width is at most `1/SUB_PER_OCTAVE` (12.5%), and values below
//! [`SUB_PER_OCTAVE`] are stored exactly, which is plenty for latency
//! percentiles. Two histograms (e.g. per-worker shards) merge by summing
//! buckets, and the merge is exactly equivalent to having recorded every
//! value into one histogram — the property `tests/histogram_props.rs`
//! pins.
//!
//! Quantiles come from a [`HistogramSnapshot`]: the reported value is the
//! *inclusive upper bound* of the bucket holding the rank-`ceil(q·n)`
//! sample, so `value ≤ quantile(q)` holds for at least a `q` fraction of
//! recorded samples by construction.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: log2 of the number of buckets per octave.
const SUB_BITS: u32 = 3;
/// Number of sub-buckets per power of two (and the exact-value range).
pub const SUB_PER_OCTAVE: u64 = 1 << SUB_BITS;
/// Total bucket count. The largest reachable index for a `u64` value is
/// `((63 - SUB_BITS + 1) << SUB_BITS) + (SUB_PER_OCTAVE - 1) = 495`, so
/// 512 covers the full range with headroom.
pub const BUCKETS: usize = 512;

/// Bucket index for a recorded value. Values below [`SUB_PER_OCTAVE`]
/// index directly (exact); larger values use the top `SUB_BITS + 1` bits.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_PER_OCTAVE {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        ((((msb - SUB_BITS + 1) << SUB_BITS) | ((value >> shift) as u32 & 0b111)) as usize)
            .min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `index`.
#[inline]
pub fn bucket_low(index: usize) -> u64 {
    if index < SUB_PER_OCTAVE as usize {
        index as u64
    } else {
        let group = (index >> SUB_BITS) as u32;
        let sub = (index as u64) & (SUB_PER_OCTAVE - 1);
        (SUB_PER_OCTAVE + sub) << (group - 1)
    }
}

/// Inclusive upper bound of bucket `index` (saturating at `u64::MAX`).
#[inline]
pub fn bucket_high(index: usize) -> u64 {
    if index < SUB_PER_OCTAVE as usize {
        index as u64
    } else {
        let group = (index >> SUB_BITS) as u32;
        let sub = (index as u64) & (SUB_PER_OCTAVE - 1);
        let next = ((SUB_PER_OCTAVE + sub + 1) as u128) << (group - 1);
        u64::try_from(next - 1).unwrap_or(u64::MAX)
    }
}

/// A lock-free log-bucketed histogram. Recording and merging are atomic
/// (relaxed) and allocation-free; snapshots copy the buckets out for
/// quantile queries.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    /// Sum of all recorded values (saturating semantics are not needed:
    /// nanosecond latencies would need ~584 years of recorded time to
    /// overflow).
    sum: AtomicU64,
}

impl Histogram {
    /// A fresh, empty histogram. This is the only allocating operation.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram { buckets: buckets.into_boxed_slice(), sum: AtomicU64::new(0) }
    }

    /// Record one value. One relaxed `fetch_add` per call plus the sum.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Fold another histogram (e.g. a per-worker shard) into this one.
    /// Exactly equivalent to having recorded the shard's values here.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = src.load(Ordering::Relaxed);
            if v != 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Copy the current state out for quantile queries and export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistogramSnapshot { buckets, sum: self.sum.load(Ordering::Relaxed) }
    }

    /// Reset every bucket to zero (test/bench support; not linearizable
    /// against concurrent recorders).
    pub fn clear(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// An owned copy of a histogram's buckets, for quantiles and export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the recorded values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum as f64 / n as f64)
    }

    /// The `(low, high)` inclusive bounds of the bucket holding the
    /// rank-`ceil(q·n)` sample, or `None` when empty. Every recorded
    /// value with rank ≤ that rank is ≤ `high`.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((bucket_low(i), bucket_high(i)));
            }
        }
        None
    }

    /// Conservative quantile: the inclusive upper bound of the bucket
    /// holding the rank-`ceil(q·n)` sample (`None` when empty).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bounds(q).map(|(_, high)| high)
    }

    /// Largest recorded bucket's upper bound (`None` when empty).
    pub fn max_bound(&self) -> Option<u64> {
        self.buckets.iter().enumerate().rev().find(|(_, &c)| c > 0).map(|(i, _)| bucket_high(i))
    }

    /// Non-empty buckets as `(low, high, count)` triples, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_low(i), bucket_high(i), c))
    }

    /// Fold another snapshot into this one (bucket-wise sum).
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
        self.sum += other.sum;
    }
}
