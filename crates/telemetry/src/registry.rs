//! Named metric registry: counters, gauges and histograms addressable by
//! dotted string names, plus mergeable snapshots with Prometheus text
//! export.
//!
//! A [`MetricsRegistry`] hands out `Arc` handles via get-or-create
//! lookups; engines resolve their handles once at construction so the
//! hot path touches only the atomic inside the handle, never the name
//! map. Engines own private registries (the stream/injection engines
//! do, so per-engine stats stay isolated) or share one passed in by the
//! caller; [`MetricsSnapshot::merge_from`] folds any number of
//! registries into one export.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing named counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge holding the most recently set value.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Get-or-create registry of named metrics. Lookups lock a name map;
/// resolved handles are lock-free.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry (engines own these for isolated stats).
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_owned()).or_insert_with(|| Arc::new(Histogram::new())))
    }

    /// Copy every metric's current value out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// A point-in-time copy of a registry's metrics, mergeable across
/// registries and exportable as Prometheus text exposition.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Fold another snapshot into this one: counters and histogram
    /// buckets sum; a gauge present in both keeps the larger value.
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge_from(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// Histogram snapshot by name, if present and non-empty.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name).filter(|h| h.count() > 0)
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Prometheus text exposition (version 0.0.4): counters and gauges
    /// as single samples, histograms as cumulative `_bucket{le=...}`
    /// series plus `_sum` / `_count`. Dots in metric names become
    /// underscores.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = sanitize(k);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (k, v) in &self.gauges {
            let name = sanitize(k);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (k, h) in &self.histograms {
            let name = sanitize(k);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (_, high, count) in h.nonzero_buckets() {
                cumulative += count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{high}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {cumulative}");
        }
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; map everything else
/// (the registry's dots in particular) to underscores.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}
