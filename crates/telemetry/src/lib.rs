//! # radqec-telemetry — unified metrics, stage timing and flight recording
//!
//! The accounting substrate for the stream → detect → decode pipeline.
//! Three pieces, all cheap enough for the 7.6 µs/chunk-round hot path:
//!
//! * **[`MetricsRegistry`]** — named atomic [`Counter`]s / [`Gauge`]s and
//!   lock-free log-bucketed [`Histogram`]s, resolved to `Arc` handles once
//!   at engine construction (the hot path never touches the name map).
//!   Engines own private registries or share one the caller passes in;
//!   [`MetricsSnapshot`]s merge across registries and export as
//!   Prometheus text exposition.
//! * **[`SpanTimer`]** — a scope guard that records the elapsed
//!   nanoseconds of a pipeline stage (generate → extract → detect →
//!   decode) into a histogram on drop. When telemetry is
//!   disabled ([`set_enabled`]`(false)`) constructing one is a single
//!   relaxed load and no clock is read.
//! * **[`FlightRecorder`]** — a bounded, pre-allocated ring of
//!   round-stamped typed [`FlightEvent`]s (strike onsets, detector
//!   alarms, mask raises, chunk retries/quarantines, degraded decodes,
//!   cache evictions): the black box a campaign is debugged from.
//!
//! ## Adding a metric
//!
//! Pick a dotted name (add it to [`names`] if it crosses a crate
//! boundary), resolve the handle once where the owning structure is
//! built (`registry.counter(names::...)`), and bump the handle on the
//! hot path. Snapshots pick it up automatically; a throughput bin
//! exports a histogram as BENCH fields through the bench crate's
//! `Record::p50_p99`, which scales the bucket bounds (nanoseconds to
//! microseconds for `_ns` spans).
//!
//! ## Invariants
//!
//! Telemetry never touches the physics: no RNG draws, no effect on
//! sampled data (the golden-stream digests are pinned with telemetry on
//! and off), and warm campaigns allocate nothing (handles, histograms
//! and the recorder ring are all pre-allocated).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod recorder;
mod registry;

pub use histogram::{
    bucket_high, bucket_index, bucket_low, Histogram, HistogramSnapshot, BUCKETS, SUB_PER_OCTAVE,
};
pub use recorder::{FlightEntry, FlightEvent, FlightRecorder, DEFAULT_RECORDER_CAPACITY};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Canonical metric names shared across crates, so BENCH fields, module
/// docs and dashboards all refer to the same strings.
pub mod names {
    /// Rounds generated by a `StreamEngine` (counter).
    pub const STREAM_ROUNDS_GENERATED: &str = "stream.rounds_generated";
    /// Chunks generated by a `StreamEngine` (counter).
    pub const STREAM_CHUNKS_GENERATED: &str = "stream.chunks_generated";
    /// Chunks claimed by a worker other than the one that owns the
    /// preceding chunk (counter).
    pub const STREAM_CHUNKS_STOLEN: &str = "stream.chunks_stolen";
    /// Supervised chunk retries after a caught panic (counter).
    pub const STREAM_CHUNK_RETRIES: &str = "stream.chunk_retries";
    /// Workspaces quarantined after a caught panic (counter).
    pub const STREAM_WORKSPACES_QUARANTINED: &str = "stream.workspaces_quarantined";
    /// Stream workspaces allocated (gauge, set at snapshot).
    pub const WORKSPACE_ALLOCATED: &str = "workspace.allocated";
    /// Stream workspace reuses (gauge, set at snapshot).
    pub const WORKSPACE_REUSED: &str = "workspace.reused";
    /// Reference-trace cache entries (gauge, set at snapshot).
    pub const REFERENCE_ENTRIES: &str = "reference.entries";
    /// Reference-trace cache evictions (gauge, set at snapshot).
    pub const REFERENCE_EVICTIONS: &str = "reference.evictions";

    /// Full wall time of one chunk-round — generation plus the sink's
    /// consumption — nanoseconds (histogram).
    pub const STREAM_ROUND_NS: &str = "stream.round_ns";
    /// Wall time of one chunk-round generation, nanoseconds (histogram).
    pub const STAGE_GENERATE_NS: &str = "stage.generate_ns";
    /// Wall time of event extraction per chunk, nanoseconds (histogram).
    pub const STAGE_EXTRACT_NS: &str = "stage.extract_ns";
    /// Wall time of online detection per chunk, nanoseconds (histogram).
    pub const STAGE_DETECT_NS: &str = "stage.detect_ns";
    /// Wall time of one decode call, nanoseconds (histogram).
    pub const STAGE_DECODE_NS: &str = "stage.decode_ns";

    /// Shots decoded (counter).
    pub const DECODE_SHOTS: &str = "decode.shots";
    /// Trivial (all-zero syndrome) decodes (counter).
    pub const DECODE_TRIVIAL: &str = "decode.trivial";
    /// Syndrome-cache hits (counter).
    pub const DECODE_CACHE_HITS: &str = "decode.cache_hits";
    /// Exact matchings run (counter).
    pub const DECODE_MATCHINGS: &str = "decode.matchings";
    /// Deadline-degraded decodes (counter).
    pub const DECODE_DEGRADED: &str = "decode.degraded";
    /// Mask-context cache hits (counter).
    pub const DECODE_MASK_HITS: &str = "decode.mask_hits";
    /// Distinct syndromes held by the unmasked syndrome cache (gauge).
    pub const DECODE_CACHE_ENTRIES: &str = "decode.cache_entries";
    /// Entries evicted from the unmasked syndrome cache (gauge).
    pub const DECODE_CACHE_EVICTIONS: &str = "decode.cache_evictions";
    /// Interned strike-mask contexts (gauge).
    pub const DECODE_MASK_CONTEXTS: &str = "decode.mask_contexts";
    /// Mask contexts evicted by the LRU ceiling (gauge).
    pub const DECODE_MASK_EVICTIONS: &str = "decode.mask_evictions";

    /// Online detector alarms raised (counter).
    pub const DETECT_ALARMS: &str = "detect.alarms";
    /// Strike onset → detection gap in rounds (histogram).
    pub const DETECT_LATENCY_ROUNDS: &str = "detect.latency_rounds";
    /// Strike onset → recovery gap in microseconds (histogram).
    pub const FLEET_TIME_TO_RECOVERY_US: &str = "fleet.time_to_recovery_us";
}

/// Process-wide telemetry switch (default **on**; flipping it off turns
/// [`SpanTimer::start`] into a no-op that never reads the clock).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable span timing process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span timing is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Scope guard timing a pipeline stage into a [`Histogram`].
///
/// ```
/// use radqec_telemetry::{Histogram, SpanTimer};
/// let hist = Histogram::new();
/// {
///     let _span = SpanTimer::start(&hist);
///     // ... stage work ...
/// }
/// assert_eq!(hist.count(), 1);
/// ```
pub struct SpanTimer<'a> {
    inner: Option<(&'a Histogram, Instant)>,
}

impl<'a> SpanTimer<'a> {
    /// Begin timing into `hist`. When telemetry is disabled this is a
    /// single relaxed load — no clock read, and drop records nothing.
    #[inline]
    pub fn start(hist: &'a Histogram) -> Self {
        SpanTimer { inner: enabled().then(|| (hist, Instant::now())) }
    }

    /// Record the elapsed time now instead of at scope exit.
    #[inline]
    pub fn finish(mut self) {
        self.observe();
    }

    /// Record the elapsed time amortised over `n` items: one observation
    /// of `elapsed / n`. For stages that process a batch per call (e.g. a
    /// chunk of shots per round) but whose histogram carries per-item
    /// semantics shared with per-item callers. `n == 0` records the raw
    /// elapsed time.
    #[inline]
    pub fn finish_per(mut self, n: u64) {
        if let Some((hist, start)) = self.inner.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hist.record(ns / n.max(1));
        }
    }

    #[inline]
    fn observe(&mut self) {
        if let Some((hist, start)) = self.inner.take() {
            hist.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

impl Drop for SpanTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        self.observe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_timer_records_once() {
        let hist = Histogram::new();
        {
            let _span = SpanTimer::start(&hist);
        }
        assert_eq!(hist.count(), 1);
        SpanTimer::start(&hist).finish();
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn span_timer_disabled_is_silent() {
        let hist = Histogram::new();
        set_enabled(false);
        {
            let _span = SpanTimer::start(&hist);
        }
        set_enabled(true);
        assert_eq!(hist.count(), 0);
    }

    #[test]
    fn registry_handles_are_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.add(3);
        b.inc();
        assert_eq!(reg.snapshot().counter("x.hits"), 4);
    }

    #[test]
    fn snapshot_merge_sums_counters_and_histograms() {
        let r1 = MetricsRegistry::new();
        let r2 = MetricsRegistry::new();
        r1.counter("c").add(2);
        r2.counter("c").add(5);
        r1.histogram("h").record(10);
        r2.histogram("h").record(1000);
        let mut snap = r1.snapshot();
        snap.merge_from(&r2.snapshot());
        assert_eq!(snap.counter("c"), 7);
        assert_eq!(snap.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn recorder_ring_bounds_and_counts_drops() {
        let rec = FlightRecorder::with_capacity(2);
        rec.record(1, FlightEvent::ChunkRetry { chunk: 0 });
        rec.record(2, FlightEvent::ChunkRetry { chunk: 1 });
        rec.record(3, FlightEvent::ChunkRetry { chunk: 2 });
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.entries()[0].round, 2);
        assert_eq!(rec.first_round(|e| matches!(e, FlightEvent::ChunkRetry { chunk: 2 })), Some(3));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("stream.rounds_generated").add(7);
        reg.histogram("stage.decode_ns").record(1500);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE stream_rounds_generated counter"));
        assert!(text.contains("stream_rounds_generated 7"));
        assert!(text.contains("# TYPE stage_decode_ns histogram"));
        assert!(text.contains("stage_decode_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("stage_decode_ns_count 1"));
    }
}
