//! # radqec-detect
//!
//! Online radiation-event detection over streamed multi-round syndromes —
//! the workload opened by the paper's follow-up line of work (Vallero et
//! al., *Radiation-Induced Fault Detection in Superconducting Quantum
//! Devices*; Harrington et al., *Synchronous Detection of Cosmic Rays and
//! Correlated Errors in Superconducting Qubit Arrays*): instead of asking
//! *offline* "what is the logical error rate at sample `t_k`?", watch the
//! detection-event stream of repeated stabilisation rounds *online* and
//! raise an alarm — ideally within a round or two of the strike — plus an
//! estimate of where on the chip it landed.
//!
//! ## Pipeline
//!
//! 1. A streaming engine (`radqec_core::streaming`) runs `R` stabilisation
//!    rounds per shot with the radiation transient `F(t, d)` decaying
//!    across rounds, producing bit-packed [`ShotBatch`] records.
//! 2. [`EventStream::extract`] turns those records into per-round
//!    **detection-event bit-planes**: the XOR of consecutive-round
//!    syndromes (round 0 against the deterministic initial value, where
//!    one exists), one `u64` word per 64 shots — extraction is
//!    word-parallel end to end.
//! 3. Pluggable [`OnlineDetector`]s consume a shot's per-round event
//!    counts and report a [`Detection`]: an anomaly **score** (for ROC
//!    analysis) and the **alarm round** (for detection latency). Shipped
//!    detectors: a per-round threshold ([`ThresholdDetector`]) and a CUSUM
//!    change-point detector ([`CusumDetector`]).
//! 4. The [`Localizer`] estimates the strike root from the damped-defect
//!    centroid of a sliding window of events, on the device [`Topology`]
//!    — its error metric is BFS hops from the true root.
//! 5. [`roc_auc`] ranks strike-stream scores against intrinsic-noise-only
//!    scores (tie-corrected Mann–Whitney), the harness's separability
//!    metric.
//! 6. [`StrikeMask`] closes the loop: the clusterer's root, ring radius
//!    and decay estimate packaged as a per-qubit elevated-error profile
//!    that a strike-aware decoder (`radqec_core::decoder`) consumes to
//!    reweight matching inside the struck region.
//!
//! The crate deliberately depends only on `radqec-circuit` (records) and
//! `radqec-topology` (localization): detectors see exactly what a
//! real-time decoder co-processor would see — classical bits and the
//! device graph — never the simulator's ground truth. Callers that
//! flight-record alarms (the fleet's spike gate) do so themselves.
//!
//! ## BENCH_detect.json → registry metrics
//!
//! The percentile fields `detect_throughput` emits come from these
//! registry metrics (names in `radqec_telemetry::names`):
//!
//! | BENCH field | registry metric | recorded by |
//! |---|---|---|
//! | `round_latency_us_p50` / `_p99` | `stream.round_ns` | `StreamEngine::for_each_round` (generation + sink per chunk-round) |
//! | `generate_latency_us_p50` / `_p99` | `stage.generate_ns` | `StreamEngine` executor span per chunk-round |
//! | `extract_latency_us_p99` | `stage.extract_ns` | bench pipeline's `EventAccumulator::push_round` span |
//! | `detect_latency_us_p99` | `stage.detect_ns` | bench pipeline's detector-push span |
//!
//! All stage histograms record nanoseconds; the bench helper converts
//! bucket bounds to microseconds on export.
//!
//! [`ShotBatch`]: radqec_circuit::ShotBatch
//! [`Topology`]: radqec_topology::Topology

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod detectors;
mod events;
mod mask;
mod roc;

pub use cluster::{ClusterDetector, Localizer, WindowCluster};
pub use detectors::CountDetectorState;
pub use detectors::{CusumDetector, Detection, OnlineDetector, ThresholdDetector};
pub use events::{EventAccumulator, EventStream, StreamSpec};
pub use mask::{MaskError, StrikeMask};
pub use roc::{median_u32, quantile, roc_auc};
