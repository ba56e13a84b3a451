//! Reproduction harnesses, one module per artefact of the paper's
//! evaluation (Sec. V), plus the beyond-paper detection sweep:
//!
//! | Module | Artefact |
//! |--------|----------|
//! | [`series`] | Fig. 3 (temporal decay), Fig. 4 (spatial decay) |
//! | [`fig5`]   | Fig. 5 — noise × radiation logical-error landscape |
//! | [`fig6`]   | Fig. 6 — criticality by code distance |
//! | [`fig7`]   | Fig. 7 — spreading fault vs. erasure faults |
//! | [`fig8`]   | Fig. 8 — per-qubit error across architectures |
//! | [`detection`] | beyond-paper — online strike detection over streamed multi-round syndromes (ROC / latency / localization per strike position × detector) |
//! | [`mitigation`] | beyond-paper — strike-aware decoding: logical-error rate with a detected/oracle strike mask feeding the MWPM reweighting layer vs. the unaware decoder (strike geometry × mask policy × distance) |
//! | [`fleet`] | beyond-paper — fleet-scale endurance: multiple patches tiled on one device mesh under Poisson strike arrivals on a continuing timeline, run on the supervised execution layer (bursts per device-hour, detection coverage, time to recovery, checkpoint/resume) |
//! | [`streaming_ler`] | beyond-paper — absolute streaming LER: the round-by-round detect→decode loop ([`StreamDecoder`](crate::decoder::StreamDecoder)) scored against the unaware decoder on bit-identical strike streams |
//!
//! Each harness exposes a `Config` (with paper defaults), a typed result
//! with a `to_csv` renderer, and a `run_*` entry point. The
//! `radqec-bench` crate wraps each in a binary.

pub mod detection;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fleet;
pub mod mitigation;
pub mod series;
pub mod streaming_ler;

pub use detection::{run_detection, DetectionConfig, DetectionResult, DetectionRow};
pub use fig5::{run_fig5, Fig5Config, Fig5Result, Fig5Row};
pub use fig6::{run_fig6, Fig6Config, Fig6Result, Fig6Row};
pub use fig7::{run_fig7, Fig7Config, Fig7Result, Fig7Row};
pub use fig8::{run_fig8, Fig8Arch, Fig8Config, Fig8Qubit, Fig8Result, PhysicalRole};
pub use fleet::{
    poisson_strikes, run_fleet, score_strikes, FleetConfig, FleetLayout, FleetMetrics, FleetResult,
    PatchSummary, StrikeRow,
};
pub use mitigation::{
    mitigation_engine, run_mitigation, MaskPolicy, MitigationConfig, MitigationResult,
    MitigationRow,
};
pub use series::{fig3_series, fig4_grid, Fig3Point};
pub use streaming_ler::{
    calibrate_stream, central_root, run_streaming_ler, streaming_engine, try_streaming_engine,
    StreamingLerConfig, StreamingLerResult, StreamingLerRow,
};
