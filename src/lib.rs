//! # radqec
//!
//! Facade crate for the `radqec` workspace: a radiation-fault injection
//! toolkit for quantum-error-correction surface codes, reproducing
//! *"On the Efficacy of Surface Codes in Compensating for Radiation Events
//! in Superconducting Devices"* (Vallero et al., SC 2024).
//!
//! Re-exports the library crates under a stable module path. The dense
//! state-vector simulator (`radqec-statevector`) is a test oracle only and
//! is not re-exported.
//!
//! ```
//! use radqec::prelude::*;
//!
//! // Build the paper's distance-(3,1) bit-flip repetition code and check it
//! // decodes noiselessly to logical |1⟩.
//! let code = RepetitionCode::bit_flip(3);
//! let engine = InjectionEngine::builder(CodeSpec::from(code))
//!     .shots(64)
//!     .seed(7)
//!     .build();
//! let out = engine.run(&FaultSpec::None, &NoiseSpec::noiseless());
//! assert_eq!(out.logical_error_rate(), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use radqec_circuit as circuit;
pub use radqec_core as core;
pub use radqec_detect as detect;
pub use radqec_matching as matching;
pub use radqec_noise as noise;
pub use radqec_stabilizer as stabilizer;
pub use radqec_telemetry as telemetry;
pub use radqec_topology as topology;
pub use radqec_transpiler as transpiler;

/// The most commonly used items across the workspace, for glob import.
pub mod prelude {
    pub use radqec_circuit::{Backend, Circuit, Gate, ShotRecord};
    pub use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
    pub use radqec_core::decoder::{BulkDecoder, MwpmDecoder};
    pub use radqec_core::injection::{InjectionEngine, InjectionOutcome, SamplerKind};
    pub use radqec_core::streaming::{StreamEngine, StreamFault};
    pub use radqec_detect::{CusumDetector, EventStream, Localizer, OnlineDetector};
    pub use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};
    pub use radqec_stabilizer::StabilizerBackend;
    pub use radqec_telemetry::{FlightRecorder, MetricsRegistry, MetricsSnapshot, SpanTimer};
    pub use radqec_topology::Topology;
    pub use radqec_transpiler::{transpile, RouterKind, Transpiled};
}
