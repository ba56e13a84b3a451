//! # radqec-core
//!
//! The paper's primary contribution, assembled from the substrate crates:
//! surface-code construction ([`codes`]), syndrome decoding ([`decoder`]),
//! the radiation fault-injection engine ([`injection`]), the multi-round
//! syndrome-streaming engine behind online event detection ([`streaming`]),
//! the campaign core both engines sit on ([`campaign`]) and the
//! experiment harnesses that regenerate every figure of the
//! evaluation plus the beyond-paper detection sweep ([`experiments`]).
//!
//! Reproduces *"On the Efficacy of Surface Codes in Compensating for
//! Radiation Events in Superconducting Devices"* (Vallero, Casagranda,
//! Vella, Rech — SC 2024, arXiv:2407.10841).
//!
//! ## End-to-end example
//!
//! ```
//! use radqec_core::codes::RepetitionCode;
//! use radqec_core::injection::InjectionEngine;
//! use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};
//!
//! // Distance-(5,1) bit-flip repetition code on the paper's 5×2 lattice.
//! let engine = InjectionEngine::builder(RepetitionCode::bit_flip(5).into())
//!     .shots(200)
//!     .seed(7)
//!     .build();
//!
//! // No fault, no noise: the code always decodes to logical |1⟩.
//! let clean = engine.run(&FaultSpec::None, &NoiseSpec::noiseless());
//! assert_eq!(clean.logical_error_rate(), 0.0);
//!
//! // A radiation strike on physical qubit 2 degrades it badly at impact.
//! let strike = FaultSpec::Radiation { model: RadiationModel::default(), root: 2 };
//! let hit = engine.run(&strike, &NoiseSpec::paper_default());
//! assert!(hit.peak_logical_error() > clean.logical_error_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod codes;
pub mod decoder;
pub mod experiments;
pub mod injection;
pub mod logical;
pub mod stats;
pub mod streaming;
