//! # radqec-noise
//!
//! The two stochastic models of the paper, plus the executor that weaves
//! them into circuit execution:
//!
//! * **Intrinsic noise** ([`NoiseSpec`]) — the depolarizing Pauli channel of
//!   Eq. 4: after each gate with probability `p`, an X/Y/Z is appended
//!   (each `p/3`); two-qubit gates receive `E ⊗ E`.
//! * **Radiation faults** ([`RadiationModel`], [`FaultSpec`]) — the
//!   transient fault of Eq. 5–7: a strike at a root qubit appends
//!   probabilistic resets after every gate, with probability
//!   `F(t, d) = e^(−γt) · 1/(d+1)²` decaying over the event's `n_s`
//!   temporal samples and with graph distance from the impact.
//! * [`run_noisy_shot`] — executes one shot with both models active;
//! * [`run_noisy_batch`] — the bit-packed Pauli-frame batch executor: 64
//!   shots per word against a precomputed noiseless reference (the fast
//!   path behind the injection engine's default sampler).
//!
//! Both executors also come in `_segmented` variants taking a
//! piecewise-constant fault timeline (`&[(start_op, &ActiveFault)]`) — the
//! primitive behind multi-round syndrome streaming, where the radiation
//! transient decays from one stabilizer round to the next *within* a shot.
//!
//! ```
//! use radqec_noise::{temporal_decay, spatial_damping};
//!
//! // Paper Fig. 3 / Fig. 4 anchor points:
//! assert_eq!(temporal_decay(0.0, 10.0), 1.0);
//! assert_eq!(spatial_damping(1, 1.0), 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod depolarizing;
mod executor;
mod fault;
mod radiation;
mod skip;
mod workspace;

pub use batch::{run_noisy_batch, run_noisy_batch_segmented, run_noisy_ops_segmented};
pub use depolarizing::NoiseSpec;
pub use executor::{run_noisy_shot, run_noisy_shot_segmented};
pub use fault::{ActiveFault, FaultSpec, ResetBasis};
pub use radiation::{
    spatial_damping, temporal_decay, transient_decay, RadiationEvent, RadiationModel, StrikeError,
};
pub use workspace::{StreamWorkspace, WorkspacePool, WorkspaceStats};
