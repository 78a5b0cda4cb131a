//! Cost models and auto-tuning for S-EnKF (paper §4.3–§4.4).
//!
//! * `model` — Table 1's parameters and the closed-form phase costs:
//!   `T_read` (Eq. 7), `T_comm` (Eq. 8), `T_comp` (Eq. 9) and the total
//!   `T_total = T_read + T_comm + L·T_comp` (Eq. 10; read and communication
//!   appear once because every stage after the first is overlapped with
//!   computation).
//! * `tune` — problem (12)'s feasible set, enumerated once
//!   ([`candidates`]: every `(n_sdx, n_sdy, L, n_cg)` with
//!   `n_sdx·n_sdy = C₂` that decomposes the workload), Algorithm 1 (the
//!   minimizer of `T₁ = T_read + T_comm` over the candidates with
//!   `n_cg·n_sdy = C₁`), the earnings-rate economic choice (Eqs. 13–14),
//!   and Algorithm 2 (the full auto-tuner over the processor budget, one
//!   pass over the candidates per `C₂`).

#![deny(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub(crate) mod model;
pub(crate) mod tune;

pub use model::{CostParams, MachineParams, Params, Workload};
pub use tune::{
    algorithm1, autotune, candidates, economic_choice, min_t1_curve, CurvePoint, TunedParams,
};
