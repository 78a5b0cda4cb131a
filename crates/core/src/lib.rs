//! EnKF numerics: ensembles, observation operators, perturbed observations,
//! and the global and domain-localized analysis equations of the paper.
//!
//! The central objects are:
//!
//! * [`Ensemble`] — the background ensemble `Xᵇ ∈ R^{n×N}` (Eq. 2) with its
//!   mean and anomaly statistics (Eq. 4).
//! * [`Observations`] / [`PerturbedObservations`] — the observed values, the
//!   diagonal data-error covariance `R`, and the perturbed observation
//!   matrix `Yˢ ~ N(y, R)` (Eq. 3). Perturbations are generated
//!   *per observation row* from a deterministic seed, so any sub-setting of
//!   the observation network (localization, distribution over ranks)
//!   reproduces identical values — the property that makes the parallel
//!   implementations bit-compatible with the serial reference.
//! * [`LocalAnalysis`] — the localized analysis (Eq. 6) on a sub-domain /
//!   layer, with the inverse background covariance estimated by the
//!   modified Cholesky decomposition (P-EnKF's estimator) over either the
//!   whole expansion (`Region` granularity) or each grid point's local box
//!   (`PointWise` granularity; decomposition-invariant).
//! * [`serial_enkf`] — the single-threaded reference every parallel variant
//!   is validated against.

#![deny(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub(crate) mod analysis;
pub(crate) mod batched;
pub(crate) mod ensemble;
pub(crate) mod inflation;
pub(crate) mod letkf;
pub mod local;
pub(crate) mod observation;
pub(crate) mod serial;

pub use analysis::GlobalAnalysis;
pub use batched::{batched_transform, serial_denkf, BatchedKernel};
pub use ensemble::Ensemble;
pub use inflation::{inflate_ensemble, inflated};
pub use letkf::{serial_letkf, serial_letkf_decomposed, LetkfAnalysis, LetkfWorkspace};
pub use local::{
    AnalysisGranularity, AnomalyGram, LocalAnalysis, LocalAnalysisWorkspace, LocalObsIndex,
    LocalObservations, PointInputs,
};
pub use observation::{ObservationOperator, Observations, PerturbedObservations};
pub use serial::{serial_enkf, serial_enkf_decomposed};

/// Errors from analysis computations.
#[derive(Debug)]
pub enum EnkfError {
    /// A linear-algebra kernel failed (dimension mismatch or a factorization
    /// that lost positive definiteness).
    Linalg(enkf_linalg::LinalgError),
    /// The ensemble and observation geometries disagree.
    GeometryMismatch(String),
    /// The execution substrate failed: an unreadable member file, an
    /// exhausted retry budget, a receive timeout or a crashed rank.
    Substrate(enkf_fault::SubstrateError),
}

impl From<enkf_linalg::LinalgError> for EnkfError {
    fn from(e: enkf_linalg::LinalgError) -> Self {
        EnkfError::Linalg(e)
    }
}

impl From<enkf_fault::SubstrateError> for EnkfError {
    fn from(e: enkf_fault::SubstrateError) -> Self {
        EnkfError::Substrate(e)
    }
}

impl std::fmt::Display for EnkfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnkfError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            EnkfError::GeometryMismatch(s) => write!(f, "geometry mismatch: {s}"),
            EnkfError::Substrate(e) => write!(f, "substrate failure: {e}"),
        }
    }
}

impl std::error::Error for EnkfError {}

/// Convenience alias for fallible EnKF operations.
pub type Result<T> = std::result::Result<T, EnkfError>;
