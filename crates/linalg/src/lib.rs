//! Dense linear algebra kernels for the S-EnKF reproduction.
//!
//! The paper's local analysis (Eq. 6) needs a small set of dense operations:
//! matrix products, the symmetric positive-definite (Cholesky) factorization,
//! triangular solves, and the *modified Cholesky* estimator of the
//! inverse background-error covariance matrix used by P-EnKF
//! (Nino-Ruiz, Sandu & Deng, SISC 2018). Operational implementations call
//! LAPACK/CuBLAS; this crate implements the same kernels from scratch so the
//! whole stack is self-contained Rust.
//!
#![deny(unreachable_pub)]
// Triangular factorizations and banded scans read most naturally with
// explicit indices; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

//! Matrices are dense, row-major `f64`. All products bottom out in the
//! [`kernel`] layer: one cache-oblivious divide-and-conquer GEMM over
//! register-tiled bodies compiled for AVX2 and the baseline, bit-identical
//! to the original blocked loops (see `kernel` for the determinism
//! contract).

pub(crate) mod chol;
pub(crate) mod eigen;
pub mod kernel;
pub(crate) mod lstsq;
pub(crate) mod matrix;
pub(crate) mod modchol;
pub(crate) mod rng;
pub(crate) mod sherman;

pub use chol::Cholesky;
pub use eigen::EigenWorkspace;
pub use lstsq::ridge_least_squares;
pub use matrix::Matrix;
pub use modchol::{ModCholWorkspace, ModifiedCholesky};
pub use rng::GaussianSampler;
pub use sherman::ShermanMorrisonWorkspace;

/// Errors produced by factorizations and shape-checked operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible: `(found_rows, found_cols)` vs expectation.
    DimMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// The matrix was expected to be symmetric positive definite but a
    /// non-positive pivot was found at the given index.
    NotPositiveDefinite(usize),
    /// The matrix must be square for this operation.
    NotSquare {
        /// Shape that was found.
        shape: (usize, usize),
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimMismatch { op, lhs, rhs } => {
                write!(f, "{op}: dimension mismatch {lhs:?} vs {rhs:?}")
            }
            LinalgError::NotPositiveDefinite(i) => {
                write!(f, "matrix is not positive definite (pivot {i})")
            }
            LinalgError::NotSquare { shape } => write!(f, "matrix is not square: {shape:?}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for fallible linalg operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
