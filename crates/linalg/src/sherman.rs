//! Iterative Sherman-Morrison solver for the EnKF analysis system.
//!
//! The batched (covariance-form) analysis needs `Z = C⁻¹ B` with
//! `C = R + V Vᵀ`, where `R = diag(r)` is the diagonal data-error
//! covariance and `V ∈ R^{m×N}` holds the scaled observed anomalies. The
//! modified-Cholesky core factors `C` explicitly; this module implements
//! the inversion-free alternative of Nino-Ruiz, Sandu & Anderson
//! (arXiv 1302.3876): treat `V Vᵀ` as a sum of `N` rank-1 updates of `R`
//! and fold each one into the solution with the Sherman-Morrison formula,
//! never materializing `C` or any factor of it.
//!
//! Per update `k` the scheme maintains `U = C_k⁻¹ V` and `Z = C_k⁻¹ B`
//! for the partially-updated `C_k = R + Σ_{i<k} v_i v_iᵀ`:
//!
//! ```text
//! U ← R⁻¹ V,  Z ← R⁻¹ B
//! for k in 0..N:
//!     γ  = 1 / (1 + v_kᵀ u_k)
//!     u_j ← u_j − γ (v_kᵀ u_j) u_k    for j > k
//!     z_j ← z_j − γ (v_kᵀ z_j) u_k    for every right-hand side j
//! ```
//!
//! Cost is `O(m N (N + n_rhs))` flops and `O(m N)` workspace — linear in
//! the observation count `m`, which is what makes it attractive for the
//! batched executor where `m` is the full network, not a localization box.

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// Reusable workspace for the iterative Sherman-Morrison solve. Holds the
/// `m × N` update buffer `U` so repeated solves (one per cycle per rank)
/// allocate nothing after the first.
#[derive(Debug, Clone)]
pub struct ShermanMorrisonWorkspace {
    u: Matrix,
}

impl Default for ShermanMorrisonWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl ShermanMorrisonWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        ShermanMorrisonWorkspace {
            u: Matrix::zeros(0, 0),
        }
    }

    /// Solve `(diag(r) + V Vᵀ) Z = B` in place: on entry `z` holds the
    /// right-hand sides `B` (`m × n_rhs`), on exit the solution `Z`.
    ///
    /// `r` must be strictly positive (a diagonal SPD `R`); `V` is `m × N`.
    /// Fails with [`LinalgError::NotPositiveDefinite`] if a rank-1 update
    /// loses positivity (impossible in exact arithmetic for valid inputs,
    /// so it signals a malformed `r`).
    pub(crate) fn solve_in_place(&mut self, r: &[f64], v: &Matrix, z: &mut Matrix) -> Result<()> {
        let m = v.nrows();
        let n = v.ncols();
        if r.len() != m {
            return Err(LinalgError::DimMismatch {
                op: "sherman-morrison solve (diag vs V)",
                lhs: (r.len(), 1),
                rhs: (m, n),
            });
        }
        if z.nrows() != m {
            return Err(LinalgError::DimMismatch {
                op: "sherman-morrison solve (V vs B)",
                lhs: (m, n),
                rhs: (z.nrows(), z.ncols()),
            });
        }
        for (i, &ri) in r.iter().enumerate() {
            // Negated comparison so NaN variances are rejected too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(ri > 0.0) {
                return Err(LinalgError::NotPositiveDefinite(i));
            }
        }

        // U ← R⁻¹ V, Z ← R⁻¹ B.
        self.u.resize(m, n);
        for i in 0..m {
            let inv = 1.0 / r[i];
            let (vr, ur) = (v.row(i), self.u.row_mut(i));
            for k in 0..n {
                ur[k] = vr[k] * inv;
            }
            for val in z.row_mut(i) {
                *val *= inv;
            }
        }

        let nrhs = z.ncols();
        for k in 0..n {
            // γ = 1 / (1 + v_kᵀ u_k); u_k is column k of the current U.
            let mut den = 1.0;
            for i in 0..m {
                den += v[(i, k)] * self.u[(i, k)];
            }
            // Negated comparison so a NaN denominator is rejected too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(den > 0.0) {
                return Err(LinalgError::NotPositiveDefinite(k));
            }
            let gamma = 1.0 / den;

            // Remaining update columns: u_j ← u_j − γ (v_kᵀ u_j) u_k.
            for j in k + 1..n {
                let mut dot = 0.0;
                for i in 0..m {
                    dot += v[(i, k)] * self.u[(i, j)];
                }
                let scale = gamma * dot;
                for i in 0..m {
                    let uk = self.u[(i, k)];
                    self.u[(i, j)] -= scale * uk;
                }
            }
            // Right-hand sides: z_j ← z_j − γ (v_kᵀ z_j) u_k.
            for j in 0..nrhs {
                let mut dot = 0.0;
                for i in 0..m {
                    dot += v[(i, k)] * z[(i, j)];
                }
                let scale = gamma * dot;
                for i in 0..m {
                    let uk = self.u[(i, k)];
                    z[(i, j)] -= scale * uk;
                }
            }
        }
        Ok(())
    }

    /// Allocating convenience form of
    /// `ShermanMorrisonWorkspace::solve_in_place`: returns
    /// `Z = (diag(r) + V Vᵀ)⁻¹ B`.
    pub fn solve(&mut self, r: &[f64], v: &Matrix, b: &Matrix) -> Result<Matrix> {
        let mut z = b.clone();
        self.solve_in_place(r, v, &mut z)?;
        Ok(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::GaussianSampler;
    use crate::Cholesky;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_system(m: usize, n: usize, nrhs: usize, seed: u64) -> (Vec<f64>, Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let r: Vec<f64> = (0..m).map(|_| 0.2 + gs.sample(&mut rng).abs()).collect();
        let v = Matrix::from_fn(m, n, |_, _| gs.sample(&mut rng));
        let b = Matrix::from_fn(m, nrhs, |_, _| gs.sample(&mut rng));
        (r, v, b)
    }

    fn dense_c(r: &[f64], v: &Matrix) -> Matrix {
        let mut c = v.matmul_tr(v).unwrap();
        for (i, &ri) in r.iter().enumerate() {
            c[(i, i)] += ri;
        }
        c
    }

    #[test]
    fn matches_cholesky_solve() {
        for (m, n, nrhs, seed) in [(7, 4, 3, 1u64), (12, 5, 12, 2), (5, 9, 1, 3), (1, 1, 1, 4)] {
            let (r, v, b) = random_system(m, n, nrhs, seed);
            let mut ws = ShermanMorrisonWorkspace::new();
            let z = ws.solve(&r, &v, &b).unwrap();
            let oracle = Cholesky::factor(&dense_c(&r, &v))
                .unwrap()
                .solve(&b)
                .unwrap();
            assert!(
                z.approx_eq(&oracle, 1e-9),
                "m={m} n={n} nrhs={nrhs}: SM and Cholesky disagree"
            );
        }
    }

    #[test]
    fn residual_is_small() {
        let (r, v, b) = random_system(10, 6, 4, 7);
        let mut ws = ShermanMorrisonWorkspace::new();
        let z = ws.solve(&r, &v, &b).unwrap();
        let back = dense_c(&r, &v).matmul(&z).unwrap();
        assert!(back.approx_eq(&b, 1e-9), "C·Z must reproduce B");
    }

    #[test]
    fn workspace_reuse_across_shapes_is_clean() {
        let mut ws = ShermanMorrisonWorkspace::new();
        for (m, n, nrhs, seed) in [(9, 3, 2, 11u64), (4, 7, 5, 12), (9, 3, 2, 11)] {
            let (r, v, b) = random_system(m, n, nrhs, seed);
            let z = ws.solve(&r, &v, &b).unwrap();
            let oracle = Cholesky::factor(&dense_c(&r, &v))
                .unwrap()
                .solve(&b)
                .unwrap();
            assert!(
                z.approx_eq(&oracle, 1e-9),
                "reuse with seed {seed} diverged"
            );
        }
    }

    #[test]
    fn zero_rank_update_is_diagonal_solve() {
        let r = vec![2.0, 4.0];
        let v = Matrix::zeros(2, 0);
        let b = Matrix::from_vec(2, 1, vec![6.0, 6.0]).unwrap();
        let mut ws = ShermanMorrisonWorkspace::new();
        let z = ws.solve(&r, &v, &b).unwrap();
        assert_eq!(z.as_slice(), &[3.0, 1.5]);
    }

    #[test]
    fn shape_and_positivity_errors_are_typed() {
        let mut ws = ShermanMorrisonWorkspace::new();
        let v = Matrix::zeros(3, 2);
        let mut b = Matrix::zeros(3, 1);
        assert!(matches!(
            ws.solve_in_place(&[1.0; 2], &v, &mut b),
            Err(LinalgError::DimMismatch { .. })
        ));
        let mut short = Matrix::zeros(2, 1);
        assert!(matches!(
            ws.solve_in_place(&[1.0; 3], &v, &mut short),
            Err(LinalgError::DimMismatch { .. })
        ));
        assert!(matches!(
            ws.solve_in_place(&[1.0, -1.0, 1.0], &v, &mut b),
            Err(LinalgError::NotPositiveDefinite(1))
        ));
    }
}
