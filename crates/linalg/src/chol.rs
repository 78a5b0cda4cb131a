//! Cholesky and LDLᵀ factorizations with triangular solves.
//!
//! The local analysis (Eq. 6) solves SPD systems with the matrix
//! `B̂⁻¹ + Hᵀ R⁻¹ H`; operationally this is done with a Cholesky
//! factorization (paper §2.3). LDLᵀ is provided as the square-root-free
//! variant used by the modified-Cholesky covariance estimator.

use crate::{LinalgError, Matrix, Result};

/// Factor the lower triangle of the SPD matrix `a` into `l` (`A = L Lᵀ`),
/// reusing `l`'s allocation; `col` is scratch for the current column.
///
/// Right-looking (outer-product) form: once column `j` is final, every
/// trailing entry `(i, m)` gets `-= L[i][j] · L[m][j]` as one contiguous
/// row update. Each entry therefore still starts from `a[(i, m)]` and has
/// its products subtracted in ascending `j` — the order, operands and bits
/// of the textbook `sum -= l[(i, k)] * l[(m, k)]` loop — but the inner
/// loop is an independent-element axpy instead of one serial dependency
/// chain, so it pipelines and vectorizes.
fn factor_into(a: &Matrix, l: &mut Matrix, col: &mut Vec<f64>) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let n = a.nrows();
    l.resize(n, n);
    for i in 0..n {
        l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
    }
    col.clear();
    col.resize(n, 0.0);
    let l = l.as_mut_slice();
    for j in 0..n {
        let pivot = l[j * n + j];
        if pivot <= 0.0 || !pivot.is_finite() {
            return Err(LinalgError::NotPositiveDefinite(j));
        }
        let ljj = pivot.sqrt();
        l[j * n + j] = ljj;
        for i in (j + 1)..n {
            let lij = l[i * n + j] / ljj;
            l[i * n + j] = lij;
            col[i] = lij;
        }
        for i in (j + 1)..n {
            let lij = col[i];
            let row = &mut l[i * n + j + 1..=i * n + i];
            for (x, &lmj) in row.iter_mut().zip(&col[j + 1..=i]) {
                *x -= lij * lmj;
            }
        }
    }
    Ok(())
}

/// Solve `L Lᵀ x = b` in place given the factor `l` (`x` holds `b` on
/// entry). Both substitutions subtract in ascending `k`.
fn solve_factored(l: &Matrix, x: &mut [f64]) {
    let n = l.nrows();
    // Forward substitution L y = b.
    for i in 0..n {
        let row = l.row(i);
        let (done, rest) = x.split_at_mut(i);
        let mut sum = rest[0];
        for (&lik, &yk) in row.iter().zip(done.iter()) {
            sum -= lik * yk;
        }
        rest[0] = sum / row[i];
    }
    // Back substitution Lᵀ x = y.
    let l = l.as_slice();
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in (i + 1)..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Fails with
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is not strictly
    /// positive.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let mut l = Matrix::zeros(0, 0);
        factor_into(a, &mut l, &mut Vec::new())?;
        Ok(Cholesky { l })
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Solve `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimMismatch {
                op: "Cholesky::solve_vec",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        solve_factored(&self.l, &mut x);
        Ok(x)
    }

    /// Solve `A X = B` column-by-column.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.nrows() != n {
            return Err(LinalgError::DimMismatch {
                op: "Cholesky::solve",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.ncols());
        for j in 0..b.ncols() {
            let x = self.solve_vec(&b.col(j))?;
            out.set_col(j, &x);
        }
        Ok(out)
    }

    /// Explicit inverse `A⁻¹` (solve against the identity). Use sparingly;
    /// `solve` is cheaper and more accurate when a product is all that is
    /// needed.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        self.solve(&Matrix::identity(n))
            .expect("identity has matching dimension")
    }

    /// `log det A = 2 Σ log L[i][i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Reusable buffers for repeated Cholesky factorizations and solves.
///
/// The local analysis factors one SPD system per regression and per grid
/// point; with a workspace the factor storage is reused and the solve runs
/// in place on a caller-owned right-hand side, so the steady-state path
/// never allocates. Same routines as [`Cholesky`], so the bits agree.
#[derive(Debug, Clone, Default)]
pub struct CholWorkspace {
    l: Matrix,
    col: Vec<f64>,
}

impl CholWorkspace {
    /// An empty workspace; the factor buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Factor a symmetric positive-definite matrix into the reused buffer.
    ///
    /// Same algorithm and error behavior as [`Cholesky::factor`]; only the
    /// lower triangle of `a` is read.
    pub fn factor(&mut self, a: &Matrix) -> Result<()> {
        factor_into(a, &mut self.l, &mut self.col)
    }

    /// Dimension of the last factored matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Borrow the lower-triangular factor of the last factorization.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b` in place: `x` holds `b` on entry, the solution on
    /// exit. Same substitution order as [`Cholesky::solve_vec`].
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::DimMismatch {
                op: "CholWorkspace::solve_in_place",
                lhs: (n, n),
                rhs: (x.len(), 1),
            });
        }
        solve_factored(&self.l, x);
        Ok(())
    }
}

/// Square-root-free factorization `A = L D Lᵀ` with unit lower-triangular `L`.
#[derive(Debug, Clone)]
pub struct Ldlt {
    l: Matrix,
    d: Vec<f64>,
}

impl Ldlt {
    /// Factor a symmetric matrix. Pivots may be any nonzero value, so this
    /// also handles indefinite (but still factorizable) matrices; a zero
    /// pivot is reported as [`LinalgError::NotPositiveDefinite`].
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        let mut l = Matrix::identity(n);
        let mut d = vec![0.0; n];
        for j in 0..n {
            let mut dj = a[(j, j)];
            for k in 0..j {
                dj -= l[(j, k)] * l[(j, k)] * d[k];
            }
            if dj == 0.0 || !dj.is_finite() {
                return Err(LinalgError::NotPositiveDefinite(j));
            }
            d[j] = dj;
            for i in (j + 1)..n {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)] * d[k];
                }
                l[(i, j)] = sum / dj;
            }
        }
        Ok(Ldlt { l, d })
    }

    /// Borrow the unit lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Borrow the diagonal of `D`.
    pub fn d(&self) -> &[f64] {
        &self.d
    }

    /// Reassemble `L D Lᵀ` (diagnostics / tests).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.d.len();
        let mut ld = self.l.clone();
        for j in 0..n {
            for i in 0..n {
                ld[(i, j)] *= self.d[j];
            }
        }
        ld.matmul_tr(&self.l).expect("shapes agree by construction")
    }

    /// Solve `A x = b`.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.d.len();
        if b.len() != n {
            return Err(LinalgError::DimMismatch {
                op: "Ldlt::solve_vec",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
        }
        for i in 0..n {
            y[i] /= self.d[i];
        }
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.l[(k, i)] * y[k];
            }
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-conditioned SPD test matrix: A = M Mᵀ + n·I.
    fn spd(n: usize) -> Matrix {
        let m = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0);
        let mut a = m.matmul_tr(&m).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd(8);
        let ch = Cholesky::factor(&a).unwrap();
        let back = ch.l().matmul_tr(ch.l()).unwrap();
        assert!(back.approx_eq(&a, 1e-10));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite(1))
        ));
    }

    #[test]
    fn solve_vec_residual_small() {
        let a = spd(10);
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let x = ch.solve_vec(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_matrix_matches_columnwise() {
        let a = spd(6);
        let ch = Cholesky::factor(&a).unwrap();
        let b = Matrix::from_fn(6, 3, |i, j| (i + j) as f64);
        let x = ch.solve(&b).unwrap();
        let back = a.matmul(&x).unwrap();
        assert!(back.approx_eq(&b, 1e-9));
    }

    #[test]
    fn inverse_times_a_is_identity() {
        let a = spd(7);
        let inv = Cholesky::factor(&a).unwrap().inverse();
        let prod = inv.matmul(&a).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(7), 1e-8));
    }

    #[test]
    fn log_det_of_diagonal() {
        let a = Matrix::from_diag(&[2.0, 3.0, 4.0]);
        let ch = Cholesky::factor(&a).unwrap();
        assert!((ch.log_det() - (24.0_f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn chol_workspace_matches_cholesky_bitwise_across_reuse() {
        let mut ws = CholWorkspace::new();
        for n in [8usize, 3, 10, 6] {
            let a = spd(n);
            let ch = Cholesky::factor(&a).unwrap();
            ws.factor(&a).unwrap();
            assert_eq!(ws.l(), ch.l());
            assert_eq!(ws.dim(), n);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
            let mut x = b.clone();
            ws.solve_in_place(&mut x).unwrap();
            assert_eq!(x, ch.solve_vec(&b).unwrap());
        }
    }

    /// The textbook inner-product loops the right-looking kernel replaced;
    /// every digest in the repository was pinned on their bits.
    fn textbook_factor_solve(a: &Matrix, b: &[f64]) -> (Matrix, Vec<f64>) {
        let n = a.nrows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = if i == j { sum.sqrt() } else { sum / l[(j, j)] };
            }
        }
        let mut y = b.to_vec();
        for i in 0..n {
            let mut sum = y[i];
            for k in 0..i {
                sum -= l[(i, k)] * y[k];
            }
            y[i] = sum / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= l[(k, i)] * y[k];
            }
            y[i] = sum / l[(i, i)];
        }
        (l, y)
    }

    #[test]
    fn factor_and_solve_match_textbook_loops_bitwise() {
        for n in [1usize, 2, 5, 13, 24, 49] {
            let a = spd(n);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).sin() - 0.2).collect();
            let (l_ref, x_ref) = textbook_factor_solve(&a, &b);
            let ch = Cholesky::factor(&a).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(ch.l().as_slice()), bits(l_ref.as_slice()), "n={n}");
            assert_eq!(bits(&ch.solve_vec(&b).unwrap()), bits(&x_ref), "n={n}");
        }
    }

    #[test]
    fn first_bad_pivot_is_reported() {
        // Pivot 2 goes negative only after the first two columns' updates.
        let a = Matrix::from_vec(3, 3, vec![4.0, 2.0, 2.0, 2.0, 5.0, 3.0, 2.0, 3.0, 1.0]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite(2))
        ));
    }

    #[test]
    fn chol_workspace_rejects_bad_inputs() {
        let mut ws = CholWorkspace::new();
        assert!(ws.factor(&Matrix::zeros(2, 3)).is_err());
        let indefinite = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            ws.factor(&indefinite),
            Err(LinalgError::NotPositiveDefinite(1))
        ));
        ws.factor(&spd(4)).unwrap();
        let mut wrong = vec![0.0; 3];
        assert!(ws.solve_in_place(&mut wrong).is_err());
    }

    #[test]
    fn ldlt_reconstructs_and_solves() {
        let a = spd(9);
        let f = Ldlt::factor(&a).unwrap();
        assert!(f.reconstruct().approx_eq(&a, 1e-9));
        let b: Vec<f64> = (0..9).map(|i| 1.0 + i as f64).collect();
        let x = f.solve_vec(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn ldlt_unit_diagonal() {
        let a = spd(5);
        let f = Ldlt::factor(&a).unwrap();
        for i in 0..5 {
            assert_eq!(f.l()[(i, i)], 1.0);
        }
        assert!(f.d().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn ldlt_handles_indefinite() {
        // Symmetric indefinite but LDLT-factorizable without pivoting.
        let a = Matrix::from_vec(2, 2, vec![2.0, 3.0, 3.0, 1.0]).unwrap();
        let f = Ldlt::factor(&a).unwrap();
        assert!(f.reconstruct().approx_eq(&a, 1e-12));
        assert!(f.d()[1] < 0.0);
    }
}
