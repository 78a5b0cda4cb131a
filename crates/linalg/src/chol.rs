//! The Cholesky factorization with triangular solves.
//!
//! The local analysis (Eq. 6) solves SPD systems with the matrix
//! `B̂⁻¹ + Hᵀ R⁻¹ H`; operationally this is done with a Cholesky
//! factorization (paper §2.3).

use crate::kernel::lanes::{check_pivots, factor_lanes, solve_lanes, tri};
use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// The factor and the solves are the width-1 lane kernels
/// ([`crate::kernel::lanes`]): right-looking, so once column `j` is final
/// every trailing entry `(i, m)` gets `-= L[i][j] · L[m][j]` as one
/// contiguous row update. Each entry therefore still starts from
/// `a[(i, m)]` and has its products subtracted in ascending `j` — the
/// order, operands and bits of the textbook `sum -= l[(i, k)] * l[(m, k)]`
/// loop — but the inner loop is an independent-element axpy instead of one
/// serial dependency chain, so it pipelines and vectorizes.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// `L` packed lower, row `i` at [`tri`]`(i)`.
    packed: Vec<[f64; 1]>,
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Fails with
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is not strictly
    /// positive.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        let mut packed: Vec<[f64; 1]> = (0..n)
            .flat_map(|i| a.row(i)[..=i].iter().map(|&x| [x]))
            .collect();
        check_pivots(factor_lanes(&mut packed, n, &mut Vec::new()))?;
        let l = Matrix::from_fn(
            n,
            n,
            |i, j| if j <= i { packed[tri(i) + j][0] } else { 0.0 },
        );
        Ok(Cholesky { packed, l })
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
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
        solve_lanes(&self.packed, n, x.as_chunks_mut().0);
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
        let mut out = Matrix::zeros(n, n);
        let mut x = vec![0.0; n];
        for j in 0..n {
            x.fill(0.0);
            x[j] = 1.0;
            solve_lanes(&self.packed, n, x.as_chunks_mut().0);
            out.set_col(j, &x);
        }
        out
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
}
