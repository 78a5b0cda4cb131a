//! Dense row-major matrix type; products dispatch to the kernel layer.
//!
//! All tiling constants and parallel-dispatch heuristics live in
//! [`crate::kernel::tiles`]; the products here are thin shape-checked
//! wrappers over [`crate::kernel::gemm`].

use crate::kernel::gemm;
use crate::{LinalgError, Result};

/// A dense row-major matrix of `f64`.
///
/// All EnKF operands (ensembles, observation operators, covariance factors)
/// are instances of this type. Storage is a single contiguous `Vec<f64>`;
/// element `(i, j)` lives at `i * ncols + j`.
///
/// ```
/// use enkf_linalg::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// let x = a.matvec(&[1.0, 1.0]).unwrap();
/// assert_eq!(x, vec![3.0, 7.0]);
/// let b = a.matmul(&Matrix::identity(2)).unwrap();
/// assert_eq!(b, a);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create an `nrows x ncols` matrix filled with zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Matrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Create a matrix from a closure evaluated at every `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Matrix { nrows, ncols, data }
    }

    /// Create a matrix that takes ownership of a row-major buffer.
    ///
    /// Returns an error if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(LinalgError::DimMismatch {
                op: "Matrix::from_vec",
                lhs: (nrows, ncols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { nrows, ncols, data })
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// True when the matrix is square.
    #[inline]
    pub(crate) fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshape to `nrows x ncols` and zero-fill, reusing the allocation.
    ///
    /// This is the workspace-reuse primitive behind the `_into` product
    /// variants: once a buffer has grown to its steady-state size, repeated
    /// `resize` calls never touch the allocator.
    pub fn resize(&mut self, nrows: usize, ncols: usize) {
        self.nrows = nrows;
        self.ncols = ncols;
        self.data.clear();
        self.data.resize(nrows * ncols, 0.0);
    }

    /// Become an elementwise copy of `other`, reusing the allocation.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.nrows = other.nrows;
        self.ncols = other.ncols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Reset to the `n x n` identity, reusing the allocation.
    pub(crate) fn resize_identity(&mut self, n: usize) {
        self.resize(n, n);
        for i in 0..n {
            self.data[i * n + i] = 1.0;
        }
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Copy column `j` into a caller-owned buffer (allocation-free once
    /// the buffer has capacity).
    pub fn col_into(&self, j: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.nrows).map(|i| self[(i, j)]));
    }

    /// Overwrite column `j` with the given values.
    pub fn set_col(&mut self, j: usize, values: &[f64]) {
        assert_eq!(values.len(), self.nrows, "set_col length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self[(i, j)] = v;
        }
    }

    /// Return the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Elementwise sum; errors on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "Matrix::add", |a, b| a + b)
    }

    /// Elementwise difference; errors on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "Matrix::sub", |a, b| a - b)
    }

    /// In-place `self += alpha * other`; errors on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimMismatch {
                op: "Matrix::axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect::<Vec<_>>();
        Ok(Matrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        })
    }

    /// Return `alpha * self` as a new matrix.
    pub fn scale(&self, alpha: f64) -> Matrix {
        let data = self.data.iter().map(|&a| alpha * a).collect();
        Matrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        }
    }

    /// Matrix-vector product `self * x`; errors when `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product `self * x` written into a caller-owned buffer.
    ///
    /// `out` is cleared and refilled; at steady state no allocation occurs.
    pub fn matvec_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.ncols {
            return Err(LinalgError::DimMismatch {
                op: "Matrix::matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        gemm::matvec(&self.data, x, out, self.nrows, self.ncols);
        Ok(())
    }

    /// Matrix product `self * other` via the cache-oblivious kernel layer,
    /// on the caller's thread.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// `self * other` written into a caller-owned matrix.
    ///
    /// `out` is resized (allocation-free at steady state) and overwritten.
    /// Same kernel and accumulation order as [`Matrix::matmul`], so results
    /// are bit-identical.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.ncols != other.nrows {
            return Err(LinalgError::DimMismatch {
                op: "Matrix::matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.nrows, self.ncols, other.ncols);
        out.resize(m, n);
        gemm::nn(&self.data, &other.data, &mut out.data, m, k, n);
        Ok(())
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn tr_matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.tr_matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// `selfᵀ * other` written into a caller-owned matrix.
    ///
    /// The per-element accumulation order (ascending shared index) is
    /// independent of the kernel recursion's splits, so serial and parallel
    /// paths produce bit-identical results.
    pub fn tr_matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.nrows != other.nrows {
            return Err(LinalgError::DimMismatch {
                op: "Matrix::tr_matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.ncols, self.nrows, other.ncols);
        out.resize(m, n);
        gemm::tn(&self.data, &other.data, &mut out.data, m, k, n);
        Ok(())
    }

    /// `self * otherᵀ` without materializing the transpose.
    pub fn matmul_tr(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_tr_into(other, &mut out)?;
        Ok(out)
    }

    /// `self * otherᵀ` written into a caller-owned matrix.
    ///
    /// The contraction dimension is chunked (`kernel::tiles::NT_KC`) into
    /// partial dot products exactly as the legacy kernel chunked it, so
    /// accumulation per element is deterministic regardless of thread count.
    pub fn matmul_tr_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.ncols != other.ncols {
            return Err(LinalgError::DimMismatch {
                op: "Matrix::matmul_tr",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.nrows, self.ncols, other.nrows);
        out.resize(m, n);
        gemm::nt(&self.data, &other.data, &mut out.data, m, k, n);
        Ok(())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&a| a * a).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (∞-entrywise norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &a| m.max(a.abs()))
    }

    /// Mean of each row (used for the ensemble mean x̄ᵇ, Eq. 4).
    pub fn row_means(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.row_means_into(&mut out);
        out
    }

    /// Mean of each row written into a caller-owned buffer.
    pub fn row_means_into(&self, out: &mut Vec<f64>) {
        let inv = 1.0 / self.ncols as f64;
        out.clear();
        out.extend((0..self.nrows).map(|i| self.row(i).iter().sum::<f64>() * inv));
    }

    /// Subtract `v[i]` from every entry of row `i` (anomaly computation, Eq. 4).
    pub fn subtract_row_vector(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.nrows, "subtract_row_vector length mismatch");
        for i in 0..self.nrows {
            let vi = v[i];
            for a in self.row_mut(i) {
                *a -= vi;
            }
        }
    }

    /// Extract the sub-matrix of the given rows (gather), preserving order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(rows, &mut out);
        out
    }

    /// Row gather written into a caller-owned matrix.
    pub fn select_rows_into(&self, rows: &[usize], out: &mut Matrix) {
        out.resize(rows.len(), self.ncols);
        for (oi, &ri) in rows.iter().enumerate() {
            out.row_mut(oi).copy_from_slice(self.row(ri));
        }
    }

    /// True when `self` and `other` agree entrywise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }

    /// Symmetrize in place: `self = (self + selfᵀ) / 2`. Useful before a
    /// Cholesky factorization of a product that is symmetric only up to
    /// rounding.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn indexing_row_major() {
        let m = small();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = small();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = small();
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul(&i3).unwrap(), m);
        let i2 = Matrix::identity(2);
        assert_eq!(i2.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = small();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = small();
        assert!(a.matmul(&small()).is_err());
    }

    #[test]
    fn tr_matmul_matches_explicit_transpose() {
        let a = small();
        let b = Matrix::from_vec(2, 4, (0..8).map(|x| x as f64).collect()).unwrap();
        let expect = a.transpose().matmul(&b).unwrap();
        let got = a.tr_matmul(&b).unwrap();
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matmul_tr_matches_explicit_transpose() {
        let a = small();
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f64).collect()).unwrap();
        let expect = a.matmul(&b.transpose()).unwrap();
        let got = a.matmul_tr(&b).unwrap();
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matvec_known() {
        let a = small();
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn row_means_and_anomalies() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 3.0, 10.0, 20.0]).unwrap();
        let means = m.row_means();
        assert_eq!(means, vec![2.0, 15.0]);
        m.subtract_row_vector(&means);
        assert_eq!(m.as_slice(), &[-1.0, 1.0, -5.0, 5.0]);
    }

    #[test]
    fn select_rows_gathers_in_order() {
        let m = small();
        let s = m.select_rows(&[1, 0]);
        assert_eq!(s.row(0), m.row(1));
        assert_eq!(s.row(1), m.row(0));
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 4.0, 3.0]).unwrap();
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn large_parallel_matmul_matches_serial() {
        let n = 300;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 17) as f64 - 8.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 5) % 11) as f64 - 5.0);
        let big = a.matmul(&b).unwrap();
        // Compare a few spot entries against a direct dot product.
        for &(i, j) in &[(0, 0), (17, 250), (299, 299), (150, 3)] {
            let direct: f64 = (0..n).map(|l| a[(i, l)] * b[(l, j)]).sum();
            assert!((big[(i, j)] - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn into_variants_match_allocating_counterparts() {
        let a = Matrix::from_fn(7, 5, |i, j| (i * 5 + j) as f64 * 0.25 - 4.0);
        let b = Matrix::from_fn(5, 9, |i, j| ((i * 9 + j) % 13) as f64 - 6.0);
        let c = Matrix::from_fn(7, 5, |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
        // Pre-dirty the outputs with wrong shapes to exercise resize.
        let mut out = Matrix::from_fn(2, 2, |_, _| 99.0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        a.tr_matmul_into(&c, &mut out).unwrap();
        assert_eq!(out, a.tr_matmul(&c).unwrap());
        a.matmul_tr_into(&c, &mut out).unwrap();
        assert_eq!(out, a.matmul_tr(&c).unwrap());
        let x: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let mut v = vec![7.0; 3];
        a.matvec_into(&x, &mut v).unwrap();
        assert_eq!(v, a.matvec(&x).unwrap());
        let mut means = vec![1.0];
        a.row_means_into(&mut means);
        assert_eq!(means, a.row_means());
        let mut sel = Matrix::zeros(1, 1);
        a.select_rows_into(&[6, 0, 3], &mut sel);
        assert_eq!(sel, a.select_rows(&[6, 0, 3]));
    }

    #[test]
    fn resize_and_copy_from_reuse_buffers() {
        let mut m = Matrix::from_fn(4, 4, |_, _| 5.0);
        let cap = m.data.capacity();
        m.resize(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.data.capacity(), cap);
        let src = small();
        m.copy_from(&src);
        assert_eq!(m, src);
        assert_eq!(m.data.capacity(), cap);
        m.resize_identity(3);
        assert_eq!(m, Matrix::identity(3));
    }

    #[test]
    fn large_parallel_tr_matmul_matches_transpose() {
        // Large enough for the recursion to split down to many base-case
        // panels; includes exact zeros to cover the removed skip branch.
        let n = 300;
        let a = Matrix::from_fn(n, n, |i, j| (((i * 7 + j * 13) % 17) as f64 - 8.0).max(0.0));
        let b = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 5) % 11) as f64 - 5.0);
        let got = a.tr_matmul(&b).unwrap();
        for &(i, j) in &[(0, 0), (17, 250), (299, 299), (150, 3)] {
            let direct: f64 = (0..n).map(|l| a[(l, i)] * b[(l, j)]).sum();
            assert!((got[(i, j)] - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn large_parallel_matmul_tr_matches_transpose() {
        let n = 300;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 17) as f64 - 8.0);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 5) % 11) as f64 - 5.0);
        let got = a.matmul_tr(&b).unwrap();
        for &(i, j) in &[(0, 0), (17, 250), (299, 299), (150, 3)] {
            let direct: f64 = (0..n).map(|l| a[(i, l)] * b[(j, l)]).sum();
            assert!((got[(i, j)] - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::identity(2);
        a.axpy(2.5, &b).unwrap();
        assert_eq!(a[(0, 0)], 2.5);
        assert_eq!(a[(0, 1)], 0.0);
    }
}
