//! Modified-Cholesky estimation of the inverse background-error covariance.
//!
//! P-EnKF (Nino-Ruiz, Sandu & Deng 2017/2018) replaces the rank-deficient
//! ensemble covariance `B = U Uᵀ / (N−1)` with a full-rank estimate of the
//! *inverse* covariance built via the modified Cholesky decomposition of
//! Bickel & Levina (2008):
//!
//! ```text
//! B̂⁻¹ = Lᵀ D⁻¹ L
//! ```
//!
//! where `L` is unit lower triangular and row `i` of `L` holds the negated
//! coefficients of the regression of component `i`'s anomalies on the
//! anomalies of its *predecessors* — components that come before `i` in the
//! grid ordering and lie within the localization radius. Components outside
//! the radius get a structural zero, which is how domain localization enters
//! the estimator and what makes `L` sparse.
//!
//! `D` is the diagonal of residual variances. Because every regression uses
//! at most the localization neighborhood as predictors, the estimator is
//! well defined even when `N ≪ n`, and `B̂⁻¹` is symmetric positive definite
//! by construction whenever all residual variances are positive.

//!
//! # One regression core
//!
//! Every entry of a regression's normal matrix `XᵀX + λI` and right-hand
//! side `Xᵀy` is an inner product of two anomaly rows. The estimator
//! therefore never builds a design matrix: [`ModifiedCholesky::estimate_into`]
//! asks a caller-supplied *Gram accessor* for `uₐ · u_b` and gathers the
//! `p × p` system from it. [`ModifiedCholesky::estimate`] passes
//! [`dot`] on the anomaly rows; the point-wise local
//! analysis passes a lookup into a table it computed once for the whole
//! expansion. As long as the accessor returns the ascending-order fold from
//! `0.0`, the result is bit for bit the one `ridge_least_squares` on the
//! gathered design matrix gives (pinned by this module's tests).
//!
//! The estimator is generic over a lane width `W`: `W` systems with one
//! predecessor structure run side by side, one per `[f64; W]` lane, each
//! lane the width-1 operation sequence ([`crate::kernel::lanes`]). The
//! point-wise local analysis runs four same-shaped boxes at a time;
//! [`ModifiedCholesky::estimate`] is width 1.

use crate::kernel::gemm::dot;
use crate::kernel::lanes::{check_pivots, factor_body, lane_entry, solve_body, tri, LaneOps};
use crate::{LinalgError, Matrix, Result};

/// The factors of the modified Cholesky inverse-covariance estimate of `W`
/// systems with one predecessor structure, one system per `[f64; W]` lane
/// (the default `W = 1` is a single system).
///
/// `L` is stored by rows in compressed form — only the predecessor columns
/// of each row, the unit diagonal implicit — so its size follows the
/// localization neighborhood, not `n²`. The buffers are reused by
/// [`ModifiedCholesky::estimate_into`].
#[derive(Debug, Clone, Default)]
pub struct ModifiedCholesky<const W: usize = 1> {
    /// Row `i`'s entries live at `row_start[i]..row_start[i + 1]`.
    row_start: Vec<usize>,
    /// Predecessor columns, strictly ascending within a row.
    cols: Vec<usize>,
    /// `L[i][cols[k]] = −β`.
    vals: Vec<[f64; W]>,
    /// Residual variances (diagonal of `D`).
    d: Vec<[f64; W]>,
}

/// Scratch for the per-component regressions and the rank-1 accumulation
/// of `B̂⁻¹`; grows to its high-water mark and is then reused, so repeated
/// estimates allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct ModCholWorkspace<const W: usize = 1> {
    preds: Vec<usize>,
    /// The packed-lower normal matrix, factored in place.
    normal: Vec<[f64; W]>,
    col: Vec<[f64; W]>,
    beta: Vec<[f64; W]>,
    fit: Vec<[f64; W]>,
    idx: Vec<usize>,
    scaled: Vec<[f64; W]>,
    keep: Vec<[bool; W]>,
}

impl ModifiedCholesky {
    /// Estimate the factors from an anomaly matrix.
    ///
    /// * `anomalies` — `n_local × N` matrix `U` of ensemble deviations from
    ///   the mean (Eq. 4); each *row* is one model component, each *column*
    ///   one member.
    /// * `predecessors(i)` — indices `j < i` allowed as predictors for
    ///   component `i` (the localization neighborhood intersected with
    ///   `0..i`). Indices `≥ i` are ignored; the rest are used in ascending
    ///   order, each once.
    /// * `ridge` — Tikhonov term for the per-component regressions; a small
    ///   positive value (e.g. `1e-6 · tr(cov)/n`) keeps rank-deficient
    ///   neighborhoods solvable.
    pub fn estimate(
        anomalies: &Matrix,
        mut predecessors: impl FnMut(usize) -> Vec<usize>,
        ridge: f64,
    ) -> Result<Self> {
        let mut mc = ModifiedCholesky::default();
        mc.estimate_into(
            &mut ModCholWorkspace::default(),
            anomalies.nrows(),
            |i| anomalies.row(i).as_chunks::<1>().0,
            |a, b| [dot(anomalies.row(a), anomalies.row(b))],
            |i, out| {
                out.extend(predecessors(i).into_iter().filter(|&j| j < i));
                out.sort_unstable();
                out.dedup();
            },
            [ridge],
        )?;
        Ok(mc)
    }

    /// The residual variances (diagonal of `D`).
    pub(crate) fn d(&self) -> &[f64] {
        self.d.as_flattened()
    }

    /// Materialize `B̂⁻¹ = Lᵀ D⁻¹ L` as a dense symmetric matrix.
    pub fn inverse_covariance(&self) -> Matrix {
        let mut packed = Vec::new();
        self.inverse_covariance_into(&mut ModCholWorkspace::default(), &mut packed);
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| packed[tri(i.max(j)) + i.min(j)][0])
    }

    /// Apply `B̂⁻¹ x` without materializing the dense matrix:
    /// `y = Lᵀ (D⁻¹ (L x))`.
    pub fn apply_inverse(&self, x: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::DimMismatch {
                op: "ModifiedCholesky::apply_inverse",
                lhs: (n, n),
                rhs: (x.len(), 1),
            });
        }
        // t = D⁻¹ L x.
        let mut t = vec![0.0; n];
        for i in 0..n {
            let (cols, vals) = self.row(i);
            let mut sum = x[i];
            for (&j, &[lij]) in cols.iter().zip(vals) {
                sum += lij * x[j];
            }
            t[i] = sum / self.d()[i];
        }
        // y = Lᵀ t.
        let mut y = t.clone();
        for i in 0..n {
            let (cols, vals) = self.row(i);
            for (&j, &[lij]) in cols.iter().zip(vals) {
                y[j] += lij * t[i];
            }
        }
        Ok(y)
    }
}

impl<const W: usize> ModifiedCholesky<W> {
    /// The regression core: estimate the factors of `W` `n`-component
    /// systems sharing one predecessor structure into `self`, reusing its
    /// buffers and `ws`. Lane `l` of every output is bit for bit what
    /// width 1 computes from lane `l` of the inputs.
    ///
    /// * `row(i)` — component `i`'s anomalies (`N` members).
    /// * `gram(a, b)` — `row(a) · row(b)` folded from `0.0` in ascending
    ///   member order; only called with `a ≤ b`.
    /// * `predecessors(i, out)` — push component `i`'s predictors onto the
    ///   (cleared) `out`: strictly ascending, all `< i`.
    /// * `ridge` — as in [`ModifiedCholesky::estimate`].
    ///
    /// Fails when any lane's regression is not positive definite.
    pub fn estimate_into<'a>(
        &mut self,
        ws: &mut ModCholWorkspace<W>,
        n: usize,
        row: impl Fn(usize) -> &'a [[f64; W]],
        gram: impl Fn(usize, usize) -> [f64; W],
        predecessors: impl FnMut(usize, &mut Vec<usize>),
        ridge: [f64; W],
    ) -> Result<()> {
        estimate_entry(self, ws, n, row, gram, predecessors, ridge)
    }

    #[inline(always)]
    fn estimate_body<'a>(
        &mut self,
        ws: &mut ModCholWorkspace<W>,
        n: usize,
        row: impl Fn(usize) -> &'a [[f64; W]],
        gram: impl Fn(usize, usize) -> [f64; W],
        mut predecessors: impl FnMut(usize, &mut Vec<usize>),
        ridge: [f64; W],
    ) -> Result<()> {
        self.row_start.clear();
        self.row_start.push(0);
        self.cols.clear();
        self.vals.clear();
        self.d.clear();
        if n == 0 {
            return Ok(());
        }
        let nens = row(0).len();
        if nens < 2 {
            return Err(LinalgError::DimMismatch {
                op: "ModifiedCholesky::estimate (need at least 2 members)",
                lhs: (n, nens),
                rhs: (n, 2),
            });
        }
        let denom = [(nens - 1) as f64; W];
        let floor = ridge.max([f64::MIN_POSITIVE; W]);
        for i in 0..n {
            ws.preds.clear();
            predecessors(i, &mut ws.preds);
            let preds = ws.preds.as_slice();
            debug_assert!(preds.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(preds.last().is_none_or(|&j| j < i));
            let p = preds.len();
            if p == 0 {
                self.d.push(gram(i, i).div(denom).max(floor));
                self.row_start.push(self.cols.len());
                continue;
            }
            // (XᵀX + λI) β = Xᵀy: the lower triangle gathered entry by
            // entry into packed storage and factored in place.
            ws.normal.clear();
            for (a, &ja) in preds.iter().enumerate() {
                ws.normal.extend(preds[..a].iter().map(|&jb| gram(jb, ja)));
                ws.normal.push(gram(ja, ja).add(ridge));
            }
            check_pivots(factor_body(&mut ws.normal, p, &mut ws.col))?;
            ws.beta.clear();
            ws.beta.extend(preds.iter().map(|&j| gram(j, i)));
            solve_body(&ws.normal, p, &mut ws.beta);
            // Residual variance for D[i]: the fit is accumulated one
            // predictor at a time across all samples, so each sample still
            // sums its terms in predictor order.
            ws.fit.clear();
            ws.fit.resize(nens, [0.0; W]);
            for (&b, &j) in ws.beta.iter().zip(preds) {
                for (f, &u) in ws.fit.iter_mut().zip(row(j)) {
                    *f = f.add(b.mul(u));
                }
            }
            let mut ss = [0.0; W];
            for (&y, &f) in row(i).iter().zip(&ws.fit) {
                let r = y.sub(f);
                ss = ss.add(r.mul(r));
            }
            self.d.push(ss.div(denom).max(floor));
            self.cols.extend_from_slice(preds);
            self.vals.extend(ws.beta.iter().map(|b| b.map(|x| -x)));
            self.row_start.push(self.cols.len());
        }
        Ok(())
    }

    /// Row `i` of `L` below the diagonal: predecessor columns and values.
    fn row(&self, i: usize) -> (&[usize], &[[f64; W]]) {
        let span = self.row_start[i]..self.row_start[i + 1];
        (&self.cols[span.clone()], &self.vals[span])
    }

    /// Dimension of the estimated covariance.
    pub(crate) fn dim(&self) -> usize {
        self.d.len()
    }

    /// The lower triangle of `B̂⁻¹ = Lᵀ D⁻¹ L`, packed (row `i` at
    /// [`tri`]`(i)`), into a caller-owned buffer.
    ///
    /// `B̂⁻¹ = Gᵀ G` with `G = D^{−1/2} L`, and row `i` of `L` is zero
    /// outside `predecessors(i) ∪ {i}` by construction — so instead of a
    /// dense `n³` product, each row contributes a rank-1 update confined to
    /// its `O(|preds|²)` support. The per-term products, the skip of exact
    /// zeros (masked per lane) and the ascending row-accumulation order
    /// match the dense zero-skipping product `(D^{−1/2}L)ᵀ (D^{−1/2}L)`;
    /// its symmetrization averaged two equal sums, `0.5·(x + x)`, which is
    /// applied to the strict lower triangle.
    pub fn inverse_covariance_into(&self, ws: &mut ModCholWorkspace<W>, binv: &mut Vec<[f64; W]>) {
        inverse_covariance_entry(self, ws, binv)
    }

    #[inline(always)]
    fn inverse_covariance_body(&self, ws: &mut ModCholWorkspace<W>, binv: &mut Vec<[f64; W]>) {
        let n = self.dim();
        binv.clear();
        binv.resize(tri(n), [0.0; W]);
        for i in 0..n {
            let s = [1.0; W].div(self.d[i].sqrt());
            let (cols, vals) = self.row(i);
            ws.idx.clear();
            ws.scaled.clear();
            ws.keep.clear();
            for (&j, &x) in cols.iter().zip(vals) {
                ws.idx.push(j);
                ws.scaled.push(x.mul(s));
                ws.keep.push(x.map(|v| v != 0.0));
            }
            ws.idx.push(i);
            ws.scaled.push(s);
            ws.keep.push([true; W]);
            for (a, &ja) in ws.idx.iter().enumerate() {
                let (fa, ka) = (ws.scaled[a], ws.keep[a]);
                let out = &mut binv[tri(ja)..=tri(ja) + ja];
                for ((&jb, &fb), kb) in ws.idx[..=a].iter().zip(&ws.scaled).zip(&ws.keep) {
                    let sum = out[jb].add(fa.mul(fb));
                    for l in 0..W {
                        if ka[l] && kb[l] {
                            out[jb][l] = sum[l];
                        }
                    }
                }
            }
        }
        let half = [0.5; W];
        for i in 1..n {
            for x in &mut binv[tri(i)..tri(i) + i] {
                *x = half.mul(x.add(*x));
            }
        }
    }
}

lane_entry! {
    fn estimate_entry['a, const W: usize](
        mc: &mut ModifiedCholesky<W>,
        ws: &mut ModCholWorkspace<W>,
        n: usize,
        row: impl Fn(usize) -> &'a [[f64; W]],
        gram: impl Fn(usize, usize) -> [f64; W],
        predecessors: impl FnMut(usize, &mut Vec<usize>),
        ridge: [f64; W],
    ) -> Result<()> = ModifiedCholesky::estimate_body;
}

lane_entry! {
    fn inverse_covariance_entry[const W: usize](
        mc: &ModifiedCholesky<W>,
        ws: &mut ModCholWorkspace<W>,
        binv: &mut Vec<[f64; W]>,
    ) -> () = ModifiedCholesky::inverse_covariance_body;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::GaussianSampler;
    use crate::Cholesky;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn band_predecessors(width: usize) -> impl FnMut(usize) -> Vec<usize> {
        move |i| (i.saturating_sub(width)..i).collect()
    }

    /// The unit lower-triangular factor `L`, materialized densely (the
    /// estimator itself never forms it).
    fn dense_l(mc: &ModifiedCholesky) -> Matrix {
        let mut l = Matrix::identity(mc.dim());
        for i in 0..mc.dim() {
            let (cols, vals) = mc.row(i);
            for (&j, &[v]) in cols.iter().zip(vals) {
                l[(i, j)] = v;
            }
        }
        l
    }

    #[test]
    fn unit_lower_triangular_structure() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut gs = GaussianSampler::new();
        let u = Matrix::from_fn(6, 12, |_, _| gs.sample(&mut rng));
        let mc = ModifiedCholesky::estimate(&u, band_predecessors(2), 1e-8).unwrap();
        for i in 0..6 {
            assert_eq!(dense_l(&mc)[(i, i)], 1.0);
            for j in (i + 1)..6 {
                assert_eq!(dense_l(&mc)[(i, j)], 0.0, "upper triangle must be zero");
            }
            for j in 0..i.saturating_sub(2) {
                assert_eq!(
                    dense_l(&mc)[(i, j)],
                    0.0,
                    "outside band must be structurally zero"
                );
            }
        }
        assert!(mc.d().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn inverse_covariance_is_spd() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut gs = GaussianSampler::new();
        let u = Matrix::from_fn(10, 8, |_, _| gs.sample(&mut rng));
        let binv = ModifiedCholesky::estimate(&u, band_predecessors(3), 1e-6)
            .unwrap()
            .inverse_covariance();
        assert!(Cholesky::factor(&binv).is_ok(), "B̂⁻¹ must be SPD");
    }

    #[test]
    fn apply_inverse_matches_dense() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gs = GaussianSampler::new();
        let u = Matrix::from_fn(7, 9, |_, _| gs.sample(&mut rng));
        let mc = ModifiedCholesky::estimate(&u, band_predecessors(3), 1e-6).unwrap();
        let dense = mc.inverse_covariance();
        let x: Vec<f64> = (0..7).map(|i| (i as f64 * 0.7).cos()).collect();
        let fast = mc.apply_inverse(&x).unwrap();
        let slow = dense.matvec(&x).unwrap();
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn diagonal_truth_recovered_for_independent_components() {
        // Anomalies of independent unit-variance components: B ≈ I, so
        // B̂⁻¹ should approach I as N grows.
        let mut rng = StdRng::seed_from_u64(99);
        let mut gs = GaussianSampler::new();
        let n = 5;
        let nens = 4000;
        let mut u = Matrix::from_fn(n, nens, |_, _| gs.sample(&mut rng));
        let means = u.row_means();
        u.subtract_row_vector(&means);
        let binv = ModifiedCholesky::estimate(&u, band_predecessors(2), 1e-8)
            .unwrap()
            .inverse_covariance();
        for i in 0..n {
            assert!(
                (binv[(i, i)] - 1.0).abs() < 0.15,
                "diag {} = {}",
                i,
                binv[(i, i)]
            );
            for j in 0..i {
                assert!(
                    binv[(i, j)].abs() < 0.15,
                    "offdiag ({i},{j}) = {}",
                    binv[(i, j)]
                );
            }
        }
    }

    #[test]
    fn correlated_pair_yields_negative_offdiagonal_precision() {
        // Two strongly positively correlated components have a negative
        // off-diagonal in the precision matrix.
        let mut rng = StdRng::seed_from_u64(21);
        let mut gs = GaussianSampler::new();
        let nens = 2000;
        let mut u = Matrix::zeros(2, nens);
        for s in 0..nens {
            let z = gs.sample(&mut rng);
            let e = gs.sample(&mut rng) * 0.3;
            u[(0, s)] = z;
            u[(1, s)] = 0.9 * z + e;
        }
        let means = u.row_means();
        u.subtract_row_vector(&means);
        let binv = ModifiedCholesky::estimate(&u, band_predecessors(1), 1e-8)
            .unwrap()
            .inverse_covariance();
        assert!(
            binv[(1, 0)] < -1.0,
            "expected strong negative precision, got {}",
            binv[(1, 0)]
        );
    }

    /// The estimator as it was before the regression core: gather a design
    /// matrix per component, solve it with `ridge_least_squares`, keep a
    /// dense `L`, and form `LᵀD⁻¹L` by the zero-skipping rank-1 sweep.
    fn design_matrix_oracle(
        u: &Matrix,
        mut predecessors: impl FnMut(usize) -> Vec<usize>,
        ridge: f64,
    ) -> (Matrix, Vec<f64>, Matrix) {
        let (n, nens) = u.shape();
        let denom = (nens - 1) as f64;
        let mut l = Matrix::identity(n);
        let mut d = vec![0.0; n];
        for i in 0..n {
            let preds = predecessors(i);
            let yi = u.row(i);
            if preds.is_empty() {
                let var = yi.iter().map(|&v| v * v).sum::<f64>() / denom;
                d[i] = var.max(ridge.max(f64::MIN_POSITIVE));
                continue;
            }
            let x = Matrix::from_fn(nens, preds.len(), |s, p| u[(preds[p], s)]);
            let beta = crate::ridge_least_squares(&x, yi, ridge).unwrap();
            let mut ss = 0.0;
            for s in 0..nens {
                let mut fit = 0.0;
                for (p, &j) in preds.iter().enumerate() {
                    fit += beta[p] * u[(j, s)];
                }
                let r = yi[s] - fit;
                ss += r * r;
            }
            d[i] = (ss / denom).max(ridge.max(f64::MIN_POSITIVE));
            for (p, &j) in preds.iter().enumerate() {
                l[(i, j)] = -beta[p];
            }
        }
        let mut binv = Matrix::zeros(n, n);
        for i in 0..n {
            let s = 1.0 / d[i].sqrt();
            let support: Vec<(usize, f64)> = (0..=i)
                .filter(|&j| l[(i, j)] != 0.0)
                .map(|j| (j, l[(i, j)] * s))
                .collect();
            for &(ja, fa) in &support {
                for &(jb, fb) in &support {
                    binv[(ja, jb)] += fa * fb;
                }
            }
        }
        binv.symmetrize();
        (l, d, binv)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn regression_core_is_bit_identical_to_design_matrix_oracle() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut gs = GaussianSampler::new();
        // (n, N, band): the last two have N ≤ |preds|, so only the ridge
        // keeps the normal equations factorizable.
        for &(n, nens, band) in &[
            (9usize, 12usize, 3usize),
            (14, 32, 6),
            (12, 4, 7),
            (10, 3, 9),
        ] {
            let mut u = Matrix::from_fn(n, nens, |_, _| gs.sample(&mut rng));
            let means = u.row_means();
            u.subtract_row_vector(&means);
            let ridge = 0.05;
            let (l, d, binv) = design_matrix_oracle(&u, band_predecessors(band), ridge);
            let mc = ModifiedCholesky::estimate(&u, band_predecessors(band), ridge).unwrap();
            assert_eq!(bits(dense_l(&mc).as_slice()), bits(l.as_slice()), "L n={n}");
            assert_eq!(bits(mc.d()), bits(&d), "D n={n}");
            assert_eq!(
                bits(mc.inverse_covariance().as_slice()),
                bits(binv.as_slice()),
                "B⁻¹ n={n}"
            );
        }
    }

    #[test]
    fn predecessors_are_filtered_sorted_and_deduplicated() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut gs = GaussianSampler::new();
        let u = Matrix::from_fn(6, 10, |_, _| gs.sample(&mut rng));
        let tidy = ModifiedCholesky::estimate(&u, band_predecessors(3), 1e-6).unwrap();
        let messy = ModifiedCholesky::estimate(
            &u,
            |i| {
                let mut v: Vec<usize> = (i.saturating_sub(3)..i).rev().collect();
                v.extend(i.checked_sub(1));
                v.push(i + 2);
                v
            },
            1e-6,
        )
        .unwrap();
        assert_eq!(dense_l(&messy), dense_l(&tidy));
        assert_eq!(messy.d(), tidy.d());
    }

    #[test]
    fn estimate_into_reuses_buffers_and_each_lane_is_the_width_1_estimate() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut gs = GaussianSampler::new();
        let mut mc = ModifiedCholesky::<4>::default();
        let mut ws = ModCholWorkspace::default();
        let mut binv = Vec::new();
        for n in [8usize, 3, 11] {
            let us: Vec<Matrix> = (0..4)
                .map(|_| Matrix::from_fn(n, 9, |_, _| gs.sample(&mut rng)))
                .collect();
            // Lane-interleaved anomalies: component i, member s, lane l.
            let rows: Vec<[f64; 4]> = (0..n * 9)
                .map(|k| std::array::from_fn(|l| us[l].as_slice()[k]))
                .collect();
            let ridge = [1e-4, 0.5, 0.0, 1e-300];
            mc.estimate_into(
                &mut ws,
                n,
                |i| &rows[i * 9..(i + 1) * 9],
                |a, b| std::array::from_fn(|l| dot(us[l].row(a), us[l].row(b))),
                |i, out| out.extend(i.saturating_sub(2)..i),
                ridge,
            )
            .unwrap();
            mc.inverse_covariance_into(&mut ws, &mut binv);
            for (l, u) in us.iter().enumerate() {
                let fresh = ModifiedCholesky::estimate(u, band_predecessors(2), ridge[l]).unwrap();
                let dense = fresh.inverse_covariance();
                for i in 0..n {
                    assert_eq!(mc.d[i][l].to_bits(), fresh.d()[i].to_bits());
                    let (_, vals) = mc.row(i);
                    let (_, want) = fresh.row(i);
                    assert_eq!(
                        bits(&vals.iter().map(|v| v[l]).collect::<Vec<_>>()),
                        bits(want.as_flattened())
                    );
                    for j in 0..=i {
                        assert_eq!(binv[tri(i) + j][l].to_bits(), dense[(i, j)].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_single_member() {
        let u = Matrix::zeros(4, 1);
        assert!(ModifiedCholesky::estimate(&u, band_predecessors(1), 1e-8).is_err());
    }
}
