//! The deterministic ensemble-space analysis (LETKF).
//!
//! The paper's introduction situates L-EnKF implementations in "a
//! deterministic formulation of the EnKF in the ensemble space" (Ott et
//! al. 2004; Hunt's LETKF). This module provides that formulation's
//! point kernel, which no executor runs and the benchmark times beside the
//! modified-Cholesky one: instead of perturbing observations and solving
//! in state space with the modified-Cholesky `B̂⁻¹`, a grid point's update
//! is computed in the `N`-dimensional ensemble space of its local box,
//!
//! ```text
//! M   = (N−1) I + (H U)ᵀ R⁻¹ (H U)
//! P̃a  = M⁻¹
//! Wa  = sqrt(N−1) · M^{−1/2}
//! w̄   = P̃a (H U)ᵀ R⁻¹ (y − H x̄)
//! X^a = x̄ ⊗ 1ᵀ + U (Wa + w̄ ⊗ 1ᵀ)
//! ```
//!
//! with the inverse and symmetric square root from the Jacobi
//! eigendecomposition in ensemble space (`N × N`, small).

use crate::local::{LocalObsIndex, LocalObservations};
use crate::{EnkfError, Result};
use enkf_grid::{GridPoint, LocalizationRadius, Mesh, RegionRect};
use enkf_linalg::{EigenWorkspace, Matrix};

/// The point-wise LETKF kernel. Observations are used *unperturbed* (the
/// deterministic square-root filter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LetkfAnalysis {
    /// Localization radius `(ξ, η)`.
    pub radius: LocalizationRadius,
}

impl LetkfAnalysis {
    /// Point-wise LETKF of localization `radius`.
    pub fn new(radius: LocalizationRadius) -> Self {
        LetkfAnalysis { radius }
    }

    /// One grid point's LETKF analysis written into its output row.
    ///
    /// `p` must lie in `expansion`, which must hold the point's local box;
    /// `xb` is the background on `expansion`, `obs` the observations
    /// localized to it and `index` their bucket index. The result is bit
    /// for bit the region formulation over the point's box (the whole box's
    /// `U W` formed, its target row kept — the property tests' oracle): the
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
        Self::build_transform(nens, ws)?;

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
    ///   `M = (N−1) I + Ybᵀ R⁻¹ Yb` (`N × N`).
    /// * `m̄ < N`: the observation-space dual. `Ybᵀ R⁻¹ Yb = Sᵀ S` with
    ///   `S = R^{−1/2} Yb` has rank ≤ m̄, so the non-trivial spectrum comes
    ///   from the `m̄ × m̄` Gram matrix `S Sᵀ`: its eigenpairs `(σ²ᵢ, uᵢ)`
    ///   give `M = shift·I + Σ σ²ᵢ vᵢvᵢᵀ` with `vᵢ = Sᵀuᵢ/σᵢ`, and any
    ///   spectral function is
    ///   `f(M) = f(shift)·I + Σ (f(shift+σ²ᵢ) − f(shift)) vᵢvᵢᵀ`.
    ///   In the point-wise LETKF `m̄` is the handful of observations in one
    ///   local box while the Jacobi eigensolve scales cubically, so this
    ///   dual is the fast path behind the kernel's speedup.
    fn build_transform(nens: usize, ws: &mut LetkfWorkspace) -> Result<()> {
        let mbar = ws.yb.nrows();
        let shift = (nens - 1) as f64;
        if mbar >= nens {
            // M = (N−1) I + Ybᵀ R⁻¹ Yb in ensemble space.
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

/// Scratch buffers of [`LetkfAnalysis::analyze_point_into`].
///
/// Reused across every grid point a caller analyzes with it; at steady
/// state the per-point loop performs no heap allocation (see the
/// counting-allocator test in `crates/core/tests`).
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
