//! The domain-localized analysis (Eq. 6) on a sub-domain, layer, or point.

use crate::{EnkfError, Result};
use enkf_grid::{GridPoint, LocalizationRadius, Mesh, RegionRect};
use enkf_linalg::kernel::gemm::dot;
use enkf_linalg::{CholWorkspace, Cholesky, Matrix, ModCholWorkspace, ModifiedCholesky};
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Observations restricted to an expansion region: the local pieces
/// `H_{[i,j]}`, `Yˢ_{[i,j]}`, `R_{[i,j]}` of Eq. 6. Built by
/// [`crate::Observations::localize`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LocalObservations {
    /// Expansion-local point index observed by each local row of `H`.
    pub local_rows: Vec<usize>,
    /// Observed values.
    pub values: Vec<f64>,
    /// Diagonal of the local `R`.
    pub error_var: Vec<f64>,
    /// Local perturbed observations `Yˢ_{[i,j]}` (`m̄ × N`).
    pub perturbed: Matrix,
}

impl LocalObservations {
    /// Number of local observed components `m̄`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the region contains no observation.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Restrict the perturbed observations to the given ensemble-member
    /// columns (ascending global member indices). Degraded-mode executors
    /// use this to drop the perturbation columns of lost members so the
    /// local analysis sees a consistent `m̄ × N_alive` system.
    pub fn select_members(&self, members: &[usize]) -> LocalObservations {
        let mut perturbed = Matrix::zeros(self.perturbed.nrows(), members.len());
        for r in 0..self.perturbed.nrows() {
            for (c, &k) in members.iter().enumerate() {
                perturbed[(r, c)] = self.perturbed[(r, k)];
            }
        }
        LocalObservations {
            local_rows: self.local_rows.clone(),
            values: self.values.clone(),
            error_var: self.error_var.clone(),
            perturbed,
        }
    }

    /// Re-localize from an expansion to a sub-rectangle of it (e.g. a grid
    /// point's local box), remapping the row indices into `inner`-local
    /// coordinates.
    pub fn sub_localize(&self, outer: &RegionRect, inner: &RegionRect) -> LocalObservations {
        debug_assert!(outer.contains_rect(inner));
        let mut local_rows = Vec::new();
        let mut values = Vec::new();
        let mut error_var = Vec::new();
        let mut rows = Vec::new();
        for (r, &outer_idx) in self.local_rows.iter().enumerate() {
            let p = outer.point_at(outer_idx);
            if inner.contains(p) {
                local_rows.push(inner.local_index(p));
                values.push(self.values[r]);
                error_var.push(self.error_var[r]);
                rows.push(r);
            }
        }
        let mut perturbed = Matrix::zeros(rows.len(), self.perturbed.ncols());
        for (out_r, &src_r) in rows.iter().enumerate() {
            perturbed
                .row_mut(out_r)
                .copy_from_slice(self.perturbed.row(src_r));
        }
        LocalObservations {
            local_rows,
            values,
            error_var,
            perturbed,
        }
    }
}

/// Bucket-grid index over an expansion's local observations.
///
/// Built once per `analyze_pointwise` call (or per assimilation cycle by a
/// caller that keeps it around), it makes the per-grid-point
/// re-localization — "which of the expansion's observations fall inside
/// this point's box" — cost O(obs in box) instead of O(obs in expansion).
/// Query results are byte-identical to
/// [`LocalObservations::sub_localize`].
#[derive(Debug, Clone)]
pub struct LocalObsIndex {
    outer: RegionRect,
    cell: usize,
    ncx: usize,
    ncy: usize,
    /// CSR bucket offsets into `items`, length `ncx * ncy + 1`.
    starts: Vec<usize>,
    /// Local observation row numbers grouped by bucket.
    items: Vec<usize>,
}

impl LocalObsIndex {
    /// Index `obs` (localized to `outer`) with square buckets of `cell`
    /// grid points per edge. Pick `cell` on the order of the localization
    /// radius so a box query touches O(1) buckets.
    pub fn build(obs: &LocalObservations, outer: &RegionRect, cell: usize) -> Self {
        assert!(cell > 0, "bucket edge must be positive");
        let ncx = outer.width().div_ceil(cell).max(1);
        let ncy = outer.height().div_ceil(cell).max(1);
        let nb = ncx * ncy;
        let bucket = |outer_idx: usize| {
            let p = outer.point_at(outer_idx);
            ((p.iy - outer.y0) / cell) * ncx + (p.ix - outer.x0) / cell
        };
        let mut starts = vec![0usize; nb + 1];
        for &idx in &obs.local_rows {
            starts[bucket(idx) + 1] += 1;
        }
        for b in 0..nb {
            starts[b + 1] += starts[b];
        }
        let mut fill = starts.clone();
        let mut items = vec![0usize; obs.local_rows.len()];
        for (r, &idx) in obs.local_rows.iter().enumerate() {
            let b = bucket(idx);
            items[fill[b]] = r;
            fill[b] += 1;
        }
        LocalObsIndex {
            outer: *outer,
            cell,
            ncx,
            ncy,
            starts,
            items,
        }
    }

    /// Indexed [`LocalObservations::sub_localize`] into caller-owned
    /// buffers: byte-identical output, O(obs in `inner`) cost, and no
    /// allocation once `scratch`/`out` reach steady-state capacity.
    pub fn sub_localize_into(
        &self,
        obs: &LocalObservations,
        inner: &RegionRect,
        scratch: &mut Vec<usize>,
        out: &mut LocalObservations,
    ) {
        debug_assert!(self.outer.contains_rect(inner));
        out.local_rows.clear();
        out.values.clear();
        out.error_var.clear();
        scratch.clear();
        if !inner.is_empty() && !self.items.is_empty() {
            let bx0 = (inner.x0 - self.outer.x0) / self.cell;
            let bx1 = ((inner.x1 - 1 - self.outer.x0) / self.cell).min(self.ncx - 1);
            let by0 = (inner.y0 - self.outer.y0) / self.cell;
            let by1 = ((inner.y1 - 1 - self.outer.y0) / self.cell).min(self.ncy - 1);
            for by in by0..=by1 {
                for bx in bx0..=bx1 {
                    let b = by * self.ncx + bx;
                    for &r in &self.items[self.starts[b]..self.starts[b + 1]] {
                        if inner.contains(self.outer.point_at(obs.local_rows[r])) {
                            scratch.push(r);
                        }
                    }
                }
            }
            // Buckets are visited in bucket order; the linear scan emits
            // rows in ascending source order — restore it.
            scratch.sort_unstable();
        }
        out.perturbed.resize(scratch.len(), obs.perturbed.ncols());
        for (out_r, &r) in scratch.iter().enumerate() {
            let p = self.outer.point_at(obs.local_rows[r]);
            out.local_rows.push(inner.local_index(p));
            out.values.push(obs.values[r]);
            out.error_var.push(obs.error_var[r]);
            out.perturbed
                .row_mut(out_r)
                .copy_from_slice(obs.perturbed.row(r));
        }
    }
}

/// Granularity of the localized analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisGranularity {
    /// One modified-Cholesky estimate over the whole expansion, one solve
    /// for the whole region (the blocked formulation of Eq. 6).
    Region,
    /// Update each grid point from its own local box (Fig. 2a). The result
    /// is independent of how the domain is decomposed into sub-domains and
    /// layers — the property the cross-variant equivalence tests rely on.
    PointWise,
}

/// The localized analysis kernel shared by the serial reference and every
/// parallel variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalAnalysis {
    /// Localization radius `(ξ, η)`.
    pub radius: LocalizationRadius,
    /// *Relative* ridge regularization for the modified-Cholesky
    /// regressions: the Tikhonov term is `ridge ×` the mean local anomaly
    /// variance, so the shrinkage adapts to the field's scale. Values
    /// around `0.05`–`0.2` stabilize the regressions when the localization
    /// neighborhood size approaches the ensemble size `N`.
    pub ridge: f64,
    /// Analysis granularity.
    pub granularity: AnalysisGranularity,
}

impl LocalAnalysis {
    /// Default relative ridge (see [`LocalAnalysis::ridge`]).
    pub const DEFAULT_RIDGE: f64 = 0.1;

    /// Point-wise analysis with the default ridge.
    pub fn new(radius: LocalizationRadius) -> Self {
        LocalAnalysis {
            radius,
            ridge: Self::DEFAULT_RIDGE,
            granularity: AnalysisGranularity::PointWise,
        }
    }

    /// Region-granularity analysis with the default ridge.
    pub fn blocked(radius: LocalizationRadius) -> Self {
        LocalAnalysis {
            radius,
            ridge: Self::DEFAULT_RIDGE,
            granularity: AnalysisGranularity::Region,
        }
    }

    /// Compute the analysis on `target` given background data on
    /// `expansion`.
    ///
    /// * `target` — the rows to update (a sub-domain, one layer, one point);
    ///   must be contained in `expansion`.
    /// * `expansion` — the region `xb` covers; must contain the
    ///   radius-expansion of `target` (clamped to the mesh).
    /// * `xb` — `expansion.npoints() × N` background data in expansion-local
    ///   row-priority order.
    /// * `obs` — observations localized to `expansion`.
    ///
    /// Returns the `target.npoints() × N` analysis `X^a` (Eq. 6).
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

    /// Blocked Eq. 6 over the full expansion.
    fn analyze_region(
        &self,
        target: &RegionRect,
        expansion: &RegionRect,
        xb: &Matrix,
        obs: &LocalObservations,
    ) -> Result<Matrix> {
        let target_rows = expansion.local_indices_of(target);
        if obs.is_empty() {
            // No information: X^a = X^b on the target.
            return Ok(xb.select_rows(&target_rows));
        }
        let nbar = expansion.npoints();
        let nens = xb.ncols();

        // U = X̄ᵇ − mean, B̂⁻¹ = Lᵀ D⁻¹ L via modified Cholesky with the
        // localization neighborhood as the regression support.
        let mut u = xb.clone();
        let means = u.row_means();
        u.subtract_row_vector(&means);
        // Scale the ridge by the mean anomaly variance so the shrinkage is
        // dimensionless in the field's units.
        let denom = (nens - 1).max(1) as f64;
        let mean_var = u.as_slice().iter().map(|&v| v * v).sum::<f64>() / (denom * nbar as f64);
        let lambda = (self.ridge * mean_var).max(f64::MIN_POSITIVE);
        let mc = ModifiedCholesky::estimate(&u, box_predecessors(expansion, self.radius), lambda)?;
        let mut a = mc.inverse_covariance();

        // A = B̂⁻¹ + Hᵀ R⁻¹ H — the selection H adds 1/σ²ₖ at the observed
        // diagonal entries.
        for (r, &row) in obs.local_rows.iter().enumerate() {
            a[(row, row)] += 1.0 / obs.error_var[r];
        }

        // Z = Hᵀ R⁻¹ (Yˢ − H X̄ᵇ).
        let mut z = Matrix::zeros(nbar, nens);
        for (r, &row) in obs.local_rows.iter().enumerate() {
            let inv_var = 1.0 / obs.error_var[r];
            for k in 0..nens {
                let innovation = obs.perturbed[(r, k)] - xb[(row, k)];
                z[(row, k)] += inv_var * innovation;
            }
        }

        // δX^a = A⁻¹ Z; X^a = X̄ᵇ + δX^a restricted to the target rows.
        let ch = Cholesky::factor(&a)?;
        let delta = ch.solve(&z)?;
        let mut xa = xb.clone();
        xa.axpy(1.0, &delta)?;
        Ok(xa.select_rows(&target_rows))
    }

    /// Point-wise Eq. 6: each target point analyzed from its own local box.
    ///
    /// The expansion's anomalies and their banded Gram table
    /// ([`AnomalyGram`]) are computed once and shared read-only by the
    /// workers; each worker owns one [`LocalAnalysisWorkspace`] and reuses
    /// it across all its grid points.
    fn analyze_pointwise(
        &self,
        mesh: Mesh,
        target: &RegionRect,
        expansion: &RegionRect,
        xb: &Matrix,
        obs: &LocalObservations,
    ) -> Result<Matrix> {
        if obs.is_empty() {
            // No information anywhere in reach: X^a = X^b on the target.
            return Ok(xb.select_rows(&expansion.local_indices_of(target)));
        }
        let mut out = Matrix::zeros(target.npoints(), xb.ncols());
        let cell = self.radius.xi.max(self.radius.eta).max(1);
        let index = LocalObsIndex::build(obs, expansion, cell);
        let gram = AnomalyGram::build(xb, expansion, self.radius);
        par_point_rows(
            &mut out,
            target,
            LocalAnalysisWorkspace::new,
            |p, ws, row| {
                self.analyze_point_into(mesh, p, expansion, xb, obs, &index, &gram, ws, row)
            },
        )?;
        Ok(out)
    }

    /// One grid point's local analysis written into its output row.
    ///
    /// Equivalent to running `LocalAnalysis::analyze_region` on the
    /// point's box, but only the target row of `δX = A⁻¹ Z` is formed:
    /// since `A` is symmetric, `δX[t,·] = (A⁻¹ eₜ)ᵀ Z`, so a single
    /// triangular solve replaces one per ensemble member and `Z` is never
    /// materialized. The box is never copied out either: its anomaly rows
    /// and every regression's normal equations are read from `gram`, which
    /// must have been built from the same `xb`, `expansion` and radius.
    #[allow(clippy::too_many_arguments)]
    pub fn analyze_point_into(
        &self,
        mesh: Mesh,
        p: GridPoint,
        expansion: &RegionRect,
        xb: &Matrix,
        obs: &LocalObservations,
        index: &LocalObsIndex,
        gram: &AnomalyGram,
        ws: &mut LocalAnalysisWorkspace,
        out_row: &mut [f64],
    ) -> Result<()> {
        let single = RegionRect::new(p.ix, p.ix + 1, p.iy, p.iy + 1);
        let boxr = single.expand(self.radius, mesh);
        debug_assert!(expansion.contains_rect(&boxr));
        index.sub_localize_into(obs, &boxr, &mut ws.obs_scratch, &mut ws.obs_box);
        out_row.copy_from_slice(xb.row(expansion.local_index(p)));
        if ws.obs_box.is_empty() {
            return Ok(());
        }
        let LocalAnalysisWorkspace {
            box_rows,
            box_keys,
            obs_box,
            mc,
            mc_ws,
            a,
            chol,
            w,
            ..
        } = ws;
        box_rows.clear();
        box_keys.clear();
        for q in boxr.iter_points() {
            box_rows.push(expansion.local_index(q));
            box_keys.push(gram.key(expansion, q));
        }
        let nbar = box_rows.len();
        let nens = xb.ncols();
        // The adaptive ridge, as in `analyze_region`: one running sum over
        // the box's anomalies in row-major order.
        let mut sum_sq = 0.0;
        for &r in box_rows.iter() {
            for &v in gram.anomalies.row(r) {
                sum_sq += v * v;
            }
        }
        let denom = (nens - 1).max(1) as f64;
        let mean_var = sum_sq / (denom * nbar as f64);
        let lambda = (self.ridge * mean_var).max(f64::MIN_POSITIVE);
        mc.estimate_into(
            mc_ws,
            nbar,
            |j| gram.anomalies.row(box_rows[j]),
            |ja, jb| gram.entry(box_rows[ja], box_keys[ja], box_keys[jb]),
            |i, preds| push_box_predecessors(&boxr, self.radius, i, preds),
            lambda,
        )?;
        mc.inverse_covariance_into(mc_ws, a);
        for (r, &row) in obs_box.local_rows.iter().enumerate() {
            a[(row, row)] += 1.0 / obs_box.error_var[r];
        }
        chol.factor(a)?;
        w.clear();
        w.resize(nbar, 0.0);
        w[boxr.local_index(p)] = 1.0;
        chol.solve_in_place(w)?;
        // X^a[t,·] = X^b[t,·] + wᵀ Z with Z's rows formed on the fly.
        for (r, &row) in obs_box.local_rows.iter().enumerate() {
            let c = w[row] / obs_box.error_var[r];
            let background = xb.row(box_rows[row]);
            let perturbed = obs_box.perturbed.row(r);
            for ((o, &y), &x) in out_row.iter_mut().zip(perturbed).zip(background) {
                *o += c * (y - x);
            }
        }
        Ok(())
    }
}

/// Run `f(point, workspace, output row)` over every point of `target`,
/// whose analysis `out` holds one row per point: the rows are split into
/// one contiguous chunk per rayon worker, each worker creating a single
/// workspace for its whole chunk. Returns the first error any worker hit.
pub(crate) fn par_point_rows<W>(
    out: &mut Matrix,
    target: &RegionRect,
    new_workspace: impl Fn() -> W + Sync,
    f: impl Fn(GridPoint, &mut W, &mut [f64]) -> Result<()> + Sync,
) -> Result<()> {
    let nens = out.ncols();
    if out.nrows() == 0 || nens == 0 {
        return Ok(());
    }
    let chunk_rows = out.nrows().div_ceil(rayon::current_num_threads()).max(1);
    let first_err: Mutex<Option<EnkfError>> = Mutex::new(None);
    out.as_mut_slice()
        .par_chunks_mut(chunk_rows * nens)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let mut ws = new_workspace();
            for (i, row) in chunk.chunks_mut(nens).enumerate() {
                if let Err(e) = f(target.point_at(ci * chunk_rows + i), &mut ws, row) {
                    // The slot is a plain `Option`, valid whatever a
                    // panicking holder did, so a poisoned lock is still
                    // good to use.
                    first_err
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert(e);
                    return;
                }
            }
        });
    match first_err
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The anomalies of an expansion's background and the banded table of
/// their inner products, computed once per point-wise
/// [`LocalAnalysis::analyze`] call and shared read-only by its workers.
///
/// Every entry of every modified-Cholesky regression's normal equations is
/// an inner product `uₐ · u_b` of two anomaly rows, and a row's anomalies
/// depend on that row alone — so the number for a mesh pair `(a, b)` is the
/// same in every regression of every box holding both. Predictors of a
/// point lie within `ξ` columns of it and at most `η` rows above it, so
/// with `a` the earlier point in row-major order only the offsets
/// `0 ≤ dy ≤ η`, `|dx| ≤ 2ξ` ever occur: `(η + 1)(4ξ + 1)` slots per
/// expansion point.
///
/// Each entry is [`dot`] of the two rows — folded from `0.0` in ascending
/// member order, exactly the value `Xᵀ X` (the `gemm::tn` kernel) holds for
/// that pair in a gathered design matrix — so analyses are bit-identical to
/// re-forming the products per regression.
#[derive(Debug, Clone, Default)]
pub struct AnomalyGram {
    /// `U = X̄ᵇ − mean`, one row per expansion point.
    anomalies: Matrix,
    means: Vec<f64>,
    /// Slots per table row of one `dy`: `4ξ + 1`.
    band: usize,
    /// `2ξ`, the slot of `dx = 0`.
    centre: usize,
    /// Slots per expansion point: `(η + 1) · band`.
    stride: usize,
    table: Vec<f64>,
}

impl AnomalyGram {
    /// Anomalies and Gram table of `xb` (`expansion.npoints() × N`, in
    /// expansion-local row-priority order) for localization `radius`.
    pub fn build(xb: &Matrix, expansion: &RegionRect, radius: LocalizationRadius) -> Self {
        let mut gram = AnomalyGram::default();
        gram.rebuild(xb, expansion, radius);
        gram
    }

    /// [`AnomalyGram::build`] in place, reusing this table's buffers (a
    /// caller cycling over same-shaped backgrounds allocates nothing).
    pub fn rebuild(&mut self, xb: &Matrix, expansion: &RegionRect, radius: LocalizationRadius) {
        assert_eq!(xb.nrows(), expansion.npoints(), "xb rows vs expansion");
        self.anomalies.copy_from(xb);
        self.anomalies.row_means_into(&mut self.means);
        self.anomalies.subtract_row_vector(&self.means);
        let (width, height) = (expansion.width(), expansion.height());
        self.centre = 2 * radius.xi;
        self.band = 2 * self.centre + 1;
        self.stride = (radius.eta + 1) * self.band;
        self.table.clear();
        self.table.resize(xb.nrows() * self.stride, 0.0);
        let (band, centre) = (self.band, self.centre);
        for (a, slots) in self.table.chunks_mut(self.stride).enumerate() {
            let (x, y) = (a % width, a / width);
            let ua = self.anomalies.row(a);
            for dy in 0..=radius.eta.min(height - 1 - y) {
                // On its own row a point only ever pairs with later ones.
                let x_lo = if dy == 0 { x } else { x.saturating_sub(centre) };
                let x_hi = (x + centre).min(width - 1);
                for bx in x_lo..=x_hi {
                    let b = (y + dy) * width + bx;
                    slots[dy * band + centre + bx - x] = dot(ua, self.anomalies.row(b));
                }
            }
        }
    }

    /// Position of mesh point `q` in the table's offset arithmetic: the
    /// difference of two keys is `dy · band + dx`.
    fn key(&self, expansion: &RegionRect, q: GridPoint) -> usize {
        (q.iy - expansion.y0) * self.band + (q.ix - expansion.x0)
    }

    /// `u_a · u_b` for expansion-local row `a` with key `key_a` and a point
    /// with key `key_b` that is not before `a` in row-major order and lies
    /// inside the band.
    #[inline]
    fn entry(&self, a: usize, key_a: usize, key_b: usize) -> f64 {
        self.table[a * self.stride + self.centre + key_b - key_a]
    }
}

/// Per-thread scratch buffers for the point-wise local analysis.
///
/// One instance per worker, reused across every grid point the worker
/// analyzes; once the buffers have grown to the largest box, the per-point
/// kernel performs no heap allocation (`tests/alloc_free.rs`).
#[derive(Debug, Clone, Default)]
pub struct LocalAnalysisWorkspace {
    /// Expansion-local row of each box point, and its [`AnomalyGram`] key.
    box_rows: Vec<usize>,
    box_keys: Vec<usize>,
    obs_box: LocalObservations,
    obs_scratch: Vec<usize>,
    mc: ModifiedCholesky,
    mc_ws: ModCholWorkspace,
    /// `A = B̂⁻¹ + Hᵀ R⁻¹ H` of the box.
    a: Matrix,
    chol: CholWorkspace,
    w: Vec<f64>,
}

impl LocalAnalysisWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Push onto `preds` the predecessors of local index `i` in `rect`: the
/// local indices `j < i`, ascending, whose points lie inside `i`'s local
/// box.
fn push_box_predecessors(
    rect: &RegionRect,
    radius: LocalizationRadius,
    i: usize,
    preds: &mut Vec<usize>,
) {
    let p = rect.point_at(i);
    let y_lo = p.iy.saturating_sub(radius.eta).max(rect.y0);
    let x_lo = p.ix.saturating_sub(radius.xi).max(rect.x0);
    let x_hi = (p.ix + radius.xi + 1).min(rect.x1);
    for iy in y_lo..=p.iy {
        for ix in x_lo..x_hi {
            let j = rect.local_index(GridPoint { ix, iy });
            if j < i {
                preds.push(j);
            }
        }
    }
}

/// Predecessor closure for the modified Cholesky over a rectangle: for
/// local index `i` (row-priority point `p`), the local indices `j < i`
/// whose points lie inside `p`'s local box — the structural sparsity that
/// encodes domain localization in the estimator.
pub fn box_predecessors(
    rect: &RegionRect,
    radius: LocalizationRadius,
) -> impl FnMut(usize) -> Vec<usize> + '_ {
    let rect = *rect;
    move |i| {
        let mut preds = Vec::new();
        push_box_predecessors(&rect, radius, i, &mut preds);
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_grid::{GridPoint, Mesh, ObservationNetwork};
    use enkf_linalg::GaussianSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_obs(
        mesh: Mesh,
        stride: usize,
        expansion: &RegionRect,
        seed: u64,
        nens: usize,
    ) -> LocalObservations {
        let net = ObservationNetwork::uniform(mesh, stride);
        let op = crate::ObservationOperator::new(net);
        let m = op.len();
        let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.3).sin()).collect();
        let obs = crate::Observations::new(
            op,
            values,
            vec![0.1; m],
            crate::PerturbedObservations::new(seed, nens),
        );
        obs.localize(expansion)
    }

    fn random_xb(npoints: usize, nens: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        Matrix::from_fn(npoints, nens, |_, _| gs.sample(&mut rng))
    }

    #[test]
    fn box_predecessors_respect_radius_and_order() {
        let rect = RegionRect::new(0, 5, 0, 4);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let mut preds = box_predecessors(&rect, radius);
        // Point (2,2) has local index 12; predecessors are box points with
        // smaller local index.
        let i = rect.local_index(GridPoint { ix: 2, iy: 2 });
        let got = preds(i);
        for &j in &got {
            assert!(j < i);
            let q = rect.point_at(j);
            assert!(q.ix.abs_diff(2) <= 1 && q.iy.abs_diff(2) <= 1);
        }
        // Full box minus self and successors: row above (3) + left neighbor (1).
        assert_eq!(got.len(), 4);
        assert!(preds(0).is_empty());
    }

    #[test]
    fn gram_table_entries_equal_tr_matmul_entries_bitwise() {
        // Anisotropic radius on an expansion clamped at two mesh edges.
        let mesh = Mesh::new(9, 7);
        let radius = LocalizationRadius { xi: 2, eta: 1 };
        let expansion = RegionRect::new(0, 8, 2, 7);
        let xb = random_xb(expansion.npoints(), 11, 29);
        let gram = AnomalyGram::build(&xb, &expansion, radius);
        let mut u = xb.clone();
        let means = u.row_means();
        u.subtract_row_vector(&means);
        assert_eq!(gram.anomalies, u);
        // XᵀX of the design matrix whose columns are *all* the expansion's
        // anomaly rows: entry (a, b) is the inner product a regression
        // with both as predictors would have formed.
        let x = u.transpose();
        let xtx = x.tr_matmul(&x).unwrap();
        let mut checked = 0;
        for p in expansion.iter_points() {
            let boxr = RegionRect::new(p.ix, p.ix + 1, p.iy, p.iy + 1)
                .expand(radius, mesh)
                .intersect(&expansion);
            let i = expansion.local_index(p);
            // Every pair the regressions of `p` can ask for: two of its
            // predecessors, or a predecessor and `p` itself.
            let mut preds: Vec<GridPoint> = boxr
                .iter_points()
                .filter(|q| q.iy <= p.iy && expansion.local_index(*q) <= i)
                .collect();
            preds.sort_by_key(|q| expansion.local_index(*q));
            for (k, qa) in preds.iter().enumerate() {
                for qb in &preds[k..] {
                    let (a, b) = (expansion.local_index(*qa), expansion.local_index(*qb));
                    let got = gram.entry(a, gram.key(&expansion, *qa), gram.key(&expansion, *qb));
                    assert_eq!(got.to_bits(), xtx[(a, b)].to_bits(), "pair {qa:?} {qb:?}");
                    assert_eq!(got.to_bits(), xtx[(b, a)].to_bits());
                    checked += 1;
                }
            }
        }
        assert!(checked > 500);
    }

    #[test]
    fn no_observations_is_identity() {
        let mesh = Mesh::new(8, 8);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let target = RegionRect::new(2, 4, 2, 4);
        let expansion = target.expand(radius, mesh);
        let xb = random_xb(expansion.npoints(), 6, 3);
        let empty = LocalObservations {
            local_rows: vec![],
            values: vec![],
            error_var: vec![],
            perturbed: Matrix::zeros(0, 6),
        };
        for la in [LocalAnalysis::new(radius), LocalAnalysis::blocked(radius)] {
            let xa = la.analyze(mesh, &target, &expansion, &xb, &empty).unwrap();
            let rows = expansion.local_indices_of(&target);
            assert_eq!(xa, xb.select_rows(&rows));
        }
    }

    #[test]
    fn analysis_moves_toward_observations() {
        // Background far from obs; analysis mean must move toward the
        // observed values at observed points.
        let mesh = Mesh::new(6, 6);
        let radius = LocalizationRadius { xi: 2, eta: 2 };
        let target = RegionRect::full(mesh);
        let expansion = target;
        let nens = 20;
        // Background centered at 5.0; observations near 0.
        let mut xb = random_xb(expansion.npoints(), nens, 9);
        for v in xb.as_mut_slice() {
            *v += 5.0;
        }
        let obs = make_obs(mesh, 2, &expansion, 11, nens);
        assert!(!obs.is_empty());
        let la = LocalAnalysis::new(radius);
        let xa = la.analyze(mesh, &target, &expansion, &xb, &obs).unwrap();
        for (r, &row) in obs.local_rows.iter().enumerate() {
            let before: f64 = (0..nens).map(|k| xb[(row, k)]).sum::<f64>() / nens as f64;
            let after: f64 = (0..nens).map(|k| xa[(row, k)]).sum::<f64>() / nens as f64;
            let y = obs.values[r];
            assert!(
                (after - y).abs() < (before - y).abs(),
                "row {row}: {before} -> {after}, obs {y}"
            );
        }
    }

    #[test]
    fn pointwise_is_decomposition_invariant() {
        // Analyzing the whole domain at once or in two halves must give the
        // same point-wise result.
        let mesh = Mesh::new(8, 4);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let nens = 8;
        let full = RegionRect::full(mesh);
        let xb_full = random_xb(full.npoints(), nens, 17);
        let obs_full = make_obs(mesh, 2, &full, 23, nens);
        let la = LocalAnalysis::new(radius);
        let xa_full = la.analyze(mesh, &full, &full, &xb_full, &obs_full).unwrap();

        let make_obs_global = || {
            let net = ObservationNetwork::uniform(mesh, 2);
            let op = crate::ObservationOperator::new(net);
            let m = op.len();
            let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.3).sin()).collect();
            crate::Observations::new(
                op,
                values,
                vec![0.1; m],
                crate::PerturbedObservations::new(23, nens),
            )
        };
        let obs_global = make_obs_global();

        for target in [RegionRect::new(0, 4, 0, 4), RegionRect::new(4, 8, 0, 4)] {
            let expansion = target.expand(radius, mesh);
            // Restrict full-domain xb to the expansion.
            let rows = full.local_indices_of(&expansion);
            let xb_local = xb_full.select_rows(&rows);
            let obs_local = obs_global.localize(&expansion);
            let xa_local = la
                .analyze(mesh, &target, &expansion, &xb_local, &obs_local)
                .unwrap();
            // Compare against the full-domain result on the same points.
            let target_rows = full.local_indices_of(&target);
            let expect = xa_full.select_rows(&target_rows);
            assert!(
                xa_local.approx_eq(&expect, 1e-12),
                "decomposed analysis differs on {target:?}"
            );
        }
    }

    #[test]
    fn geometry_mismatches_rejected() {
        let mesh = Mesh::new(8, 8);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let la = LocalAnalysis::new(radius);
        let target = RegionRect::new(2, 4, 2, 4);
        let xb = random_xb(4, 4, 1);
        let empty = LocalObservations {
            local_rows: vec![],
            values: vec![],
            error_var: vec![],
            perturbed: Matrix::zeros(0, 4),
        };
        // Expansion equal to the target misses the halo.
        let err = la.analyze(mesh, &target, &target, &xb, &empty);
        assert!(matches!(err, Err(EnkfError::GeometryMismatch(_))));
        // xb with wrong row count.
        let expansion = target.expand(radius, mesh);
        let err2 = la.analyze(mesh, &target, &expansion, &xb, &empty);
        assert!(matches!(err2, Err(EnkfError::GeometryMismatch(_))));
    }

    #[test]
    fn indexed_sub_localize_is_byte_identical_to_linear() {
        let mesh = Mesh::new(9, 7);
        let outer = RegionRect::new(2, 9, 1, 7);
        let obs = make_obs(mesh, 2, &outer, 5, 4);
        assert!(!obs.is_empty());
        let mut scratch = vec![3usize; 2];
        let mut out = LocalObservations {
            local_rows: vec![9],
            values: vec![1.0],
            error_var: vec![1.0],
            perturbed: Matrix::zeros(1, 1),
        };
        for cell in [1usize, 2, 3, 8] {
            let index = LocalObsIndex::build(&obs, &outer, cell);
            for inner in [
                RegionRect::new(3, 6, 2, 5),
                outer,
                RegionRect::new(4, 4, 1, 7),
                RegionRect::new(8, 9, 6, 7),
                RegionRect::new(2, 3, 1, 2),
            ] {
                index.sub_localize_into(&obs, &inner, &mut scratch, &mut out);
                assert_eq!(
                    out,
                    obs.sub_localize(&outer, &inner),
                    "cell {cell}, inner {inner:?}"
                );
            }
        }
    }

    #[test]
    fn sub_localize_remaps_rows() {
        let mesh = Mesh::new(6, 6);
        let full = RegionRect::full(mesh);
        let obs = make_obs(mesh, 2, &full, 5, 4);
        let inner = RegionRect::new(1, 5, 1, 5);
        let sub = obs.sub_localize(&full, &inner);
        for (r, &row) in sub.local_rows.iter().enumerate() {
            let p = inner.point_at(row);
            assert!(inner.contains(p));
            // The same observation exists in the outer set at the outer
            // local index.
            let outer_idx = full.local_index(p);
            let outer_r = obs.local_rows.iter().position(|&x| x == outer_idx).unwrap();
            assert_eq!(obs.values[outer_r], sub.values[r]);
            assert_eq!(obs.perturbed.row(outer_r), sub.perturbed.row(r));
        }
    }
}
