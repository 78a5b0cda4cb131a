//! The domain-localized analysis (Eq. 6) on a sub-domain, layer, or point.

use crate::{EnkfError, Result};
use enkf_grid::{GridPoint, LocalizationRadius, Mesh, RegionRect};
use enkf_linalg::kernel::gemm::dot;
use enkf_linalg::kernel::lanes::{check_pivots, factor_lanes, solve_lanes, tri, LaneOps};
use enkf_linalg::{Matrix, ModCholWorkspace, ModifiedCholesky};

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
/// Built once per [`LocalAnalysis::analyze`] call (or per assimilation
/// cycle by a caller that keeps it around), it makes the per-grid-point
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
    pub(crate) fn sub_localize_into(
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

/// The localized analysis kernel shared by the serial reference and every
/// parallel variant: point-wise Eq. 6, each grid point updated from its own
/// local box (Fig. 2a). The result is independent of how the domain is
/// decomposed into sub-domains and layers — the property the cross-variant
/// equivalence tests rely on.
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
}

impl LocalAnalysis {
    /// Default relative ridge (see [`LocalAnalysis::ridge`]).
    pub const DEFAULT_RIDGE: f64 = 0.1;

    /// Point-wise analysis with the default ridge.
    pub fn new(radius: LocalizationRadius) -> Self {
        LocalAnalysis {
            radius,
            ridge: Self::DEFAULT_RIDGE,
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
    ///
    /// The work follows the observations' reach: a target point whose box
    /// holds no observation keeps its background row (`Xᵃ = Xᵇ` there) and
    /// builds no box. The anomalies and banded Gram table ([`AnomalyGram`])
    /// of the rows the analysed boxes read are computed once, from these
    /// same `obs`, and one [`LocalAnalysisWorkspace`] serves every point.
    /// The call runs on its caller's thread: a rank is the unit of
    /// parallelism.
    ///
    /// An ensemble of fewer than 2 members (`xb` with 0 or 1 columns) is a
    /// typed [`EnkfError::Linalg`] error once any target point is observed.
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
        // Every row starts as its background; only observed points move.
        let nens = xb.ncols();
        let mut background = Vec::with_capacity(target.npoints() * nens);
        // Each mesh row of a non-empty target is one run of expansion rows.
        let mesh_rows = if target.is_empty() {
            0..0
        } else {
            target.y0..target.y1
        };
        for iy in mesh_rows {
            let a = expansion.local_index(GridPoint { ix: target.x0, iy });
            background.extend_from_slice(&xb.as_slice()[a * nens..][..target.width() * nens]);
        }
        let mut out = Matrix::from_vec(target.npoints(), nens, background)?;
        // Buckets of the radius, or of about one observation when they
        // are sparser: a box query still touches O(1) of them.
        let sparsity = (expansion.npoints() / obs.len().max(1)).isqrt();
        let cell = self.radius.xi.max(self.radius.eta).max(sparsity).max(1);
        let index = LocalObsIndex::build(obs, expansion, cell);
        let gram = AnomalyGram::build(xb, expansion, obs, self.radius);
        let io = PointInputs {
            mesh,
            expansion,
            xb,
            obs,
            index: &index,
            gram: &gram,
        };
        let ws = &mut LocalAnalysisWorkspace::new();
        let point_at = |row| target.point_at(row);
        self.analyze_rows(&io, target.npoints(), point_at, ws, out.as_mut_slice())?;
        Ok(out)
    }

    /// Points per lane pass: one AVX2 register of `f64`.
    pub const LANES: usize = 4;

    /// The local analyses of `points`, each written into its row of `out`
    /// (one row of `N` per point, in order, bit for bit what the point-wise
    /// [`LocalAnalysis::analyze`] gives it).
    ///
    /// A point's analysis equals the blocked Eq. 6 over its box (one
    /// modified-Cholesky estimate and one solve for the whole box), but
    /// only the target row of `δX = A⁻¹ Z` is formed: since `A` is
    /// symmetric, `δX[t,·] = (A⁻¹ eₜ)ᵀ Z`, so a single triangular solve
    /// replaces one per ensemble member and `Z` is never materialized. The box is never copied out either: its anomaly rows
    /// and every regression's normal equations are read from `io.gram`.
    ///
    /// Points whose boxes have one shape after mesh clipping share a box
    /// size, a box-local predecessor structure and a target index; only
    /// their data differ. So every point is localized once, a point whose
    /// box holds an observation is queued by box shape, and each queue that
    /// reaches [`LocalAnalysis::LANES`] points runs them as one lane pass;
    /// the rest run at width 1. Every row is its width-1 result, and the
    /// error returned is the one of the first failing point.
    pub fn analyze_points_into(
        &self,
        io: &PointInputs<'_>,
        points: &[GridPoint],
        ws: &mut LocalAnalysisWorkspace,
        out: &mut [f64],
    ) -> Result<()> {
        let nens = io.xb.ncols();
        for (row, &p) in points.iter().enumerate() {
            let background = io.xb.row(io.expansion.local_index(p));
            out[row * nens..(row + 1) * nens].copy_from_slice(background);
        }
        self.analyze_rows(io, points.len(), |row| points[row], ws, out)
    }

    /// [`LocalAnalysis::analyze_points_into`] over `rows` points whose rows
    /// of `out` hold their backgrounds: a failure is the lowest failing
    /// row's error.
    fn analyze_rows(
        &self,
        io: &PointInputs<'_>,
        rows: usize,
        point_at: impl Fn(usize) -> GridPoint,
        ws: &mut LocalAnalysisWorkspace,
        out: &mut [f64],
    ) -> Result<()> {
        let mut first_err = None;
        for row in 0..rows {
            let Some(id) = ws.localize(self, io, point_at(row), row) else {
                continue;
            };
            let shape = ws.slots[id].shape();
            let q = ws.queues.iter().position(|(s, _)| *s == shape);
            let q = q.unwrap_or_else(|| {
                ws.queues.push((shape, Vec::new()));
                ws.queues.len() - 1
            });
            ws.queues[q].1.push(id);
            if let Ok(ids) = <[usize; Self::LANES]>::try_from(ws.queues[q].1.as_slice()) {
                ws.queues[q].1.clear();
                keep_first(&mut first_err, self.run_lanes(io, &ids, ws, out));
            }
        }
        for q in 0..ws.queues.len() {
            while let Some(id) = ws.queues[q].1.pop() {
                keep_first(&mut first_err, self.run_lanes(io, &[id], ws, out));
            }
        }
        first_err.map_or(Ok(()), |(_, e)| Err(e))
    }

    /// One lane pass over the queued points `ids` (one, or
    /// [`LocalAnalysis::LANES`] of one box shape), which then return to the
    /// free list. A failed pass of several lanes is re-run point by point,
    /// in order, so the error is the first failing point's width-1 error.
    fn run_lanes(
        &self,
        io: &PointInputs<'_>,
        ids: &[usize],
        ws: &mut LocalAnalysisWorkspace,
        out: &mut [f64],
    ) -> RowResult {
        ws.free.extend_from_slice(ids);
        let slots = &ws.slots;
        if ids.len() == Self::LANES && ws.four.analyze(self, io, slots, ids, out).is_ok() {
            return Ok(());
        }
        ids.iter().try_for_each(|&id| {
            let r = ws.one.analyze(self, io, slots, &[id], out);
            r.map_err(|e| (slots[id].row, e))
        })
    }
}

/// What every point of one point-wise analysis reads:
/// [`LocalAnalysis::analyze`]'s mesh, expansion, background and localized
/// observations, plus the [`LocalObsIndex`] (of any bucket edge) and
/// [`AnomalyGram`] (of the analysis's radius) built from them. The Gram
/// must be built from these same `obs`: its mask decides which points are
/// analysed, and it holds rows only for their boxes.
#[derive(Debug, Clone, Copy)]
pub struct PointInputs<'a> {
    /// The mesh.
    pub mesh: Mesh,
    /// The region `xb` covers.
    pub expansion: &'a RegionRect,
    /// Background on `expansion`.
    pub xb: &'a Matrix,
    /// Observations localized to `expansion`.
    pub obs: &'a LocalObservations,
    /// Bucket index over `obs`.
    pub index: &'a LocalObsIndex,
    /// Anomalies and Gram table of `xb`, reached from `obs`.
    pub gram: &'a AnomalyGram,
}

/// A point loop's outcome: a failure is `(row, error)`.
type RowResult = std::result::Result<(), (usize, EnkfError)>;

/// Keep in `slot` the failure of the lowest row.
fn keep_first(slot: &mut Option<(usize, EnkfError)>, r: RowResult) {
    if let Err(e) = r {
        if slot.as_ref().is_none_or(|(row, _)| e.0 < *row) {
            *slot = Some(e);
        }
    }
}

/// The anomalies of an expansion's background and the banded table of
/// their inner products, computed once per point-wise
/// [`LocalAnalysis::analyze`] call and read by every point it analyses.
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
///
/// Only the points whose box holds an observation are analysed, and their
/// boxes are all any regression reads. So the table is built from the
/// observations too: a point is *observed* when an observation lies within
/// `(ξ, η)` of it, and a row is *reached* — gets its anomalies and its
/// table slots — when an observation lies within `(2ξ, 2η)` of it, which
/// covers every box of an observed point. A slot pairing two reached rows
/// holds the same [`dot`] of the same rows as a dense table; the others
/// hold `0.0` and are never read. The mask, the anomalies and the table are
/// therefore only valid for the observations they were built from.
#[derive(Debug, Clone, Default)]
pub struct AnomalyGram {
    /// Per expansion point: an observation lies within `(ξ, η)` of it.
    observed: Vec<bool>,
    /// Per expansion point: its row of `anomalies` and of the table, or
    /// [`AnomalyGram::UNREACHED`].
    rows: Vec<usize>,
    /// `U = X̄ᵇ − mean`, one row of `nens` per reached expansion point, in
    /// descending expansion order.
    anomalies: Vec<f64>,
    nens: usize,
    /// Slots per table row of one `dy`: `4ξ + 1`.
    band: usize,
    /// `2ξ`, the slot of `dx = 0`.
    centre: usize,
    /// Slots per reached point: `(η + 1) · band`.
    stride: usize,
    table: Vec<f64>,
}

impl AnomalyGram {
    /// [`AnomalyGram::rows`] of a point no analysed box holds.
    const UNREACHED: usize = usize::MAX;

    /// Anomalies and Gram table of `xb` (`expansion.npoints() × N`, in
    /// expansion-local row-priority order) for localization `radius`, on
    /// the rows the boxes of the points `obs` (localized to `expansion`)
    /// observe reach.
    pub fn build(
        xb: &Matrix,
        expansion: &RegionRect,
        obs: &LocalObservations,
        radius: LocalizationRadius,
    ) -> Self {
        let mut gram = AnomalyGram::default();
        gram.rebuild(xb, expansion, obs, radius);
        gram
    }

    /// [`AnomalyGram::build`] in place, reusing this table's buffers (a
    /// caller cycling over same-shaped backgrounds and networks allocates
    /// nothing).
    pub fn rebuild(
        &mut self,
        xb: &Matrix,
        expansion: &RegionRect,
        obs: &LocalObservations,
        radius: LocalizationRadius,
    ) {
        assert_eq!(xb.nrows(), expansion.npoints(), "xb rows vs expansion");
        let (width, height) = (expansion.width(), expansion.height());
        self.observed.clear();
        self.observed.resize(xb.nrows(), false);
        self.rows.clear();
        self.rows.resize(xb.nrows(), Self::UNREACHED);
        // Every expansion point within (`reach_x`, `reach_y`) of an
        // observation, as one span per mesh row.
        let near = |reach_x: usize, reach_y: usize| {
            obs.local_rows.iter().flat_map(move |&a| {
                let (x, y) = (a % width, a / width);
                let xs = x.saturating_sub(reach_x)..=(x + reach_x).min(width - 1);
                let ys = y.saturating_sub(reach_y)..=(y + reach_y).min(height - 1);
                ys.map(move |y| y * width + xs.start()..=y * width + xs.end())
            })
        };
        for span in near(radius.xi, radius.eta) {
            self.observed[span].fill(true);
        }
        // Reached rows are marked with any value but `UNREACHED` here and
        // numbered below.
        for span in near(2 * radius.xi, 2 * radius.eta) {
            self.rows[span].fill(0);
        }
        self.nens = xb.ncols();
        self.centre = 2 * radius.xi;
        self.band = 2 * self.centre + 1;
        self.stride = (radius.eta + 1) * self.band;
        let (nens, band, centre, stride) = (self.nens, self.band, self.centre, self.stride);
        let inv = 1.0 / nens as f64;
        let reached = self.rows.iter().filter(|&&r| r != Self::UNREACHED).count();
        let mut next = 0;
        self.anomalies.clear();
        self.anomalies.reserve(reached * nens);
        self.table.clear();
        self.table.resize(reached * stride, 0.0);
        // Backwards, so every later point a table row pairs with already
        // has its anomalies.
        for a in (0..xb.nrows()).rev() {
            if self.rows[a] == Self::UNREACHED {
                continue;
            }
            // Counted, not read off `anomalies`, which is empty when N = 0.
            let ra = next;
            next += 1;
            self.rows[a] = ra;
            // The anomalies as `row_means_into` and `subtract_row_vector`
            // form them.
            let background = xb.row(a);
            let mean = background.iter().sum::<f64>() * inv;
            self.anomalies.extend(background.iter().map(|&v| v - mean));
            let ua = &self.anomalies[ra * nens..];
            let slots = &mut self.table[ra * stride..(ra + 1) * stride];
            let (x, y) = (a % width, a / width);
            for dy in 0..=radius.eta.min(height - 1 - y) {
                // On its own row a point only ever pairs with later ones.
                let x_lo = if dy == 0 { x } else { x.saturating_sub(centre) };
                let x_hi = (x + centre).min(width - 1);
                for bx in x_lo..=x_hi {
                    let rb = self.rows[(y + dy) * width + bx];
                    if rb != Self::UNREACHED {
                        let ub = &self.anomalies[rb * nens..(rb + 1) * nens];
                        slots[dy * band + centre + bx - x] = dot(ua, ub);
                    }
                }
            }
        }
    }

    /// Whether an observation lies in the box of expansion-local point `a`.
    fn observed(&self, a: usize) -> bool {
        self.observed[a]
    }

    /// Table and anomaly row of expansion-local point `a`, which an
    /// analysed box holds.
    fn row_of(&self, a: usize) -> usize {
        debug_assert_ne!(self.rows[a], Self::UNREACHED, "no analysed box holds {a}");
        self.rows[a]
    }

    /// Position of mesh point `q` in the table's offset arithmetic: the
    /// difference of two keys is `dy · band + dx`.
    fn key(&self, expansion: &RegionRect, q: GridPoint) -> usize {
        (q.iy - expansion.y0) * self.band + (q.ix - expansion.x0)
    }

    /// Anomalies of table row `r`.
    fn anomalies(&self, r: usize) -> &[f64] {
        &self.anomalies[r * self.nens..(r + 1) * self.nens]
    }

    /// Table row `r`'s slots.
    fn slots(&self, r: usize) -> &[f64] {
        &self.table[r * self.stride..(r + 1) * self.stride]
    }

    /// `u_a · u_b` for table row `r` of a point with key `key_a` and a
    /// point with key `key_b` that is not before it in row-major order and
    /// lies inside the band.
    #[inline]
    fn entry(&self, r: usize, key_a: usize, key_b: usize) -> f64 {
        self.table[r * self.stride + self.centre + key_b - key_a]
    }
}

/// Scratch buffers for the point-wise local analysis.
///
/// One instance per [`LocalAnalysis::analyze`] call (or per caller of
/// [`LocalAnalysis::analyze_points_into`]), reused across every grid point
/// it analyzes; once the buffers have grown to the largest box, the point
/// kernels perform no heap allocation (`tests/alloc_free.rs`).
#[derive(Debug, Clone, Default)]
pub struct LocalAnalysisWorkspace {
    /// Localized points; `free` lists the slots no queue holds.
    slots: Vec<PointBox>,
    free: Vec<usize>,
    /// Queued slots per box shape.
    queues: Vec<(BoxShape, Vec<usize>)>,
    obs_scratch: Vec<usize>,
    one: LaneWorkspace<1>,
    four: LaneWorkspace<{ LocalAnalysis::LANES }>,
}

impl LocalAnalysisWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Localize `p`'s box, whose analysis goes to output row `row`, into a
    /// slot: the slot, or `None` (the row keeps its background) when the
    /// box holds no observation. An unobserved point costs one mask lookup.
    fn localize(
        &mut self,
        la: &LocalAnalysis,
        io: &PointInputs<'_>,
        p: GridPoint,
        row: usize,
    ) -> Option<usize> {
        if !io.gram.observed(io.expansion.local_index(p)) {
            return None;
        }
        let id = self.free.pop().unwrap_or(self.slots.len());
        if id == self.slots.len() {
            self.slots.push(PointBox::default());
        }
        let slot = &mut self.slots[id];
        slot.boxr = RegionRect::new(p.ix, p.ix + 1, p.iy, p.iy + 1).expand(la.radius, io.mesh);
        debug_assert!(io.expansion.contains_rect(&slot.boxr));
        (slot.t, slot.row) = (slot.boxr.local_index(p), row);
        let obs = &mut slot.obs;
        io.index
            .sub_localize_into(io.obs, &slot.boxr, &mut self.obs_scratch, obs);
        if obs.is_empty() {
            self.free.push(id);
            return None;
        }
        Some(id)
    }
}

/// Box width, height and target index: points of one shape share the
/// box-local predecessor structure, the box size and the target index.
type BoxShape = (usize, usize, usize);

/// One localized grid point: its mesh-clipped box, its index `t` in the
/// box, its output row and the observations in the box.
#[derive(Debug, Clone, Default)]
struct PointBox {
    boxr: RegionRect,
    t: usize,
    row: usize,
    obs: LocalObservations,
}

impl PointBox {
    fn shape(&self) -> BoxShape {
        (self.boxr.width(), self.boxr.height(), self.t)
    }
}

/// Scratch of one lane pass over `W` points of one box shape, lane `l`
/// holding the `l`-th point.
#[derive(Debug, Clone, Default)]
struct LaneWorkspace<const W: usize> {
    /// [`AnomalyGram`] row of every lane's box points, lane-major.
    rows: Vec<usize>,
    /// Box-relative [`AnomalyGram`] key of each box point.
    keys: Vec<usize>,
    /// Width > 1: the lanes' anomaly rows (box point-major, then member)
    /// and Gram table rows, interleaved per lane.
    u: Vec<[f64; W]>,
    g: Vec<[f64; W]>,
    mc: ModifiedCholesky<W>,
    mc_ws: ModCholWorkspace<W>,
    /// Packed lower `A = B̂⁻¹ + Hᵀ R⁻¹ H` of each lane's box, then its
    /// factor.
    a: Vec<[f64; W]>,
    col: Vec<[f64; W]>,
    w: Vec<[f64; W]>,
}

impl<const W: usize> LaneWorkspace<W> {
    /// The local analyses of the points `slots[ids[l]]`, all of one box
    /// shape, added into their rows of `out` (which hold their
    /// backgrounds). Every lane runs the width-1 operation sequence on its
    /// own data; `out` is written only once nothing can fail.
    fn analyze(
        &mut self,
        la: &LocalAnalysis,
        io: &PointInputs<'_>,
        slots: &[PointBox],
        ids: &[usize],
        out: &mut [f64],
    ) -> Result<()> {
        debug_assert_eq!(ids.len(), W);
        let (boxr, t) = (slots[ids[0]].boxr, slots[ids[0]].t);
        let (nbar, nens, gram) = (boxr.npoints(), io.xb.ncols(), io.gram);
        let points = ids.iter().flat_map(|&id| slots[id].boxr.iter_points());
        self.rows.clear();
        self.rows
            .extend(points.map(|q| gram.row_of(io.expansion.local_index(q))));
        self.keys.clear();
        self.keys
            .extend(boxr.iter_points().map(|q| gram.key(&boxr, q)));
        let rows = &self.rows;
        if W > 1 {
            self.u.clear();
            self.g.clear();
            for j in 0..nbar {
                let src: [_; W] = std::array::from_fn(|l| rows[l * nbar + j]);
                let (u, g) = (src.map(|r| gram.anomalies(r)), src.map(|r| gram.slots(r)));
                self.u.extend((0..nens).map(|s| u.map(|r| r[s])));
                self.g.extend((0..gram.stride).map(|k| g.map(|r| r[k])));
            }
        }
        let (keys, u, g) = (&self.keys, &self.u, &self.g);
        // At width 1 the lane is the shared anomaly row or table slot.
        let row = |j: usize| -> &[[f64; W]] {
            match W {
                1 => gram.anomalies(rows[j]).as_chunks().0,
                _ => &u[j * nens..(j + 1) * nens],
            }
        };
        let entry = |ja: usize, jb: usize| match W {
            1 => [gram.entry(rows[ja], keys[ja], keys[jb]); W],
            _ => g[ja * gram.stride + gram.centre + keys[jb] - keys[ja]],
        };
        // The adaptive ridge of the blocked Eq. 6 over the box: one running
        // sum over the box's anomalies in row-major order.
        let mut sum_sq = [0.0; W];
        for v in (0..nbar).flat_map(row) {
            sum_sq = sum_sq.add(v.mul(*v));
        }
        let denom = nens.saturating_sub(1).max(1) as f64;
        let mean_var = sum_sq.div([denom * nbar as f64; W]);
        let lambda = [la.ridge; W].mul(mean_var);
        let lambda = lambda.max([f64::MIN_POSITIVE; W]);
        let preds = |i, preds: &mut _| push_box_predecessors(&boxr, la.radius, i, preds);
        let (mc, a) = (&mut self.mc, &mut self.a);
        mc.estimate_into(&mut self.mc_ws, nbar, row, entry, preds, lambda)?;
        mc.inverse_covariance_into(&mut self.mc_ws, a);
        for (l, &id) in ids.iter().enumerate() {
            let obs = &slots[id].obs;
            for (&r, &var) in obs.local_rows.iter().zip(&obs.error_var) {
                a[tri(r) + r][l] += 1.0 / var;
            }
        }
        check_pivots(factor_lanes(a, nbar, &mut self.col))?;
        let w = &mut self.w;
        w.clear();
        w.resize(nbar, [0.0; W]);
        w[t] = [1.0; W];
        solve_lanes(a, nbar, w);
        // X^a[t,·] = X^b[t,·] + wᵀ Z with Z's rows formed on the fly.
        for (l, &id) in ids.iter().enumerate() {
            let b = &slots[id];
            let out_row = &mut out[b.row * nens..(b.row + 1) * nens];
            for (r, &brow) in b.obs.local_rows.iter().enumerate() {
                let c = w[brow][l] / b.obs.error_var[r];
                let background = io.xb.row(io.expansion.local_index(b.boxr.point_at(brow)));
                let perturbed = b.obs.perturbed.row(r);
                for ((o, &y), &x) in out_row.iter_mut().zip(perturbed).zip(background) {
                    *o += c * (y - x);
                }
            }
        }
        Ok(())
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
        let mut u = xb.clone();
        let means = u.row_means();
        u.subtract_row_vector(&means);
        // XᵀX of the design matrix whose columns are *all* the expansion's
        // anomaly rows: entry (a, b) is the inner product a regression
        // with both as predictors would have formed.
        let x = u.transpose();
        let xtx = x.tr_matmul(&x).unwrap();
        // Every point observed, then a sparse network — a mesh corner
        // outside the expansion, one at its bottom-left corner and one
        // point inside — whose table holds the rows its boxes reach only.
        let sparse = [(8, 0), (0, 6), (5, 3)].map(|(ix, iy)| GridPoint { ix, iy });
        let networks = [
            (ObservationNetwork::uniform(mesh, 1), 500),
            (ObservationNetwork::from_points(mesh, sparse.to_vec()), 40),
        ];
        let mut gram = AnomalyGram::default();
        for (network, at_least) in networks {
            let op = crate::ObservationOperator::new(network);
            let m = op.len();
            let observations = crate::Observations::new(
                op,
                vec![0.5; m],
                vec![0.1; m],
                crate::PerturbedObservations::new(3, 11),
            );
            let obs = observations.localize(&expansion);
            // The dense table's buffers are reused for the sparse one.
            gram.rebuild(&xb, &expansion, &obs, radius);
            let mut checked = 0;
            for p in expansion.iter_points() {
                let i = expansion.local_index(p);
                if !gram.observed(i) {
                    continue;
                }
                let boxr = RegionRect::new(p.ix, p.ix + 1, p.iy, p.iy + 1)
                    .expand(radius, mesh)
                    .intersect(&expansion);
                for q in boxr.iter_points() {
                    let a = expansion.local_index(q);
                    let row = gram.anomalies(gram.row_of(a));
                    assert_eq!(bits(row), bits(u.row(a)), "anomalies of {q:?}");
                }
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
                        let (key_a, key_b) = (gram.key(&expansion, *qa), gram.key(&expansion, *qb));
                        let got = gram.entry(gram.row_of(a), key_a, key_b);
                        assert_eq!(got.to_bits(), xtx[(a, b)].to_bits(), "pair {qa:?} {qb:?}");
                        assert_eq!(got.to_bits(), xtx[(b, a)].to_bits());
                        checked += 1;
                    }
                }
            }
            assert!(checked > at_least, "{checked} pairs checked");
        }
        // The sparse network reaches less than the whole expansion.
        assert!(gram.anomalies.len() < expansion.npoints() * 11);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lane_pass_is_bit_identical_to_four_width_1_passes() {
        // Dense observations on the left half, one per 7×7 block on the
        // right, so some lane groups mix one-observation and
        // many-observation boxes.
        let mesh = Mesh::new(14, 11);
        let full = RegionRect::full(mesh);
        let points: Vec<GridPoint> = full
            .iter_points()
            .filter(|p| {
                (p.ix < 7 && (p.ix + p.iy) % 2 == 0)
                    || (p.ix >= 7 && p.ix % 7 == 6 && p.iy % 7 == 3)
            })
            .collect();
        let op = crate::ObservationOperator::new(ObservationNetwork::from_points(mesh, points));
        let m = op.len();
        let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.3).sin()).collect();
        let (mut mixed, mut groups) = (false, 0);
        for nens in [2usize, 3, 32] {
            let observations = crate::Observations::new(
                op.clone(),
                values.clone(),
                vec![0.1; m],
                crate::PerturbedObservations::new(7, nens),
            );
            let obs = observations.localize(&full);
            let xb = random_xb(full.npoints(), nens, 31 + nens as u64);
            for (xi, eta) in [(1, 1), (2, 3), (3, 2), (3, 3)] {
                if nens == 32 && xi != eta {
                    continue;
                }
                let la = LocalAnalysis::new(LocalizationRadius { xi, eta });
                let index = LocalObsIndex::build(&obs, &full, xi.max(eta));
                let gram = AnomalyGram::build(&xb, &full, &obs, la.radius);
                let io = PointInputs {
                    mesh,
                    expansion: &full,
                    xb: &xb,
                    obs: &obs,
                    index: &index,
                    gram: &gram,
                };
                let mut ws = LocalAnalysisWorkspace::new();
                let base = xb.as_slice().to_vec();
                let mut by_shape: Vec<(BoxShape, Vec<usize>)> = Vec::new();
                for row in 0..full.npoints() {
                    if let Some(id) = ws.localize(&la, &io, full.point_at(row), row) {
                        let shape = ws.slots[id].shape();
                        match by_shape.iter_mut().find(|(s, _)| *s == shape) {
                            Some((_, ids)) => ids.push(id),
                            None => by_shape.push((shape, vec![id])),
                        }
                    }
                }
                let (mut lanes, mut single) = (base.clone(), base);
                // Boxes clipped at the left, right, top and bottom edge.
                let mut edges = [false; 4];
                for quad in by_shape.iter().flat_map(|(_, ids)| ids.chunks_exact(4)) {
                    ws.four
                        .analyze(&la, &io, &ws.slots, quad, &mut lanes)
                        .unwrap();
                    for &id in quad {
                        ws.one
                            .analyze(&la, &io, &ws.slots, &[id], &mut single)
                            .unwrap();
                    }
                    let b = ws.slots[quad[0]].boxr;
                    let (narrow, short) = (b.width() < 2 * xi + 1, b.height() < 2 * eta + 1);
                    let clipped = [
                        narrow && b.x0 == 0,
                        narrow && b.x1 == mesh.nx(),
                        short && b.y0 == 0,
                        short && b.y1 == mesh.ny(),
                    ];
                    for (e, c) in edges.iter_mut().zip(clipped) {
                        *e |= c;
                    }
                    let counts = quad.iter().map(|&id| ws.slots[id].obs.len());
                    mixed |= counts.clone().any(|c| c == 1) && counts.clone().any(|c| c > 1);
                    groups += 1;
                }
                assert_eq!(edges, [true; 4], "N={nens} radius ({xi},{eta})");
                assert_eq!(bits(&lanes), bits(&single), "N={nens} radius ({xi},{eta})");
            }
        }
        assert!(mixed, "no lane group mixed one- and many-observation boxes");
        assert!(groups > 100);
    }

    #[test]
    fn non_finite_background_fails_like_the_first_failing_width_1_point() {
        let mesh = Mesh::new(16, 12);
        let radius = LocalizationRadius { xi: 2, eta: 2 };
        let la = LocalAnalysis::new(radius);
        let full = RegionRect::full(mesh);
        let nens = 8;
        let obs = make_obs(mesh, 2, &full, 13, nens);
        let index = LocalObsIndex::build(&obs, &full, 2);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for q in [GridPoint { ix: 7, iy: 5 }, GridPoint { ix: 0, iy: 11 }] {
                let mut xb = random_xb(full.npoints(), nens, 5);
                xb[(full.local_index(q), 3)] = bad;
                let gram = AnomalyGram::build(&xb, &full, &obs, radius);
                let io = PointInputs {
                    mesh,
                    expansion: &full,
                    xb: &xb,
                    obs: &obs,
                    index: &index,
                    gram: &gram,
                };
                let mut ws = LocalAnalysisWorkspace::new();
                let mut row = vec![0.0; nens];
                let want = full
                    .iter_points()
                    .map(|p| la.analyze_points_into(&io, &[p], &mut ws, &mut row))
                    .find_map(|r| r.err())
                    .expect("a non-finite member fails some point");
                let got = la.analyze(mesh, &full, &full, &xb, &obs).unwrap_err();
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{bad} at {q:?}");
            }
        }
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
        let la = LocalAnalysis::new(radius);
        let xa = la.analyze(mesh, &target, &expansion, &xb, &empty).unwrap();
        assert_eq!(xa, xb.select_rows(&expansion.local_indices_of(&target)));
    }

    #[test]
    fn an_empty_target_has_an_empty_analysis() {
        let mesh = Mesh::new(8, 6);
        let full = RegionRect::full(mesh);
        let xb = random_xb(full.npoints(), 4, 7);
        let obs = make_obs(mesh, 2, &full, 3, 4);
        let la = LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 });
        // Zero columns at the mesh's right edge, and zero rows.
        for target in [RegionRect::new(8, 8, 0, 4), RegionRect::new(2, 5, 3, 3)] {
            let xa = la.analyze(mesh, &target, &full, &xb, &obs).unwrap();
            assert_eq!(xa.shape(), (0, 4), "{target:?}");
        }
    }

    #[test]
    fn too_few_members_is_a_typed_error() {
        let mesh = Mesh::new(8, 6);
        let full = RegionRect::full(mesh);
        let la = LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 });
        for nens in [0, 1] {
            let xb = random_xb(full.npoints(), nens, 7);
            let obs = make_obs(mesh, 2, &full, 3, nens);
            let gram = AnomalyGram::build(&xb, &full, &obs, la.radius);
            assert!(gram.anomalies.is_empty() == (nens == 0), "N = {nens}");
            let err = la.analyze(mesh, &full, &full, &xb, &obs).unwrap_err();
            assert!(
                matches!(
                    err,
                    EnkfError::Linalg(enkf_linalg::LinalgError::DimMismatch { .. })
                ),
                "N = {nens}: {err:?}"
            );
            // No observation in reach: every row keeps its (empty) background.
            let xa = la.analyze(mesh, &full, &full, &xb, &LocalObservations::default());
            assert_eq!(xa.unwrap().shape(), (full.npoints(), nens), "N = {nens}");
            // The per-point entry fails the same way.
            let index = LocalObsIndex::build(&obs, &full, 1);
            let io = PointInputs {
                mesh,
                expansion: &full,
                xb: &xb,
                obs: &obs,
                index: &index,
                gram: &gram,
            };
            let p = GridPoint { ix: 2, iy: 2 };
            let mut ws = LocalAnalysisWorkspace::new();
            let mut row = vec![0.0; nens];
            let err = la.analyze_points_into(&io, &[p], &mut ws, &mut row);
            assert!(
                matches!(err, Err(EnkfError::Linalg(_))),
                "N = {nens}: {err:?}"
            );
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
