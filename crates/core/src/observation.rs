//! Observation operators, data-error statistics and perturbed observations.

use enkf_grid::{Mesh, ObsIndex, ObservationNetwork, RegionRect};
use enkf_linalg::{GaussianSampler, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// The linear observational operator `H ∈ R^{m×n}` as a point-selection
/// operator over an observation network: row `k` of `H` picks the model
/// component at the network's `k`-th point.
///
/// The paper notes `H` is "constructed from some limited observational
/// data"; a selection operator is its canonical instance and keeps `H`
/// implicit (never materialized globally).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationOperator {
    network: ObservationNetwork,
}

impl ObservationOperator {
    /// Wrap an observation network.
    pub fn new(network: ObservationNetwork) -> Self {
        ObservationOperator { network }
    }

    /// The underlying network.
    pub fn network(&self) -> &ObservationNetwork {
        &self.network
    }

    /// The mesh observed.
    pub fn mesh(&self) -> Mesh {
        self.network.mesh()
    }

    /// Number of observed components `m`.
    pub fn len(&self) -> usize {
        self.network.len()
    }

    /// True when nothing is observed.
    pub fn is_empty(&self) -> bool {
        self.network.is_empty()
    }

    /// Apply `H` to a full state vector: the observed values.
    pub fn apply(&self, state: &[f64]) -> Vec<f64> {
        assert_eq!(state.len(), self.mesh().n(), "state length mismatch");
        self.network
            .points()
            .iter()
            .map(|&p| state[self.mesh().index(p)])
            .collect()
    }

    /// Apply `H` to an `n × N` ensemble matrix: the `m × N` matrix `H Xᵇ`.
    pub fn apply_ensemble(&self, states: &Matrix) -> Matrix {
        assert_eq!(states.nrows(), self.mesh().n(), "ensemble rows mismatch");
        let rows: Vec<usize> = self
            .network
            .points()
            .iter()
            .map(|&p| self.mesh().index(p))
            .collect();
        states.select_rows(&rows)
    }

    /// Materialize the dense `m × n` selection matrix (small tests only).
    pub fn to_dense(&self) -> Matrix {
        let mut h = Matrix::zeros(self.len(), self.mesh().n());
        for (k, &p) in self.network.points().iter().enumerate() {
            h[(k, self.mesh().index(p))] = 1.0;
        }
        h
    }
}

/// Perturbed observations `Yˢ ∈ R^{m×N}` with `Yˢ_{k·} ~ N(y_k, R_kk)`.
///
/// Row `k`'s perturbations are drawn from an RNG seeded by `(seed, k)`, so a
/// rank holding any subset of observation rows regenerates exactly the same
/// values the serial reference uses — the keystone of the cross-variant
/// equivalence tests.
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbedObservations {
    seed: u64,
    members: usize,
}

impl PerturbedObservations {
    /// Create the perturbation schema for `members` ensemble members.
    pub fn new(seed: u64, members: usize) -> Self {
        PerturbedObservations { seed, members }
    }

    /// Ensemble size `N`.
    pub fn members(&self) -> usize {
        self.members
    }

    /// The base seed of the per-row streams.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The perturbed row for global observation index `k`:
    /// `y_k + std_k · z` with `z` from the row's deterministic stream.
    pub fn row(&self, k: usize, value: f64, std: f64) -> Vec<f64> {
        // SplitMix-style mixing keeps distinct rows decorrelated even for
        // adjacent k.
        let mixed = (self.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        let mut rng = StdRng::seed_from_u64(mixed);
        let mut gs = GaussianSampler::new();
        (0..self.members)
            .map(|_| value + std * gs.sample(&mut rng))
            .collect()
    }
}

/// Per-cycle derived data: the bucket-grid spatial index over the network
/// and the fully materialized perturbed-observation matrix. Built lazily on
/// first localization (or eagerly via [`Observations::prepare`]) and shared
/// by every rank thread of a cycle, so per-observation perturbed rows are
/// generated exactly once instead of once per localization.
#[derive(Debug, Clone)]
struct ObsCache {
    index: ObsIndex,
    perturbed: Matrix,
}

/// A complete observation set: operator, observed values `y`, diagonal
/// data-error covariance `R` (per-row variances), and the perturbation
/// schema.
#[derive(Debug, Clone)]
pub struct Observations {
    operator: ObservationOperator,
    values: Vec<f64>,
    error_var: Vec<f64>,
    perturbed: PerturbedObservations,
    cache: OnceLock<ObsCache>,
}

/// Equality ignores the derived cache: two observation sets are equal when
/// the data defining them is.
impl PartialEq for Observations {
    fn eq(&self, other: &Self) -> bool {
        self.operator == other.operator
            && self.values == other.values
            && self.error_var == other.error_var
            && self.perturbed == other.perturbed
    }
}

impl Observations {
    /// Assemble an observation set. `values` and `error_var` are indexed by
    /// network order; variances must be positive.
    pub fn new(
        operator: ObservationOperator,
        values: Vec<f64>,
        error_var: Vec<f64>,
        perturbed: PerturbedObservations,
    ) -> Self {
        assert_eq!(values.len(), operator.len(), "value count mismatch");
        assert_eq!(error_var.len(), operator.len(), "variance count mismatch");
        assert!(
            error_var.iter().all(|&v| v > 0.0),
            "R must be positive definite"
        );
        Observations {
            operator,
            values,
            error_var,
            perturbed,
            cache: OnceLock::new(),
        }
    }

    /// Build (or fetch) the per-cycle cache: the spatial index and the
    /// cached perturbed rows.
    fn cache(&self) -> &ObsCache {
        self.cache.get_or_init(|| {
            // Bucket edge ≈ the mean observation spacing, so a localization
            // box query touches O(1) buckets holding O(obs in box) entries.
            let mesh = self.operator.mesh();
            let m = self.len().max(1);
            let spacing = (mesh.n() as f64 / m as f64).sqrt().ceil() as usize;
            let points = self.operator.network().points().to_vec();
            ObsCache {
                index: ObsIndex::build(points, &RegionRect::full(mesh), spacing.clamp(2, 64)),
                perturbed: self.perturbed_matrix(),
            }
        })
    }

    /// Eagerly build the per-cycle spatial index and perturbed-row cache.
    ///
    /// Executors call this once before fanning out rank threads so the
    /// one-time construction cost does not land inside a traced compute
    /// span; any thread may still trigger it lazily through
    /// [`Observations::localize`].
    pub fn prepare(&self) {
        let _ = self.cache();
    }

    /// The observation operator.
    pub fn operator(&self) -> &ObservationOperator {
        &self.operator
    }

    /// Observed values `y`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Diagonal of `R`.
    pub fn error_var(&self) -> &[f64] {
        &self.error_var
    }

    /// The perturbation schema.
    pub fn perturbed(&self) -> &PerturbedObservations {
        &self.perturbed
    }

    /// Number of observed components `m`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Materialize the full `m × N` perturbed observation matrix `Yˢ`.
    pub fn perturbed_matrix(&self) -> Matrix {
        let mut y = Matrix::zeros(self.len(), self.perturbed.members());
        for k in 0..self.len() {
            let row = self
                .perturbed
                .row(k, self.values[k], self.error_var[k].sqrt());
            y.row_mut(k).copy_from_slice(&row);
        }
        y
    }

    /// The same observation set for a smaller ensemble of `members`
    /// members.
    ///
    /// Because each row's perturbations are drawn sequentially from that
    /// row's own stream, the reduced set's perturbed matrix equals the
    /// first `members` columns of the original — so a from-scratch
    /// `members`-member run sees exactly the observations a degraded run
    /// keeps after dropping the trailing members.
    pub fn with_members(&self, members: usize) -> Observations {
        Observations::new(
            self.operator.clone(),
            self.values.clone(),
            self.error_var.clone(),
            PerturbedObservations::new(self.perturbed.seed(), members),
        )
    }

    /// Restrict to the observations inside a region, producing the local
    /// pieces of Eq. 6: `H_{[i,j]}` (as expansion-local row indices),
    /// `Yˢ_{[i,j]}` and `R_{[i,j]}`.
    ///
    /// Served from the bucket-grid index and the cached perturbed rows, so
    /// the cost is O(obs in region) after the first call of a cycle. The
    /// result is byte-identical to [`Observations::localize_linear`].
    pub fn localize(&self, region: &RegionRect) -> crate::local::LocalObservations {
        self.localize_rows(region).1
    }

    /// [`Observations::localize`], with the global index (row of `H`) of
    /// each local row: one indexed query serves both.
    pub fn localize_rows(
        &self,
        region: &RegionRect,
    ) -> (Vec<usize>, crate::local::LocalObservations) {
        let cache = self.cache();
        let mut idx = Vec::new();
        cache.index.query_into(region, &mut idx);
        let points = self.operator.network().points();
        let mut local_rows = Vec::with_capacity(idx.len());
        let mut values = Vec::with_capacity(idx.len());
        let mut error_var = Vec::with_capacity(idx.len());
        for &k in &idx {
            local_rows.push(region.local_index(points[k]));
            values.push(self.values[k]);
            error_var.push(self.error_var[k]);
        }
        let mut perturbed = Matrix::zeros(idx.len(), self.perturbed.members());
        for (r, &k) in idx.iter().enumerate() {
            perturbed.row_mut(r).copy_from_slice(cache.perturbed.row(k));
        }
        let local = crate::local::LocalObservations {
            local_rows,
            values,
            error_var,
            perturbed,
        };
        (idx, local)
    }

    /// Reference implementation of [`Observations::localize`]: a linear
    /// scan of the whole network with per-row perturbation regeneration.
    /// Kept as the oracle for the index/cache equivalence property tests.
    pub fn localize_linear(&self, region: &RegionRect) -> crate::local::LocalObservations {
        let mut local_rows = Vec::new();
        let mut values = Vec::new();
        let mut error_var = Vec::new();
        let mut global_indices = Vec::new();
        for (k, &p) in self.operator.network().points().iter().enumerate() {
            if region.contains(p) {
                local_rows.push(region.local_index(p));
                values.push(self.values[k]);
                error_var.push(self.error_var[k]);
                global_indices.push(k);
            }
        }
        let mut perturbed = Matrix::zeros(values.len(), self.perturbed.members());
        for (r, &k) in global_indices.iter().enumerate() {
            let row = self
                .perturbed
                .row(k, self.values[k], self.error_var[k].sqrt());
            perturbed.row_mut(r).copy_from_slice(&row);
        }
        crate::local::LocalObservations {
            local_rows,
            values,
            error_var,
            perturbed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_grid::GridPoint;

    fn obs_set() -> Observations {
        let mesh = Mesh::new(6, 4);
        let net = ObservationNetwork::uniform(mesh, 2);
        let op = ObservationOperator::new(net);
        let m = op.len();
        let values: Vec<f64> = (0..m).map(|k| k as f64).collect();
        let error_var = vec![0.25; m];
        let perturbed = PerturbedObservations::new(42, 5);
        Observations::new(op, values, error_var, perturbed)
    }

    #[test]
    fn apply_selects_observed_points() {
        let mesh = Mesh::new(6, 4);
        let net = ObservationNetwork::uniform(mesh, 3);
        let op = ObservationOperator::new(net);
        let state: Vec<f64> = (0..mesh.n()).map(|i| i as f64).collect();
        let obs = op.apply(&state);
        for (k, &p) in op.network().points().iter().enumerate() {
            assert_eq!(obs[k], mesh.index(p) as f64);
        }
    }

    #[test]
    fn apply_ensemble_matches_dense_h() {
        let mesh = Mesh::new(5, 3);
        let net = ObservationNetwork::uniform(mesh, 2);
        let op = ObservationOperator::new(net);
        let states = Matrix::from_fn(mesh.n(), 3, |i, j| (i * 3 + j) as f64);
        let fast = op.apply_ensemble(&states);
        let dense = op.to_dense().matmul(&states).unwrap();
        assert!(fast.approx_eq(&dense, 1e-12));
    }

    #[test]
    fn perturbed_rows_are_deterministic_and_distinct() {
        let p = PerturbedObservations::new(7, 8);
        let a = p.row(3, 1.0, 0.5);
        let b = p.row(3, 1.0, 0.5);
        let c = p.row(4, 1.0, 0.5);
        assert_eq!(a, b, "same row twice must be identical");
        assert_ne!(a, c, "different rows must differ");
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn perturbed_matrix_rows_match_row_fn() {
        let obs = obs_set();
        let y = obs.perturbed_matrix();
        for k in 0..obs.len() {
            let row = obs
                .perturbed()
                .row(k, obs.values()[k], obs.error_var()[k].sqrt());
            assert_eq!(y.row(k), &row[..]);
        }
    }

    #[test]
    fn reduced_member_set_is_a_column_prefix() {
        let obs = obs_set();
        let reduced = obs.with_members(3);
        assert_eq!(reduced.perturbed().members(), 3);
        assert_eq!(reduced.perturbed().seed(), obs.perturbed().seed());
        let full = obs.perturbed_matrix();
        let small = reduced.perturbed_matrix();
        for k in 0..obs.len() {
            assert_eq!(&full.row(k)[..3], small.row(k));
        }
        // Column selection of the localized set agrees with localizing the
        // reduced set directly.
        let region = RegionRect::new(0, 6, 0, 4);
        let selected = obs.localize(&region).select_members(&[0, 1, 2]);
        assert_eq!(selected, reduced.localize(&region));
    }

    #[test]
    fn select_members_picks_arbitrary_columns() {
        let obs = obs_set();
        let region = RegionRect::new(0, 6, 0, 4);
        let local = obs.localize(&region);
        let picked = local.select_members(&[0, 2, 4]);
        assert_eq!(picked.perturbed.ncols(), 3);
        assert_eq!(picked.values, local.values);
        for r in 0..local.len() {
            for (c, &k) in [0usize, 2, 4].iter().enumerate() {
                assert_eq!(picked.perturbed[(r, c)], local.perturbed[(r, k)]);
            }
        }
    }

    #[test]
    fn localize_matches_global_subset() {
        let obs = obs_set();
        let region = RegionRect::new(1, 5, 1, 4);
        let local = obs.localize(&region);
        let y = obs.perturbed_matrix();
        // Cross-check every localized row against its global counterpart.
        let mut r = 0;
        for (k, &p) in obs.operator().network().points().iter().enumerate() {
            if region.contains(p) {
                assert_eq!(local.local_rows[r], region.local_index(p));
                assert_eq!(local.values[r], obs.values()[k]);
                assert_eq!(local.perturbed.row(r), y.row(k));
                r += 1;
            }
        }
        assert_eq!(r, local.len());
    }

    #[test]
    fn localize_empty_region() {
        let obs = obs_set();
        let region = RegionRect::new(1, 2, 1, 2); // contains no stride-2 point
        let local = obs.localize(&region);
        assert!(local.is_empty());
    }

    #[test]
    fn indexed_localize_is_byte_identical_to_linear() {
        let obs = obs_set();
        let mesh = obs.operator().mesh();
        obs.prepare();
        for region in [
            RegionRect::new(1, 5, 1, 4),
            RegionRect::new(0, 6, 0, 4),
            RegionRect::new(2, 2, 0, 4),
            RegionRect::new(5, 6, 3, 4),
            RegionRect::full(mesh),
        ] {
            assert_eq!(
                obs.localize(&region),
                obs.localize_linear(&region),
                "region {region:?}"
            );
        }
    }

    #[test]
    fn equality_ignores_cache_state() {
        let a = obs_set();
        let b = obs_set();
        a.prepare();
        assert_eq!(a, b);
        let c = a.clone();
        assert_eq!(a, c);
    }

    #[test]
    #[should_panic(expected = "R must be positive definite")]
    fn zero_variance_rejected() {
        let mesh = Mesh::new(4, 4);
        let net = ObservationNetwork::from_points(mesh, vec![GridPoint { ix: 0, iy: 0 }]);
        Observations::new(
            ObservationOperator::new(net),
            vec![1.0],
            vec![0.0],
            PerturbedObservations::new(0, 2),
        );
    }
}
