//! The background ensemble `Xᵇ` and its statistics.

use crate::Result;
use enkf_grid::{Mesh, RegionRect};
use enkf_linalg::Matrix;

/// An ensemble of model states on a mesh: an `n × N` matrix whose column
/// `k` is member `X^{b[k]}` (Eq. 2), with `n = nx · ny` in mesh
/// (row-priority) ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct Ensemble {
    mesh: Mesh,
    states: Matrix,
}

impl Ensemble {
    /// Wrap an `n × N` state matrix. `states.nrows()` must equal `mesh.n()`.
    pub fn new(mesh: Mesh, states: Matrix) -> Self {
        assert_eq!(states.nrows(), mesh.n(), "state rows must match mesh size");
        assert!(states.ncols() >= 2, "an ensemble needs at least 2 members");
        Ensemble { mesh, states }
    }

    /// The mesh the states live on.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Ensemble size `N`.
    pub fn size(&self) -> usize {
        self.states.ncols()
    }

    /// Number of model components `n`.
    pub fn dim(&self) -> usize {
        self.states.nrows()
    }

    /// The `n × N` state matrix.
    pub fn states(&self) -> &Matrix {
        &self.states
    }

    /// Member `k` as a state vector.
    pub fn member(&self, k: usize) -> Vec<f64> {
        self.states.col(k)
    }

    /// Copy member `k` into a caller-owned buffer (allocation-free once
    /// the buffer has capacity).
    pub fn member_into(&self, k: usize, out: &mut Vec<f64>) {
        self.states.col_into(k, out);
    }

    /// The ensemble mean `x̄ᵇ` (Eq. 4).
    pub(crate) fn mean(&self) -> Vec<f64> {
        self.states.row_means()
    }

    /// The anomaly matrix `U = Xᵇ − x̄ᵇ ⊗ 1ᵀ` (Eq. 4).
    pub fn anomalies(&self) -> Matrix {
        let mut u = self.states.clone();
        let means = u.row_means();
        u.subtract_row_vector(&means);
        u
    }

    /// The sample covariance `B = U Uᵀ / (N−1)` (Eq. 4) — dense; only for
    /// small test problems.
    pub fn covariance(&self) -> Result<Matrix> {
        let u = self.anomalies();
        Ok(u.matmul_tr(&u)?.scale(1.0 / (self.size() - 1) as f64))
    }

    /// Restrict the ensemble to a region: the `n̄ × N` matrix `X̄ᵇ` of Eq. 6,
    /// rows in the region's local row-priority order.
    pub fn restrict(&self, region: &RegionRect) -> Matrix {
        let rows: Vec<usize> = region.iter_points().map(|p| self.mesh.index(p)).collect();
        self.states.select_rows(&rows)
    }

    /// Overwrite the states on `region` from a `region.npoints() × N` local
    /// matrix (scatter of a local analysis result).
    pub fn assign(&mut self, region: &RegionRect, local: &Matrix) {
        assert_eq!(
            local.nrows(),
            region.npoints(),
            "local rows must match region"
        );
        assert_eq!(
            local.ncols(),
            self.size(),
            "local cols must match ensemble size"
        );
        for (li, p) in region.iter_points().enumerate() {
            let gi = self.mesh.index(p);
            for k in 0..self.size() {
                self.states[(gi, k)] = local[(li, k)];
            }
        }
    }

    /// Root-mean-square error of the ensemble mean against a reference
    /// state.
    pub fn rmse_against(&self, reference: &[f64]) -> f64 {
        assert_eq!(reference.len(), self.dim(), "reference length mismatch");
        let mean = self.mean();
        let ss: f64 = mean
            .iter()
            .zip(reference)
            .map(|(m, r)| (m - r) * (m - r))
            .sum();
        (ss / self.dim() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_grid::GridPoint;

    /// Build from per-member state vectors (each of length `n`).
    fn from_members(mesh: Mesh, members: &[Vec<f64>]) -> Ensemble {
        let mut m = Matrix::zeros(mesh.n(), members.len());
        for (k, member) in members.iter().enumerate() {
            m.set_col(k, member);
        }
        Ensemble::new(mesh, m)
    }

    fn tiny() -> Ensemble {
        let mesh = Mesh::new(3, 2);
        // Members: constant 1.0 and constant 3.0.
        from_members(mesh, &[vec![1.0; 6], vec![3.0; 6]])
    }

    #[test]
    fn mean_and_anomalies() {
        let e = tiny();
        assert_eq!(e.mean(), vec![2.0; 6]);
        let u = e.anomalies();
        for i in 0..6 {
            assert_eq!(u[(i, 0)], -1.0);
            assert_eq!(u[(i, 1)], 1.0);
        }
    }

    #[test]
    fn covariance_of_constant_members() {
        let e = tiny();
        let b = e.covariance().unwrap();
        // U row = [-1, 1]; B = U Uᵀ / 1 = all-2 matrix.
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(b[(i, j)], 2.0);
            }
        }
    }

    #[test]
    fn restrict_follows_region_order() {
        let mesh = Mesh::new(3, 2);
        let member: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let e = from_members(mesh, &[member.clone(), member]);
        let region = RegionRect::new(1, 3, 0, 2);
        let local = e.restrict(&region);
        assert_eq!(local.col(0), vec![1.0, 2.0, 4.0, 5.0]);
    }

    #[test]
    fn assign_roundtrips_restrict() {
        let mut e = tiny();
        let region = RegionRect::new(0, 2, 1, 2);
        let mut local = e.restrict(&region);
        local.as_mut_slice().iter_mut().for_each(|v| *v += 10.0);
        e.assign(&region, &local);
        let p_in = e.mesh().index(GridPoint { ix: 0, iy: 1 });
        let p_out = e.mesh().index(GridPoint { ix: 0, iy: 0 });
        assert_eq!(e.states()[(p_in, 0)], 11.0);
        assert_eq!(e.states()[(p_out, 0)], 1.0);
    }

    #[test]
    fn rmse_against_reference() {
        let e = tiny();
        // Mean is 2.0 everywhere; reference 0 → rmse 2.
        assert!((e.rmse_against(&[0.0; 6]) - 2.0).abs() < 1e-12);
        assert_eq!(e.rmse_against(&[2.0; 6]), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 members")]
    fn single_member_rejected() {
        Ensemble::new(Mesh::new(2, 2), Matrix::zeros(4, 1));
    }
}
