//! Multiplicative covariance inflation.
//!
//! Operational EnKFs inflate the background ensemble spread to counteract
//! the systematic variance under-estimation of small ensembles (a standard
//! companion to the localization this reproduction centers on): each
//! member's anomaly is scaled by `ρ ≥ 1` about the ensemble mean, which
//! multiplies the sample covariance by `ρ²` without moving the mean.

use crate::Ensemble;

/// Scale every member's deviation from the ensemble mean by `rho`.
pub fn inflate_ensemble(ensemble: &mut Ensemble, rho: f64) {
    assert!(
        rho > 0.0 && rho.is_finite(),
        "inflation factor must be positive"
    );
    if rho == 1.0 {
        return;
    }
    let mesh = ensemble.mesh();
    let mean = ensemble.mean();
    let nens = ensemble.size();
    let mut states = ensemble.states().clone();
    for i in 0..states.nrows() {
        let mi = mean[i];
        for k in 0..nens {
            states[(i, k)] = mi + rho * (states[(i, k)] - mi);
        }
    }
    *ensemble = Ensemble::new(mesh, states);
}

/// A copy of the ensemble with inflated anomalies.
pub fn inflated(ensemble: &Ensemble, rho: f64) -> Ensemble {
    let mut out = ensemble.clone();
    inflate_ensemble(&mut out, rho);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_grid::Mesh;
    use enkf_linalg::{GaussianSampler, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The mean ensemble variance (averaged over components) — the spread
    /// statistic inflation tuning monitors.
    fn mean_variance(ensemble: &Ensemble) -> f64 {
        let u: Matrix = ensemble.anomalies();
        let denom = ((ensemble.size() - 1) * ensemble.dim()) as f64;
        u.as_slice().iter().map(|&v| v * v).sum::<f64>() / denom
    }

    fn ensemble(seed: u64) -> Ensemble {
        let mesh = Mesh::new(6, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        Ensemble::new(
            mesh,
            Matrix::from_fn(mesh.n(), 10, |_, _| gs.sample(&mut rng)),
        )
    }

    #[test]
    fn mean_is_invariant() {
        let e = ensemble(1);
        let before = e.mean();
        let after = inflated(&e, 1.7).mean();
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn variance_scales_quadratically() {
        let e = ensemble(2);
        let v0 = mean_variance(&e);
        let v = mean_variance(&inflated(&e, 2.0));
        assert!((v / v0 - 4.0).abs() < 1e-9, "ratio {}", v / v0);
    }

    #[test]
    fn unit_factor_is_identity() {
        let e = ensemble(3);
        assert_eq!(inflated(&e, 1.0).states(), e.states());
    }

    #[test]
    #[should_panic(expected = "inflation factor must be positive")]
    fn rejects_non_positive() {
        let mut e = ensemble(4);
        inflate_ensemble(&mut e, 0.0);
    }

    #[test]
    fn deflation_shrinks_spread() {
        let e = ensemble(5);
        assert!(mean_variance(&inflated(&e, 0.5)) < mean_variance(&e));
    }
}
