//! A 2-D advection–diffusion forward model.
//!
//! The paper's background ensembles come "from a long-time ocean model
//! integration"; this module provides the smallest dynamical core that
//! plays that role in cycled twin experiments: zonal advection (periodic in
//! longitude, like an ocean basin ring) plus diffusion, integrated with a
//! first-order upwind / explicit scheme under a CFL guard. It is *not* an
//! ocean model — it is the forecast operator that lets the assimilation
//! cycle (forecast → assimilate → forecast …) be exercised end to end.

use enkf_core::Ensemble;
use enkf_grid::{GridPoint, Mesh};
use enkf_linalg::{GaussianSampler, Matrix};
use rand::Rng;

/// Advection–diffusion dynamics on a mesh.
///
/// `∂q/∂t + u ∂q/∂x + v ∂q/∂y = κ ∇²q`, discretized with upwind advection
/// and centered diffusion; periodic in `x` (longitude), zero-gradient in
/// `y` (latitude walls).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvectionDiffusion {
    /// Zonal velocity in grid cells per unit time (may be negative).
    pub u: f64,
    /// Meridional velocity in grid cells per unit time.
    pub v: f64,
    /// Diffusivity in grid-cell² per unit time.
    pub kappa: f64,
    /// Time step.
    pub dt: f64,
}

impl AdvectionDiffusion {
    /// A stable default: eastward drift with weak diffusion.
    pub(crate) fn gentle_drift() -> Self {
        AdvectionDiffusion {
            u: 0.8,
            v: 0.1,
            kappa: 0.05,
            dt: 0.5,
        }
    }

    /// The CFL-style stability number; must stay below 1.
    pub fn stability_number(&self) -> f64 {
        (self.u.abs() + self.v.abs()) * self.dt + 4.0 * self.kappa * self.dt
    }

    /// Advance one field by one time step.
    pub(crate) fn step(&self, mesh: Mesh, field: &[f64]) -> Vec<f64> {
        assert_eq!(field.len(), mesh.n(), "field length mismatch");
        assert!(
            self.stability_number() < 1.0,
            "unstable configuration (CFL)"
        );
        let (nx, ny) = (mesh.nx(), mesh.ny());
        let idx = |ix: usize, iy: usize| mesh.index(GridPoint { ix, iy });
        let mut out = vec![0.0; field.len()];
        for iy in 0..ny {
            // Zero-gradient walls in latitude.
            let up = if iy + 1 < ny { iy + 1 } else { iy };
            let down = iy.saturating_sub(1);
            for ix in 0..nx {
                let left = (ix + nx - 1) % nx;
                let right = (ix + 1) % nx;
                let q = field[idx(ix, iy)];
                let qe = field[idx(right, iy)];
                let qw = field[idx(left, iy)];
                let qn = field[idx(ix, up)];
                let qs = field[idx(ix, down)];
                // Upwind advection.
                let adv_x = if self.u >= 0.0 {
                    self.u * (q - qw)
                } else {
                    self.u * (qe - q)
                };
                let adv_y = if self.v >= 0.0 {
                    self.v * (q - qs)
                } else {
                    self.v * (qn - q)
                };
                let lap = qe + qw + qn + qs - 4.0 * q;
                out[idx(ix, iy)] = q + self.dt * (-adv_x - adv_y + self.kappa * lap);
            }
        }
        out
    }

    /// Advance a field by `steps` time steps.
    pub fn integrate(&self, mesh: Mesh, field: &[f64], steps: usize) -> Vec<f64> {
        let mut q = field.to_vec();
        for _ in 0..steps {
            q = self.step(mesh, &q);
        }
        q
    }

    /// Advance every member of an ensemble by `steps`, adding independent
    /// model-error noise of standard deviation `model_error_std` per member
    /// afterwards (the stochastic forcing that keeps cycled ensembles from
    /// collapsing).
    pub(crate) fn forecast_ensemble<R: Rng + ?Sized>(
        &self,
        ensemble: &Ensemble,
        steps: usize,
        model_error_std: f64,
        rng: &mut R,
    ) -> Ensemble {
        let mesh = ensemble.mesh();
        let mut gs = GaussianSampler::new();
        let mut states = Matrix::zeros(mesh.n(), ensemble.size());
        for k in 0..ensemble.size() {
            let advanced = self.integrate(mesh, &ensemble.member(k), steps);
            for (i, &v) in advanced.iter().enumerate() {
                let noise = if model_error_std > 0.0 {
                    model_error_std * gs.sample(rng)
                } else {
                    0.0
                };
                states[(i, k)] = v + noise;
            }
        }
        Ensemble::new(mesh, states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mesh() -> Mesh {
        Mesh::new(16, 8)
    }

    #[test]
    fn constant_field_is_a_fixed_point() {
        let m = mesh();
        let dyn_ = AdvectionDiffusion::gentle_drift();
        let q = vec![3.5; m.n()];
        let next = dyn_.step(m, &q);
        for v in next {
            assert!((v - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn mass_is_conserved_by_advection() {
        // Pure advection (periodic x, v=0): the field sum is invariant.
        let m = mesh();
        let dyn_ = AdvectionDiffusion {
            u: 0.6,
            v: 0.0,
            kappa: 0.0,
            dt: 0.5,
        };
        let q: Vec<f64> = (0..m.n()).map(|i| (i as f64 * 0.7).sin()).collect();
        let before: f64 = q.iter().sum();
        let after: f64 = dyn_.integrate(m, &q, 10).iter().sum();
        assert!((before - after).abs() < 1e-9, "{before} vs {after}");
    }

    #[test]
    fn diffusion_damps_extremes() {
        let m = mesh();
        let dyn_ = AdvectionDiffusion {
            u: 0.0,
            v: 0.0,
            kappa: 0.2,
            dt: 0.5,
        };
        let mut q = vec![0.0; m.n()];
        q[m.index(GridPoint { ix: 8, iy: 4 })] = 10.0;
        let out = dyn_.integrate(m, &q, 20);
        let max = out.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max < 5.0, "peak should have diffused, max {max}");
        // Diffusion with Neumann walls conserves total mass too.
        assert!((out.iter().sum::<f64>() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn advection_moves_a_blob_eastward() {
        let m = Mesh::new(32, 4);
        let dyn_ = AdvectionDiffusion {
            u: 1.0,
            v: 0.0,
            kappa: 0.0,
            dt: 0.5,
        };
        let mut q = vec![0.0; m.n()];
        q[m.index(GridPoint { ix: 4, iy: 2 })] = 1.0;
        // 16 steps at u·dt = 0.5 cells/step → ~8 cells east.
        let out = dyn_.integrate(m, &q, 16);
        let centroid: f64 = {
            let total: f64 = out.iter().sum();
            m.iter_points()
                .map(|p| p.ix as f64 * out[m.index(p)])
                .sum::<f64>()
                / total
        };
        assert!(
            centroid > 6.0,
            "centroid {centroid} should have moved east of 4"
        );
    }

    #[test]
    #[should_panic(expected = "unstable configuration")]
    fn cfl_guard_trips() {
        let m = mesh();
        let dyn_ = AdvectionDiffusion {
            u: 3.0,
            v: 0.0,
            kappa: 0.0,
            dt: 1.0,
        };
        dyn_.step(m, &vec![0.0; m.n()]);
    }

    #[test]
    fn forecast_ensemble_without_noise_is_deterministic() {
        let m = mesh();
        let dyn_ = AdvectionDiffusion::gentle_drift();
        let scen = crate::ScenarioBuilder::new(m).members(4).seed(1).build();
        let mut rng = StdRng::seed_from_u64(0);
        let a = dyn_.forecast_ensemble(&scen.ensemble, 3, 0.0, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(99);
        let b = dyn_.forecast_ensemble(&scen.ensemble, 3, 0.0, &mut rng2);
        assert_eq!(a.states(), b.states());
        assert_ne!(a.states(), scen.ensemble.states(), "dynamics must act");
    }

    #[test]
    fn model_error_widens_the_ensemble() {
        let m = mesh();
        let dyn_ = AdvectionDiffusion::gentle_drift();
        let scen = crate::ScenarioBuilder::new(m).members(8).seed(2).build();
        let mut rng = StdRng::seed_from_u64(5);
        let quiet = dyn_.forecast_ensemble(&scen.ensemble, 2, 0.0, &mut rng);
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = dyn_.forecast_ensemble(&scen.ensemble, 2, 0.5, &mut rng);
        let spread = |e: &Ensemble| e.anomalies().frobenius_norm();
        assert!(spread(&noisy) > spread(&quiet));
    }
}
