//! Twin-experiment scenarios: truth, background ensemble, observations.

use crate::field::SmoothFieldGenerator;
use enkf_core::{Ensemble, ObservationOperator, Observations, PerturbedObservations};
use enkf_grid::{Mesh, ObservationNetwork};
use enkf_linalg::{GaussianSampler, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A complete synthetic assimilation problem (twin experiment): a known
/// truth, a biased background ensemble whose error is spatially correlated,
/// and noisy observations of the truth.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The mesh everything lives on.
    pub mesh: Mesh,
    /// The true state the experiment tries to recover.
    pub truth: Vec<f64>,
    /// The background ensemble `Xᵇ`.
    pub ensemble: Ensemble,
    /// Observations of the truth with diagonal error covariance.
    pub observations: Observations,
}

impl Scenario {
    /// RMSE of the background ensemble mean against the truth.
    pub fn rmse_background(&self) -> f64 {
        self.ensemble.rmse_against(&self.truth)
    }

    /// RMSE of an analysis ensemble mean against the truth.
    pub fn rmse_of(&self, analysis: &Ensemble) -> f64 {
        analysis.rmse_against(&self.truth)
    }
}

/// Builder for [`Scenario`]s.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    mesh: Mesh,
    members: usize,
    observation_stride: usize,
    obs_noise_std: f64,
    background_bias: f64,
    seed: u64,
    field: SmoothFieldGenerator,
}

impl ScenarioBuilder {
    /// Start a builder with sensible defaults: 20 members, stride-3
    /// observations with 0.2 error std, background bias 0.4.
    pub fn new(mesh: Mesh) -> Self {
        ScenarioBuilder {
            mesh,
            members: 20,
            observation_stride: 3,
            obs_noise_std: 0.2,
            background_bias: 0.4,
            seed: 0,
            field: SmoothFieldGenerator::default(),
        }
    }

    /// Ensemble size `N` (at least 2).
    pub fn members(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least 2 members");
        self.members = n;
        self
    }

    /// Observe every `stride`-th point in each direction.
    pub fn observation_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0);
        self.observation_stride = stride;
        self
    }

    /// Observation error standard deviation.
    pub fn obs_noise_std(mut self, std: f64) -> Self {
        assert!(std > 0.0);
        self.obs_noise_std = std;
        self
    }

    /// Master seed; every derived random draw is deterministic in it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the field generator (correlation structure / nugget).
    pub fn field_generator(mut self, field: SmoothFieldGenerator) -> Self {
        self.field = field;
        self
    }

    /// Generate the scenario.
    pub fn build(self) -> Scenario {
        let mesh = self.mesh;
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let mut gs = GaussianSampler::new();

        let truth = self.field.generate(mesh, &mut rng);
        let members: Vec<Vec<f64>> = (0..self.members)
            .map(|_| {
                let err = self.field.generate(mesh, &mut rng);
                truth
                    .iter()
                    .zip(&err)
                    .map(|(&t, &e)| t + self.background_bias + e)
                    .collect()
            })
            .collect();
        let states = Matrix::from_fn(mesh.n(), self.members, |i, k| members[k][i]);
        let ensemble = Ensemble::new(mesh, states);

        let net = ObservationNetwork::uniform(mesh, self.observation_stride);
        let op = ObservationOperator::new(net);
        let values: Vec<f64> = op
            .apply(&truth)
            .into_iter()
            .map(|v| v + self.obs_noise_std * gs.sample(&mut rng))
            .collect();
        let m = op.len();
        let observations = Observations::new(
            op,
            values,
            vec![self.obs_noise_std * self.obs_noise_std; m],
            PerturbedObservations::new(self.seed ^ 0xABCD_EF01, self.members),
        );
        Scenario {
            mesh,
            truth,
            ensemble,
            observations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_core::serial_enkf;
    use enkf_grid::LocalizationRadius;

    #[test]
    fn builder_produces_consistent_geometry() {
        let mesh = Mesh::new(18, 12);
        let s = ScenarioBuilder::new(mesh)
            .members(12)
            .observation_stride(3)
            .seed(1)
            .build();
        assert_eq!(s.ensemble.size(), 12);
        assert_eq!(s.ensemble.dim(), mesh.n());
        assert_eq!(s.truth.len(), mesh.n());
        assert_eq!(s.observations.len(), 6 * 4);
    }

    #[test]
    fn deterministic_in_seed() {
        let mesh = Mesh::new(10, 10);
        let a = ScenarioBuilder::new(mesh).seed(9).build();
        let b = ScenarioBuilder::new(mesh).seed(9).build();
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.ensemble.states(), b.ensemble.states());
        assert_eq!(a.observations.values(), b.observations.values());
        let c = ScenarioBuilder::new(mesh).seed(10).build();
        assert_ne!(a.truth, c.truth);
    }

    #[test]
    fn background_bias_shows_in_rmse() {
        let mesh = Mesh::new(12, 12);
        let unbiased = ScenarioBuilder {
            background_bias: 0.0,
            ..ScenarioBuilder::new(mesh)
        }
        .seed(3)
        .build();
        let biased = ScenarioBuilder {
            background_bias: 2.0,
            ..ScenarioBuilder::new(mesh)
        }
        .seed(3)
        .build();
        assert!(biased.rmse_background() > unbiased.rmse_background() + 1.0);
    }

    #[test]
    fn assimilating_a_scenario_reduces_error() {
        let mesh = Mesh::new(15, 9);
        // On a mesh this small, cap the wavenumbers so the error field is
        // genuinely smooth at the observation stride.
        let s = ScenarioBuilder::new(mesh)
            .members(24)
            .observation_stride(2)
            .obs_noise_std(0.1)
            .field_generator(SmoothFieldGenerator {
                modes: 4,
                max_wavenumber: 2,
                amplitude: 1.0,
                nugget: 0.2,
            })
            .seed(7)
            .build();
        let radius = LocalizationRadius { xi: 2, eta: 2 };
        let analysis = serial_enkf(&s.ensemble, &s.observations, radius).unwrap();
        assert!(
            s.rmse_of(&analysis) < s.rmse_background() * 0.8,
            "rmse {} -> {}",
            s.rmse_background(),
            s.rmse_of(&analysis)
        );
    }
}
