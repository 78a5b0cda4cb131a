//! Gaussian sampling on top of the `rand` uniform generators.
//!
//! Perturbed observations `Yˢ` have distribution `N(0, R)` (Eq. 3) and the
//! synthetic ensembles are built from Gaussian fields. `rand` alone ships
//! only uniform distributions, so the normal variates are produced here with
//! the Box–Muller transform (exact, allocation-free, and plenty fast for the
//! volumes the experiments need).

use rand::Rng;

/// A Box–Muller standard-normal sampler.
///
/// Each transform yields two variates; the spare is cached so consecutive
/// calls consume uniforms at the optimal rate. The sampler carries no RNG
/// state of its own — pass any `rand::Rng` to `sample`.
#[derive(Debug, Default, Clone)]
pub struct GaussianSampler {
    spare: Option<f64>,
}

impl GaussianSampler {
    /// Create a sampler with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draw one standard-normal variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box–Muller: u1 in (0, 1] to keep ln finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Fill a buffer with standard-normal variates.
    pub(crate) fn fill<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [f64]) {
        for v in out {
            *v = self.sample(rng);
        }
    }

    /// Collect `n` standard-normal variates into a fresh vector.
    pub fn vec<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        self.fill(rng, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn moments_match_standard_normal() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut gs = GaussianSampler::new();
        let n = 200_000;
        let xs = gs.vec(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn tails_are_plausible() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut gs = GaussianSampler::new();
        let n = 100_000;
        let beyond2: usize = (0..n).filter(|_| gs.sample(&mut rng).abs() > 2.0).count();
        let frac = beyond2 as f64 / n as f64;
        // P(|Z| > 2) ≈ 0.0455.
        assert!(
            (frac - 0.0455).abs() < 0.006,
            "two-sigma tail fraction {frac}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = GaussianSampler::new().vec(&mut StdRng::seed_from_u64(9), 16);
        let b = GaussianSampler::new().vec(&mut StdRng::seed_from_u64(9), 16);
        assert_eq!(a, b);
    }
}
