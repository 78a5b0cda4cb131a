//! Smooth random field generation.
//!
//! A field is a superposition of low-wavenumber Fourier modes with random
//! amplitudes and phases (spatially correlated, ocean-like), plus an
//! optional white-noise nugget that keeps ensemble anomaly spectra
//! full-rank — without it the modified-Cholesky regressions fit the
//! anomalies exactly and the estimated inverse covariance degenerates.

use enkf_grid::Mesh;
use enkf_linalg::GaussianSampler;
use rand::Rng;

/// Generator of smooth random fields on a mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothFieldGenerator {
    /// Number of Fourier modes to superpose.
    pub modes: usize,
    /// Largest wavenumber (per axis) a mode may take.
    pub max_wavenumber: usize,
    /// Overall amplitude scale of the correlated part.
    pub amplitude: f64,
    /// Standard deviation of the white-noise nugget added per point.
    pub nugget: f64,
}

impl Default for SmoothFieldGenerator {
    fn default() -> Self {
        SmoothFieldGenerator {
            modes: 6,
            max_wavenumber: 4,
            amplitude: 1.0,
            nugget: 0.2,
        }
    }
}

impl SmoothFieldGenerator {
    /// Draw one field (length `mesh.n()`, mesh row-priority order) from the
    /// given RNG.
    pub(crate) fn generate<R: Rng + ?Sized>(&self, mesh: Mesh, rng: &mut R) -> Vec<f64> {
        let mut gs = GaussianSampler::new();
        let modes: Vec<(f64, f64, f64, f64)> = (0..self.modes)
            .map(|m| {
                let kx = rng.gen_range(1..=self.max_wavenumber) as f64;
                let ky = rng.gen_range(1..=self.max_wavenumber) as f64;
                let phase = rng.gen::<f64>() * std::f64::consts::TAU;
                // 1/f-style decay across modes.
                let amp = self.amplitude * gs.sample(rng) / (1.0 + m as f64);
                (kx, ky, phase, amp)
            })
            .collect();
        let (nx, ny) = (mesh.nx() as f64, mesh.ny() as f64);
        let mut out = Vec::with_capacity(mesh.n());
        for p in mesh.iter_points() {
            let smooth: f64 = modes
                .iter()
                .map(|&(kx, ky, phase, amp)| {
                    amp * (std::f64::consts::TAU * (kx * p.ix as f64 / nx + ky * p.iy as f64 / ny)
                        + phase)
                        .sin()
                })
                .sum();
            let noise = if self.nugget > 0.0 {
                self.nugget * gs.sample(rng)
            } else {
                0.0
            };
            out.push(smooth + noise);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (x - ma) * (y - mb))
            .sum::<f64>()
            / n;
        let va: f64 = a.iter().map(|&x| (x - ma) * (x - ma)).sum::<f64>() / n;
        let vb: f64 = b.iter().map(|&y| (y - mb) * (y - mb)).sum::<f64>() / n;
        cov / (va * vb).sqrt()
    }

    #[test]
    fn deterministic_given_seed() {
        let mesh = Mesh::new(16, 8);
        let g = SmoothFieldGenerator::default();
        let a = g.generate(mesh, &mut StdRng::seed_from_u64(5));
        let b = g.generate(mesh, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        let c = g.generate(mesh, &mut StdRng::seed_from_u64(6));
        assert_ne!(a, c);
    }

    #[test]
    fn neighboring_points_are_correlated_across_realizations() {
        // Over many independent fields, adjacent points must be strongly
        // correlated (smooth part dominates) while distant points are less
        // correlated.
        let mesh = Mesh::new(32, 16);
        let g = SmoothFieldGenerator {
            nugget: 0.1,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(11);
        let fields: Vec<Vec<f64>> = (0..200).map(|_| g.generate(mesh, &mut rng)).collect();
        let at = |ix: usize, iy: usize| -> Vec<f64> {
            let idx = mesh.index(enkf_grid::GridPoint { ix, iy });
            fields.iter().map(|f| f[idx]).collect()
        };
        let center = at(16, 8);
        let near = at(17, 8);
        let far = at(0, 0);
        let c_near = correlation(&center, &near);
        let c_far = correlation(&center, &far).abs();
        assert!(c_near > 0.7, "near correlation {c_near}");
        assert!(c_near > c_far, "near {c_near} vs far {c_far}");
    }

    #[test]
    fn nugget_breaks_exact_low_rank() {
        // With a nugget, 2 nearby fields sampled from one RNG never agree
        // exactly pointwise even on the smooth scale.
        let mesh = Mesh::new(8, 8);
        let g = SmoothFieldGenerator {
            modes: 1,
            max_wavenumber: 1,
            amplitude: 1.0,
            nugget: 0.5,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let f = g.generate(mesh, &mut rng);
        // Neighboring points differ by more than the smooth gradient alone.
        let diffs: f64 =
            f.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (f.len() - 1) as f64;
        assert!(diffs > 0.1, "mean neighbor diff {diffs}");
    }

    #[test]
    fn zero_nugget_is_pure_smooth() {
        let mesh = Mesh::new(8, 4);
        let g = SmoothFieldGenerator {
            nugget: 0.0,
            ..Default::default()
        };
        let f = g.generate(mesh, &mut StdRng::seed_from_u64(3));
        assert_eq!(f.len(), mesh.n());
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
