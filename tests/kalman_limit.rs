//! The Kalman limit: the unlocalized stochastic EnKF against the exact
//! Kalman analysis.
//!
//! A Gaussian prior `N(μᵇ, B)` with `B` known, a linear observation
//! operator `H` (a strided network) and Gaussian data errors `R` have an
//! exact posterior: mean `μᵃ = μᵇ + K (y − H μᵇ)` and covariance
//! `Pᵃ = B − K H B`, with `K = B Hᵀ (H B Hᵀ + R)⁻¹` (Eq. 3). An ensemble of
//! `N` members drawn from the prior and assimilated once by the stochastic
//! EnKF (`serial_denkf`, perturbed observations) converges to it at the
//! Monte-Carlo rate: the error of its analysis mean falls as `N^{-1/2}`,
//! and its analysis variance approaches `diag(Pᵃ)` within the sampling
//! error of a variance estimate.
//!
//! The exact posterior is built from `GlobalAnalysis::increment_covariance_form`,
//! the dense Eq. 3 — so this is a check of the filter against the Kalman
//! filter, not of one of the repo's analyses against another.

use rand::rngs::StdRng;
use rand::SeedableRng;
use s_enkf::core::{
    serial_denkf, BatchedKernel, Ensemble, GlobalAnalysis, ObservationOperator, Observations,
    PerturbedObservations,
};
use s_enkf::grid::{Mesh, ObservationNetwork};
use s_enkf::linalg::{Cholesky, GaussianSampler, Matrix};

/// A 12 × 8 mesh observed every second point in both directions.
const MESH: (usize, usize) = (12, 8);
const STRIDE: usize = 2;
/// Ensemble sizes of the convergence fit.
const SIZES: [usize; 3] = [16, 64, 256];
/// Independent priors, truths and ensembles per size.
const SEEDS: [u64; 6] = [3, 17, 29, 41, 53, 71];
/// Data-error variance of every observation.
const R: f64 = 0.25;

/// The prior: mean `μᵇ` and covariance `B` — exponentially decaying
/// correlations over three grid lengths, unit variance.
fn prior(mesh: Mesh) -> (Vec<f64>, Matrix) {
    let mean = (0..mesh.n())
        .map(|i| {
            let p = mesh.point(i);
            (p.ix as f64 * 0.5).sin() + 0.3 * (p.iy as f64 * 0.7).cos()
        })
        .collect();
    let b = Matrix::from_fn(mesh.n(), mesh.n(), |i, j| {
        let (p, q) = (mesh.point(i), mesh.point(j));
        let d = ((p.ix.abs_diff(q.ix).pow(2) + p.iy.abs_diff(q.iy).pow(2)) as f64).sqrt();
        (-d / 3.0).exp()
    });
    (mean, b)
}

/// `columns` draws of `N(mean, B)`, given `B`'s Cholesky factor `l`.
fn draws(mean: &[f64], l: &Matrix, columns: usize, rng: &mut StdRng) -> Matrix {
    let mut gs = GaussianSampler::new();
    let z = Matrix::from_fn(mean.len(), columns, |_, _| gs.sample(rng));
    let mut x = l.matmul(&z).unwrap();
    for (i, &m) in mean.iter().enumerate() {
        x.row_mut(i).iter_mut().for_each(|v| *v += m);
    }
    x
}

/// `K V` for each column of the innovations `v` (`m × c`), through the
/// covariance-form increment `B Hᵀ (R + H B Hᵀ)⁻¹ (Yˢ − H Xᵇ)`: with `c`
/// perturbed members and `Xᵇ = Hᵀ (Yˢ − V)`, each member's innovation is
/// its column of `V` (`H Hᵀ = I` for a network of distinct points).
fn gain_times(b: &Matrix, obs: &Observations, h: &Matrix, v: &Matrix) -> Matrix {
    let obs = obs.with_members(v.ncols());
    let xb = h
        .tr_matmul(&obs.perturbed_matrix().sub(v).unwrap())
        .unwrap();
    GlobalAnalysis::increment_covariance_form(b, &obs, &xb).unwrap()
}

/// One seed's problem: the observations of a truth drawn from the prior,
/// and the exact analysis mean and variances.
struct Exact {
    obs: Observations,
    mean: Vec<f64>,
    var: Vec<f64>,
}

fn exact(mesh: Mesh, mean: &[f64], b: &Matrix, l: &Matrix, seed: u64) -> Exact {
    let op = ObservationOperator::new(ObservationNetwork::uniform(mesh, STRIDE));
    let h = op.to_dense();
    let mut rng = StdRng::seed_from_u64(seed);
    let truth = draws(mean, l, 1, &mut rng);
    let mut gs = GaussianSampler::new();
    let y: Vec<f64> = op
        .apply(&truth.col(0))
        .into_iter()
        .map(|v| v + R.sqrt() * gs.sample(&mut rng))
        .collect();
    let m = y.len();
    let hmean = op.apply(mean);
    let innovation = Matrix::from_fn(m, 1, |k, _| y[k] - hmean[k]);
    let obs = Observations::new(
        op,
        y,
        vec![R; m],
        PerturbedObservations::new(seed ^ 0x5EED, 1),
    );
    let increment = gain_times(b, &obs, &h, &innovation);
    let khb = gain_times(b, &obs, &h, &h.matmul(b).unwrap());
    Exact {
        mean: (0..mesh.n()).map(|i| mean[i] + increment[(i, 0)]).collect(),
        var: (0..mesh.n()).map(|i| b[(i, i)] - khb[(i, i)]).collect(),
        obs,
    }
}

/// The analysis ensemble of `members` prior draws (drawn from `seed`)
/// under the stochastic EnKF.
fn enkf(
    mesh: Mesh,
    mean: &[f64],
    l: &Matrix,
    obs: &Observations,
    members: usize,
    seed: u64,
) -> Ensemble {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000_003) ^ members as u64);
    let prior = Ensemble::new(mesh, draws(mean, l, members, &mut rng));
    serial_denkf(&prior, &obs.with_members(members), BatchedKernel::Cholesky).unwrap()
}

/// Over six seeds, the error of the analysis mean falls with `N` at a
/// fitted log-log slope of at most −0.35 (the Monte-Carlo rate is −0.5),
/// and at `N = 256` the ensemble's analysis variance lies within a sampling
/// band of `diag(Pᵃ)`: a variance estimated from `N` Gaussian draws has a
/// relative standard error of `√(2/(N−1))` (0.089 at `N = 256`), so each
/// point's variance lies within 4 of them of its `Pᵃ`, and their mean over
/// the mesh within 1. Below that size the unlocalized, uninflated ensemble
/// collapses — its variance is biased low, by less as `N` grows.
#[test]
fn the_stochastic_enkf_converges_to_the_kalman_analysis() {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let (mean, b) = prior(mesh);
    let l = Cholesky::factor(&b).unwrap().l().clone();
    let n = mesh.n() as f64;
    // Per size: the mean over seeds of the analysis mean's RMS error.
    let mut errors = [0.0; SIZES.len()];
    for &seed in &SEEDS {
        let exact = exact(mesh, &mean, &b, &l, seed);
        let mut collapse = 0.0;
        for (error, &members) in errors.iter_mut().zip(&SIZES) {
            let xa = enkf(mesh, &mean, &l, &exact.obs, members, seed);
            let means = xa.states().row_means();
            let sq: f64 = means
                .iter()
                .zip(&exact.mean)
                .map(|(a, e)| (a - e).powi(2))
                .sum();
            *error += (sq / n).sqrt() / SEEDS.len() as f64;
            // The analysis variance over the exact one, per point.
            let cov = xa.covariance().unwrap();
            let ratios: Vec<f64> = (0..mesh.n()).map(|i| cov[(i, i)] / exact.var[i]).collect();
            let average = ratios.iter().sum::<f64>() / n;
            assert!(
                average > collapse,
                "seed {seed}: the variance ratio {average} at N = {members} is no nearer 1"
            );
            collapse = average;
            if members == SIZES[SIZES.len() - 1] {
                let se = (2.0 / (members - 1) as f64).sqrt();
                let worst = ratios.iter().map(|r| (r - 1.0).abs()).fold(0.0, f64::max);
                assert!(
                    worst <= 4.0 * se,
                    "seed {seed}: a point's variance ratio is off by {worst}"
                );
                assert!(
                    (average - 1.0).abs() <= se,
                    "seed {seed}: mean variance ratio {average}"
                );
            }
        }
    }
    // Least-squares slope of ln(error) against ln(N).
    let xs = SIZES.map(|k| (k as f64).ln());
    let ys = errors.map(f64::ln);
    let k = SIZES.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / k, ys.iter().sum::<f64>() / k);
    let slope = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / xs.iter().map(|x| (x - mx).powi(2)).sum::<f64>();
    assert!(
        slope <= -0.35,
        "mean errors {errors:?} fall at slope {slope}"
    );
}
