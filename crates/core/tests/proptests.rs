//! Property-based tests of the analysis kernels' invariants.

use enkf_core::local::box_predecessors;
use enkf_core::{
    serial_enkf, Ensemble, LetkfAnalysis, LetkfWorkspace, LocalAnalysis, LocalObsIndex,
    LocalObservations, ObservationOperator, Observations, PerturbedObservations,
};
use enkf_grid::{
    Decomposition, GridPoint, LocalizationRadius, Mesh, ObservationNetwork, RegionRect,
};
use enkf_linalg::{ridge_least_squares, Cholesky, EigenWorkspace, GaussianSampler, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
struct Problem {
    ensemble: Ensemble,
    observations: Observations,
    radius: LocalizationRadius,
}

fn problem_strategy() -> impl Strategy<Value = Problem> {
    (
        2usize..=4,
        2usize..=3,
        4usize..=10,
        1usize..=2,
        1usize..=2,
        2usize..=3,
        any::<u64>(),
    )
        .prop_map(|(mx, my, nens, xi, eta, stride, seed)| {
            let mesh = Mesh::new(mx * 3, my * 3);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut gs = GaussianSampler::new();
            let states = Matrix::from_fn(mesh.n(), nens, |i, _| {
                let p = mesh.point(i);
                (p.ix as f64 * 0.5).sin() + 0.5 * gs.sample(&mut rng)
            });
            let ensemble = Ensemble::new(mesh, states);
            let net = ObservationNetwork::uniform(mesh, stride);
            let op = ObservationOperator::new(net);
            let m = op.len();
            let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.23).cos()).collect();
            let observations = Observations::new(
                op,
                values,
                vec![0.1; m],
                PerturbedObservations::new(seed ^ 0xBEEF, nens),
            );
            Problem {
                ensemble,
                observations,
                radius: LocalizationRadius { xi, eta },
            }
        })
}

/// `A = B̂⁻¹ + Hᵀ R⁻¹ H` on `rect` the way the local analysis formed it
/// before anomalies and inner products were shared: anomalies of this
/// rectangle's own copy of the background, one gathered design matrix and
/// `ridge_least_squares` solve per component, a dense `L`, and the dense
/// zero-skipping `Lᵀ D⁻¹ L`.
fn oracle_system(
    la: &LocalAnalysis,
    rect: &RegionRect,
    xb: &Matrix,
    obs: &LocalObservations,
) -> Matrix {
    let (n, nens) = xb.shape();
    let mut u = xb.clone();
    let means = u.row_means();
    u.subtract_row_vector(&means);
    let denom = (nens - 1).max(1) as f64;
    let mean_var = u.as_slice().iter().map(|&v| v * v).sum::<f64>() / (denom * n as f64);
    let lambda = (la.ridge * mean_var).max(f64::MIN_POSITIVE);

    let denom = (nens - 1) as f64;
    let mut predecessors = box_predecessors(rect, la.radius);
    let mut l = Matrix::identity(n);
    let mut d = vec![0.0; n];
    for i in 0..n {
        let preds = predecessors(i);
        let yi = u.row(i);
        let ss = if preds.is_empty() {
            yi.iter().map(|&v| v * v).sum::<f64>()
        } else {
            let x = Matrix::from_fn(nens, preds.len(), |s, p| u[(preds[p], s)]);
            let beta = ridge_least_squares(&x, yi, lambda).unwrap();
            let mut ss = 0.0;
            for s in 0..nens {
                let mut fit = 0.0;
                for (p, &j) in preds.iter().enumerate() {
                    fit += beta[p] * u[(j, s)];
                }
                let r = yi[s] - fit;
                ss += r * r;
            }
            for (p, &j) in preds.iter().enumerate() {
                l[(i, j)] = -beta[p];
            }
            ss
        };
        d[i] = (ss / denom).max(lambda.max(f64::MIN_POSITIVE));
    }
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        let s = 1.0 / d[i].sqrt();
        let support: Vec<(usize, f64)> = (0..=i)
            .filter(|&j| l[(i, j)] != 0.0)
            .map(|j| (j, l[(i, j)] * s))
            .collect();
        for &(ja, fa) in &support {
            for &(jb, fb) in &support {
                a[(ja, jb)] += fa * fb;
            }
        }
    }
    a.symmetrize();
    for (r, &row) in obs.local_rows.iter().enumerate() {
        a[(row, row)] += 1.0 / obs.error_var[r];
    }
    a
}

/// One point of the point-wise analysis as it was: copy the point's box
/// out of the expansion, solve `A w = eₜ` there, and apply `wᵀ Z`.
fn oracle_point(
    la: &LocalAnalysis,
    mesh: Mesh,
    p: GridPoint,
    expansion: &RegionRect,
    xb: &Matrix,
    obs: &LocalObservations,
) -> Vec<f64> {
    let boxr = RegionRect::new(p.ix, p.ix + 1, p.iy, p.iy + 1).expand(la.radius, mesh);
    let xb_box = xb.select_rows(&expansion.local_indices_of(&boxr));
    let obs_box = obs.sub_localize(expansion, &boxr);
    let t = boxr.local_index(p);
    let mut out = xb_box.row(t).to_vec();
    if obs_box.is_empty() {
        return out;
    }
    let a = oracle_system(la, &boxr, &xb_box, &obs_box);
    let mut e_t = vec![0.0; boxr.npoints()];
    e_t[t] = 1.0;
    let w = Cholesky::factor(&a).unwrap().solve_vec(&e_t).unwrap();
    for (r, &row) in obs_box.local_rows.iter().enumerate() {
        let c = w[row] / obs_box.error_var[r];
        for (k, o) in out.iter_mut().enumerate() {
            *o += c * (obs_box.perturbed[(r, k)] - xb_box[(row, k)]);
        }
    }
    out
}

/// The LETKF transform `W = Wa + w̄ ⊗ 1ᵀ` from a box's observation
/// anomalies `yb`, innovations `d` and error variances `rvar`: the
/// ensemble-space eigenproblem on `M = (N−1) I + Ybᵀ R⁻¹ Yb` when
/// `m̄ ≥ N`, else its observation-space dual, where a spectral function of
/// `M` is `f(N−1)·I + Σ (f(N−1+σ²ᵢ) − f(N−1)) vᵢvᵢᵀ` over the eigenpairs of
/// `S Sᵀ`, `S = R^{−1/2} Yb`.
fn letkf_transform(yb: &Matrix, d: &[f64], rvar: &[f64]) -> Matrix {
    let (mbar, nens) = yb.shape();
    let shift = (nens - 1) as f64;
    let sqrt_f = |l: f64| ((nens - 1) as f64 / l).sqrt();
    let mut eig = EigenWorkspace::new();
    let (mut p_tilde, mut w) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    if mbar >= nens {
        let mut m = Matrix::zeros(nens, nens);
        for (r, &var) in rvar.iter().enumerate() {
            let row = yb.row(r);
            for (a, &ya) in row.iter().enumerate() {
                let fa = 1.0 / var * ya;
                if fa != 0.0 {
                    for (x, &rb) in m.row_mut(a).iter_mut().zip(row) {
                        *x += fa * rb;
                    }
                }
            }
        }
        for a in 0..nens {
            m[(a, a)] += shift;
        }
        eig.decompose(&m).unwrap();
        eig.map_spectrum_into(|l| 1.0 / l, &mut p_tilde).unwrap();
        eig.map_spectrum_into(sqrt_f, &mut w).unwrap();
    } else {
        let s = Matrix::from_fn(mbar, nens, |r, k| yb[(r, k)] * (1.0 / rvar[r].sqrt()));
        let mut gram = Matrix::zeros(0, 0);
        s.matmul_tr_into(&s, &mut gram).unwrap();
        eig.decompose(&gram).unwrap();
        let mut basis = Matrix::zeros(0, 0);
        s.tr_matmul_into(eig.vectors(), &mut basis).unwrap();
        let lams = eig.values();
        for (i, &lam) in lams.iter().enumerate() {
            let scale = if lam > 0.0 { 1.0 / lam.sqrt() } else { 0.0 };
            for r in 0..nens {
                basis[(r, i)] *= scale;
            }
        }
        let spectral = |f: &dyn Fn(f64) -> f64, out: &mut Matrix| {
            let mut scaled = basis.clone();
            for (i, &lam) in lams.iter().enumerate() {
                let df = f(shift + lam.max(0.0)) - f(shift);
                for r in 0..nens {
                    scaled[(r, i)] *= df;
                }
            }
            scaled.matmul_tr_into(&basis, out).unwrap();
            out.symmetrize();
            for a in 0..nens {
                out[(a, a)] += f(shift);
            }
        };
        spectral(&|l| 1.0 / l, &mut p_tilde);
        spectral(&sqrt_f, &mut w);
    }
    let mut g = vec![0.0; nens];
    for (r, (&dr, &var)) in d.iter().zip(rvar).enumerate() {
        let scale = dr / var;
        for (gv, &ya) in g.iter_mut().zip(yb.row(r)) {
            *gv += ya * scale;
        }
    }
    for (a, wv) in p_tilde.matvec(&g).unwrap().into_iter().enumerate() {
        for x in w.row_mut(a) {
            *x += wv;
        }
    }
    w
}

/// One point of the LETKF by the region formulation over the point's box:
/// copy the box out of `full`, build `W` there, form the whole box's
/// `X^a = x̄ ⊗ 1ᵀ + U W` and keep the point's row.
fn oracle_letkf_point(
    la: &LetkfAnalysis,
    mesh: Mesh,
    p: GridPoint,
    xb: &Matrix,
    obs: &LocalObservations,
) -> Vec<f64> {
    let full = RegionRect::full(mesh);
    let boxr = RegionRect::new(p.ix, p.ix + 1, p.iy, p.iy + 1).expand(la.radius, mesh);
    let mut u = xb.select_rows(&full.local_indices_of(&boxr));
    let obs_box = obs.sub_localize(&full, &boxr);
    let t = boxr.local_index(p);
    if obs_box.is_empty() {
        return u.row(t).to_vec();
    }
    let mean = u.row_means();
    u.subtract_row_vector(&mean);
    let rows = &obs_box.local_rows;
    let yb = Matrix::from_fn(rows.len(), u.ncols(), |r, k| u[(rows[r], k)]);
    let d: Vec<f64> = (0..rows.len())
        .map(|r| obs_box.values[r] - mean[rows[r]])
        .collect();
    let w = letkf_transform(&yb, &d, &obs_box.error_var);
    let incr = u.matmul(&w).unwrap();
    incr.row(t).iter().map(|&inc| inc + mean[t]).collect()
}

/// The point-wise LETKF over the whole mesh, one
/// [`LetkfAnalysis::analyze_point_into`] call per grid point.
fn letkf(ensemble: &Ensemble, observations: &Observations, radius: LocalizationRadius) -> Ensemble {
    let mesh = ensemble.mesh();
    let full = RegionRect::full(mesh);
    let obs = observations.localize(&full);
    let index = LocalObsIndex::build(&obs, &full, radius.xi.max(radius.eta).max(1));
    let (la, xb) = (LetkfAnalysis::new(radius), ensemble.states());
    let mut ws = LetkfWorkspace::new();
    let mut xa = xb.clone();
    for (i, p) in full.iter_points().enumerate() {
        la.analyze_point_into(mesh, p, &full, xb, &obs, &index, &mut ws, xa.row_mut(i))
            .unwrap();
    }
    Ensemble::new(mesh, xa)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn local_analysis_is_bit_identical_to_the_per_box_design_matrix_algorithm(
        (nx, ny) in (5usize..=11, 5usize..=9),
        // A second mesh at least `2ξ + 4` wide, with its first row
        // observed: its unclipped points form a lane group at every radius.
        wide_nx in 10usize..=17,
        (xi, eta) in (1usize..=3, 1usize..=3),
        // From N = 2 up: most regressions then have N ≤ |preds| and only
        // the ridge keeps their normal equations factorizable.
        nens in 2usize..=12,
        mask in proptest::collection::vec(any::<bool>(), 3..40),
        rect in (any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()),
        seed in any::<u64>(),
    ) {
        let radius = LocalizationRadius { xi, eta };
        for (nx, wide) in [(nx, false), (wide_nx, true)] {
            let mesh = Mesh::new(nx, ny);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut gs = GaussianSampler::new();
            let full = RegionRect::full(mesh);
            let states = Matrix::from_fn(mesh.n(), nens, |i, _| {
                1.5 + (mesh.point(i).ix as f64 * 0.5).sin() + 0.5 * gs.sample(&mut rng)
            });
            // A random sparse network (always at least the origin, on the
            // wide mesh the first row), so some boxes hold no observation.
            let points: Vec<GridPoint> = full
                .iter_points()
                .enumerate()
                .filter(|(k, p)| *k == 0 || (wide && p.iy == 0) || mask[k % mask.len()])
                .map(|(_, p)| p)
                .collect();
            let op = ObservationOperator::new(ObservationNetwork::from_points(mesh, points));
            let m = op.len();
            let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.23).cos()).collect();
            let observations = Observations::new(
                op,
                values,
                vec![0.1; m],
                PerturbedObservations::new(seed ^ 0xBEEF, nens),
            );

            // A random non-empty target — often narrower than the radius,
            // often against a mesh edge so its expansion is clamped — and
            // the mesh.
            let x0 = rect.0 % nx;
            let x1 = x0 + 1 + rect.1 % (nx - x0);
            let y0 = rect.2 % ny;
            let y1 = y0 + 1 + rect.3 % (ny - y0);
            for target in [RegionRect::new(x0, x1, y0, y1), full] {
                let expansion = target.expand(radius, mesh);
                let xb = states.select_rows(&full.local_indices_of(&expansion));
                let obs = observations.localize(&expansion);

                let la = LocalAnalysis::new(radius);
                let xa = la.analyze(mesh, &target, &expansion, &xb, &obs).unwrap();
                for (i, gp) in target.iter_points().enumerate() {
                    let want = oracle_point(&la, mesh, gp, &expansion, &xb, &obs);
                    prop_assert_eq!(bits(xa.row(i)), bits(&want), "point {:?} of {:?}", gp, target);
                }
            }
        }
    }

    #[test]
    fn pointwise_analysis_is_decomposition_invariant(p in problem_strategy()) {
        let mesh = p.ensemble.mesh();
        let reference = serial_enkf(&p.ensemble, &p.observations, p.radius).unwrap();
        // Any divisor-compatible decomposition must reproduce it.
        let divx: Vec<usize> = (1..=mesh.nx()).filter(|d| mesh.nx().is_multiple_of(*d)).collect();
        let divy: Vec<usize> = (1..=mesh.ny()).filter(|d| mesh.ny().is_multiple_of(*d)).collect();
        let sx = divx[divx.len() / 2];
        let sy = divy[divy.len() / 2];
        let d = Decomposition::new(mesh, sx, sy).unwrap();
        let la = LocalAnalysis::new(p.radius);
        let mut got = p.ensemble.clone();
        for id in d.iter_ids() {
            let (target, expansion) = (d.subdomain(id), d.expansion(id, p.radius));
            let xb = p.ensemble.restrict(&expansion);
            let obs = p.observations.localize(&expansion);
            got.assign(&target, &la.analyze(mesh, &target, &expansion, &xb, &obs).unwrap());
        }
        prop_assert!(
            got.states().approx_eq(reference.states(), 1e-10),
            "decomposition {sx}x{sy} changed the analysis"
        );
    }

    #[test]
    fn analysis_preserves_geometry_and_finiteness(p in problem_strategy()) {
        let analysis = serial_enkf(&p.ensemble, &p.observations, p.radius).unwrap();
        prop_assert_eq!(analysis.mesh(), p.ensemble.mesh());
        prop_assert_eq!(analysis.size(), p.ensemble.size());
        prop_assert!(analysis.states().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn letkf_contracts_total_spread(p in problem_strategy()) {
        let analysis = letkf(&p.ensemble, &p.observations, p.radius);
        let before = p.ensemble.anomalies().frobenius_norm();
        let after = analysis.anomalies().frobenius_norm();
        prop_assert!(after <= before * 1.0001, "spread grew: {before} -> {after}");
    }

    #[test]
    fn points_outside_every_local_box_are_untouched(p in problem_strategy()) {
        // Identify points with no observation in their local box; the
        // point-wise analysis must leave them bit-identical.
        let mesh = p.ensemble.mesh();
        let analysis = serial_enkf(&p.ensemble, &p.observations, p.radius).unwrap();
        let obs_points: Vec<GridPoint> =
            p.observations.operator().network().points().to_vec();
        for gp in mesh.iter_points() {
            let has_obs = obs_points
                .iter()
                .any(|&o| mesh.in_local_box(gp, o, p.radius));
            if !has_obs {
                let i = mesh.index(gp);
                for k in 0..p.ensemble.size() {
                    prop_assert_eq!(
                        analysis.states()[(i, k)],
                        p.ensemble.states()[(i, k)],
                        "unobserved point {:?} changed", gp
                    );
                }
            }
        }
    }

    #[test]
    fn indexed_localize_matches_linear_scan_on_random_networks(
        mx in 2usize..=5,
        my in 2usize..=5,
        mask in proptest::collection::vec(any::<bool>(), 1..200),
        rect in (any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()),
        seed in any::<u64>(),
    ) {
        // A random sparse network: keep point k iff mask[k % mask.len()].
        let mesh = Mesh::new(mx * 3, my * 3);
        let points: Vec<GridPoint> = RegionRect::full(mesh)
            .iter_points()
            .enumerate()
            .filter(|(k, _)| mask[k % mask.len()])
            .map(|(_, p)| p)
            .collect();
        let net = ObservationNetwork::from_points(mesh, points);
        let op = ObservationOperator::new(net);
        let m = op.len();
        let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.31).sin()).collect();
        let observations = Observations::new(
            op,
            values,
            vec![0.2; m],
            PerturbedObservations::new(seed, 4),
        );
        // A random (possibly empty) region plus the edge cases: degenerate
        // and full-mesh.
        let x0 = rect.0 % (mesh.nx() + 1);
        let x1 = x0 + rect.1 % (mesh.nx() + 1 - x0);
        let y0 = rect.2 % (mesh.ny() + 1);
        let y1 = y0 + rect.3 % (mesh.ny() + 1 - y0);
        for region in [
            RegionRect::new(x0, x1, y0, y1),
            RegionRect::new(x0, x0, y0, y1),
            RegionRect::full(mesh),
        ] {
            prop_assert_eq!(
                observations.localize(&region),
                observations.localize_linear(&region),
                "region {:?}", region
            );
        }
    }

    #[test]
    fn pointwise_letkf_matches_per_point_region_kernel(p in problem_strategy()) {
        // The point kernel — gathered box, indexed re-localization, one row
        // of `U W` — reproduces, bit for bit, the region formulation over
        // each grid point's local box.
        let mesh = p.ensemble.mesh();
        let obs = p.observations.localize(&RegionRect::full(mesh));
        let la = LetkfAnalysis::new(p.radius);
        let xa = letkf(&p.ensemble, &p.observations, p.radius);
        for (i, gp) in mesh.iter_points().enumerate() {
            let want = oracle_letkf_point(&la, mesh, gp, p.ensemble.states(), &obs);
            prop_assert_eq!(
                bits(xa.states().row(i)),
                bits(&want),
                "point {:?} diverged from the region formulation", gp
            );
        }
    }

    #[test]
    fn perturbed_rows_have_requested_moments(seed in any::<u64>(), nens in 50usize..200) {
        let p = PerturbedObservations::new(seed, nens);
        let row = p.row(3, 2.0, 0.5);
        let mean = row.iter().sum::<f64>() / nens as f64;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (nens - 1) as f64;
        // Loose sampling bounds: the point is distributional sanity.
        prop_assert!((mean - 2.0).abs() < 0.5, "mean {mean}");
        prop_assert!(var > 0.01 && var < 1.5, "var {var}");
    }
}

/// Smooth correlated error field (low-wavenumber modes + nugget), so
/// information can spread from observed to unobserved points.
fn smooth_noise(mesh: Mesh, rng: &mut StdRng, gs: &mut GaussianSampler) -> Vec<f64> {
    use rand::Rng;
    let modes: Vec<(f64, f64, f64, f64)> = (0..4)
        .map(|m| {
            let kx = rng.gen_range(1..=2) as f64;
            let ky = rng.gen_range(1..=2) as f64;
            let phase = rng.gen::<f64>() * std::f64::consts::TAU;
            let amp = gs.sample(rng) / (1.0 + m as f64);
            (kx, ky, phase, amp)
        })
        .collect();
    (0..mesh.n())
        .map(|i| {
            let p = mesh.point(i);
            let smooth: f64 = modes
                .iter()
                .map(|&(kx, ky, ph, a)| {
                    a * (std::f64::consts::TAU
                        * (kx * p.ix as f64 / mesh.nx() as f64
                            + ky * p.iy as f64 / mesh.ny() as f64)
                        + ph)
                        .sin()
                })
                .sum();
            smooth + 0.2 * gs.sample(rng)
        })
        .collect()
}

fn letkf_problem(mesh: Mesh, nens: usize, seed: u64) -> (Ensemble, Observations, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gs = GaussianSampler::new();
    let truth: Vec<f64> = (0..mesh.n())
        .map(|i| {
            let p = mesh.point(i);
            (p.ix as f64 * 0.3).sin() + (p.iy as f64 * 0.4).cos()
        })
        .collect();
    let members: Vec<Vec<f64>> = (0..nens)
        .map(|_| {
            let noise = smooth_noise(mesh, &mut rng, &mut gs);
            truth
                .iter()
                .zip(&noise)
                .map(|(&t, &e)| t + 0.4 + e)
                .collect()
        })
        .collect();
    let states = Matrix::from_fn(mesh.n(), nens, |i, k| members[k][i]);
    let ensemble = Ensemble::new(mesh, states);
    let net = ObservationNetwork::uniform(mesh, 2);
    let op = ObservationOperator::new(net);
    let values = op.apply(&truth);
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
fn letkf_reduces_error() {
    // Seed picked for a healthy reduction margin under the vendored RNG
    // stream; the threshold is a property of the sampled instance.
    let mesh = Mesh::new(10, 8);
    let (ensemble, obs, truth) = letkf_problem(mesh, 20, 13);
    let radius = LocalizationRadius { xi: 2, eta: 2 };
    let analysis = letkf(&ensemble, &obs, radius);
    assert!(
        analysis.rmse_against(&truth) < ensemble.rmse_against(&truth) * 0.7,
        "rmse {} -> {}",
        ensemble.rmse_against(&truth),
        analysis.rmse_against(&truth)
    );
}

#[test]
fn letkf_mean_matches_kalman_mean_without_localization() {
    // With every point's box the full domain and B = U Uᵀ/(N−1), the
    // LETKF mean must equal the covariance-form Kalman mean (Eq. 3) with
    // unperturbed observations.
    let mesh = Mesh::new(4, 3);
    let nens = 24;
    let (ensemble, obs, _) = letkf_problem(mesh, nens, 5);
    let n = mesh.n();

    // LETKF with a radius covering the whole mesh (no localization).
    let radius = LocalizationRadius { xi: 4, eta: 3 };
    let letkf_mean = letkf(&ensemble, &obs, radius).states().row_means();

    // Kalman mean via Eq. (3) with ensemble covariance and Yˢ = y ⊗ 1.
    let b = ensemble.covariance().unwrap();
    let h = obs.operator().to_dense();
    let innovation_mean = {
        let hx = h.matvec(&ensemble.states().row_means()).unwrap();
        obs.values()
            .iter()
            .zip(&hx)
            .map(|(y, hx)| y - hx)
            .collect::<Vec<_>>()
    };
    let bht = b.matmul_tr(&h).unwrap();
    let mut s = h.matmul(&bht).unwrap();
    for (k, &v) in obs.error_var().iter().enumerate() {
        s[(k, k)] += v;
    }
    s.symmetrize();
    let w = enkf_linalg::Cholesky::factor(&s)
        .unwrap()
        .solve_vec(&innovation_mean)
        .unwrap();
    let delta = bht.matvec(&w).unwrap();
    let kalman_mean: Vec<f64> = ensemble
        .states()
        .row_means()
        .iter()
        .zip(&delta)
        .map(|(m, d)| m + d)
        .collect();

    for i in 0..n {
        assert!(
            (letkf_mean[i] - kalman_mean[i]).abs() < 1e-8,
            "component {i}: {} vs {}",
            letkf_mean[i],
            kalman_mean[i]
        );
    }
}

#[test]
fn letkf_tightens_spread() {
    let mesh = Mesh::new(8, 8);
    let (ensemble, obs, _) = letkf_problem(mesh, 16, 7);
    let radius = LocalizationRadius { xi: 2, eta: 2 };
    let analysis = letkf(&ensemble, &obs, radius);
    // Total anomaly energy must shrink: the analysis is a contraction.
    let before = ensemble.anomalies().frobenius_norm();
    let after = analysis.anomalies().frobenius_norm();
    assert!(after < before, "spread {before} -> {after}");
}

#[test]
fn letkf_without_observations_is_identity() {
    let mesh = Mesh::new(6, 6);
    let nens = 8;
    let mut rng = StdRng::seed_from_u64(3);
    let mut gs = GaussianSampler::new();
    let states = Matrix::from_fn(mesh.n(), nens, |_, _| gs.sample(&mut rng));
    let ensemble = Ensemble::new(mesh, states);
    let net = ObservationNetwork::from_points(mesh, vec![]);
    let op = ObservationOperator::new(net);
    let obs = Observations::new(op, vec![], vec![], PerturbedObservations::new(0, nens));
    let radius = LocalizationRadius { xi: 1, eta: 1 };
    let out = letkf(&ensemble, &obs, radius);
    assert_eq!(out.states(), ensemble.states());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The analysis of a region skips its unobserved points and tabulates
    /// only the rows the observed points' boxes reach; every row must still
    /// equal, to the bit, the analysis of that point alone over its own box,
    /// whose expansion is the box and so is tabulated in full. Networks: none,
    /// one observation at a mesh corner, observations on the expansion's
    /// edge, and a lattice of stride 1–16 at a random offset.
    #[test]
    fn region_analysis_equals_each_points_own_box_analysis(
        (nx, ny) in (4usize..=21, 3usize..=14),
        (xi, eta) in (0usize..=3, 0usize..=3),
        nens in proptest::sample::select(vec![2usize, 3, 32]),
        corner in 0usize..4,
        (stride, offset) in (1usize..=16, (0usize..16, 0usize..16)),
        rect in (any::<usize>(), any::<usize>(), any::<usize>(), any::<usize>()),
        seed in any::<u64>(),
    ) {
        let mesh = Mesh::new(nx, ny);
        let full = RegionRect::full(mesh);
        let radius = LocalizationRadius { xi, eta };
        let la = LocalAnalysis::new(radius);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let states = Matrix::from_fn(mesh.n(), nens, |i, _| {
            1.5 + (mesh.point(i).ix as f64 * 0.5).sin() + 0.5 * gs.sample(&mut rng)
        });
        let x0 = rect.0 % nx;
        let x1 = x0 + 1 + rect.1 % (nx - x0);
        let y0 = rect.2 % ny;
        let y1 = y0 + 1 + rect.3 % (ny - y0);
        let target = RegionRect::new(x0, x1, y0, y1);
        let expansion = target.expand(radius, mesh);
        let on_edge = |p: &GridPoint| {
            (p.ix == expansion.x0 || p.ix + 1 == expansion.x1)
                || (p.iy == expansion.y0 || p.iy + 1 == expansion.y1)
        };
        let lattice = |p: &GridPoint| {
            let on = |i: usize, o: usize| i >= o && (i - o).is_multiple_of(stride);
            on(p.ix, offset.0 % nx) && on(p.iy, offset.1 % ny)
        };
        let corner = GridPoint {
            ix: if corner % 2 == 0 { 0 } else { nx - 1 },
            iy: if corner / 2 == 0 { 0 } else { ny - 1 },
        };
        let networks: [Vec<GridPoint>; 4] = [
            vec![],
            vec![corner],
            expansion.iter_points().filter(on_edge).step_by(3).collect(),
            mesh.iter_points().filter(lattice).collect(),
        ];
        for (kind, points) in networks.into_iter().enumerate() {
            let op = ObservationOperator::new(ObservationNetwork::from_points(mesh, points));
            let m = op.len();
            let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.23).cos()).collect();
            let observations = Observations::new(
                op,
                values,
                vec![0.1; m],
                PerturbedObservations::new(seed ^ 0xBEEF, nens),
            );
            for target in [target, full] {
                let expansion = target.expand(radius, mesh);
                let xb = states.select_rows(&full.local_indices_of(&expansion));
                let obs = observations.localize(&expansion);
                let xa = la.analyze(mesh, &target, &expansion, &xb, &obs).unwrap();
                for (i, p) in target.iter_points().enumerate() {
                    let own = RegionRect::new(p.ix, p.ix + 1, p.iy, p.iy + 1);
                    let boxr = own.expand(radius, mesh);
                    let xb_box = states.select_rows(&full.local_indices_of(&boxr));
                    let obs_box = observations.localize(&boxr);
                    let want = la.analyze(mesh, &own, &boxr, &xb_box, &obs_box).unwrap();
                    prop_assert_eq!(
                        bits(xa.row(i)),
                        bits(want.row(0)),
                        "network {} point {:?} of {:?}", kind, p, target
                    );
                }
            }
        }
    }
}
