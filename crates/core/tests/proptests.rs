//! Property-based tests of the analysis kernels' invariants.

use enkf_core::local::box_predecessors;
use enkf_core::{
    serial_enkf, serial_enkf_decomposed, serial_letkf, AnalysisGranularity, LetkfAnalysis,
    LocalAnalysis, LocalObservations, ObservationOperator, Observations, PerturbedObservations,
};
use enkf_grid::{
    Decomposition, GridPoint, LocalizationRadius, Mesh, ObservationNetwork, RegionRect,
};
use enkf_linalg::{ridge_least_squares, Cholesky, GaussianSampler, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
struct Problem {
    ensemble: enkf_core::Ensemble,
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
            let ensemble = enkf_core::Ensemble::new(mesh, states);
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

/// The blocked analysis on `target` as it was: `δX = A⁻¹ Z` column by
/// column over the whole expansion.
fn oracle_region(
    la: &LocalAnalysis,
    target: &RegionRect,
    expansion: &RegionRect,
    xb: &Matrix,
    obs: &LocalObservations,
) -> Matrix {
    let target_rows = expansion.local_indices_of(target);
    if obs.is_empty() {
        return xb.select_rows(&target_rows);
    }
    let a = oracle_system(la, expansion, xb, obs);
    let mut z = Matrix::zeros(xb.nrows(), xb.ncols());
    for (r, &row) in obs.local_rows.iter().enumerate() {
        let inv_var = 1.0 / obs.error_var[r];
        for k in 0..xb.ncols() {
            z[(row, k)] += inv_var * (obs.perturbed[(r, k)] - xb[(row, k)]);
        }
    }
    let delta = Cholesky::factor(&a).unwrap().solve(&z).unwrap();
    let mut xa = xb.clone();
    xa.axpy(1.0, &delta).unwrap();
    xa.select_rows(&target_rows)
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

                let pointwise = LocalAnalysis::new(radius);
                let xa = pointwise.analyze(mesh, &target, &expansion, &xb, &obs).unwrap();
                for (i, gp) in target.iter_points().enumerate() {
                    let want = oracle_point(&pointwise, mesh, gp, &expansion, &xb, &obs);
                    prop_assert_eq!(bits(xa.row(i)), bits(&want), "point {:?} of {:?}", gp, target);
                }

                let blocked = LocalAnalysis::blocked(radius);
                let xa = blocked.analyze(mesh, &target, &expansion, &xb, &obs).unwrap();
                let want = oracle_region(&blocked, &target, &expansion, &xb, &obs);
                prop_assert_eq!(bits(xa.as_slice()), bits(want.as_slice()), "region {:?}", target);
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
        let got =
            serial_enkf_decomposed(&p.ensemble, &p.observations, LocalAnalysis::new(p.radius), &d)
                .unwrap();
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
        let analysis = serial_letkf(&p.ensemble, &p.observations, p.radius).unwrap();
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
        // Before/after bit-identity for the workspace rewrite: the batched
        // point-wise driver must reproduce, bit for bit, the old
        // implementation's path — one Region-granularity solve per grid
        // point's local box.
        let mesh = p.ensemble.mesh();
        let full = RegionRect::full(mesh);
        let obs = p.observations.localize(&full);
        let pointwise = LetkfAnalysis::new(p.radius);
        let xa = pointwise
            .analyze(mesh, &full, &full, p.ensemble.states(), &obs)
            .unwrap();
        let blocked = LetkfAnalysis {
            granularity: AnalysisGranularity::Region,
            ..pointwise
        };
        for gp in full.iter_points() {
            let single = RegionRect::new(gp.ix, gp.ix + 1, gp.iy, gp.iy + 1);
            let boxr = single.expand(p.radius, mesh);
            let box_rows = full.local_indices_of(&boxr);
            let xb_box = p.ensemble.states().select_rows(&box_rows);
            let obs_box = obs.sub_localize(&full, &boxr);
            let row = blocked
                .analyze(mesh, &single, &boxr, &xb_box, &obs_box)
                .unwrap();
            prop_assert_eq!(
                xa.row(full.local_index(gp)),
                row.row(0),
                "point {:?} diverged from the per-point kernel", gp
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
