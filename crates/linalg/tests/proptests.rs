//! Property-based tests for the linear-algebra kernels.

use enkf_linalg::kernel::{lanes, reference};
use enkf_linalg::{
    Cholesky, GaussianSampler, LinalgError, Matrix, ModifiedCholesky, ShermanMorrisonWorkspace,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random well-conditioned SPD matrix: A = M Mᵀ + (n+1)·I.
fn spd_strategy(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let m = Matrix::from_fn(n, n, |_, _| gs.sample(&mut rng));
        let mut a = m.matmul_tr(&m).unwrap().scale(1.0 / n as f64);
        for i in 0..n {
            a[(i, i)] += 1.0 + n as f64 * 0.1;
        }
        a
    })
}

fn matrix_strategy(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n, 1..=max_n, any::<u64>()).prop_map(|(r, c, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        Matrix::from_fn(r, c, |_, _| gs.sample(&mut rng))
    })
}

/// Random matrix with a sprinkling of exact zeros (to exercise the NN
/// kernel's pinned zero-skip branch). Dimensions may be zero.
fn sparse_matrix(r: usize, c: usize, rng: &mut StdRng, gs: &mut GaussianSampler) -> Matrix {
    Matrix::from_fn(r, c, |_, _| {
        if rng.gen::<f64>() < 0.15 {
            0.0
        } else {
            gs.sample(rng)
        }
    })
}

/// GEMM shape triples including degenerate 1×N, N×1 and fully empty
/// operands (any of m, k, n may be 0). The output dimensions occasionally
/// exceed `kernel::tiles::BASE` so the recursive split gets exercised
/// too.
fn gemm_shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    // Draws ≥ 34 are remapped past BASE so ~15% of cases recurse.
    let dim = || (0usize..=39).prop_map(|d| if d >= 34 { d + 95 } else { d });
    (dim(), 0usize..=21, dim(), any::<u64>())
}

/// Assert two equal-length f64 slices match bit-for-bit.
fn assert_bits(new: &[f64], old: &[f64]) -> std::result::Result<(), String> {
    prop_assert_eq!(new.len(), old.len());
    for (i, (a, b)) in new.iter().zip(old).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "element {} differs: {} vs {}",
            i,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_roundtrips(a in spd_strategy(12)) {
        let ch = Cholesky::factor(&a).unwrap();
        let back = ch.l().matmul_tr(ch.l()).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-8));
    }

    #[test]
    fn cholesky_solve_has_small_residual(a in spd_strategy(12), seed in any::<u64>()) {
        let n = a.nrows();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let b = gs.vec(&mut rng, n);
        let x = Cholesky::factor(&a).unwrap().solve_vec(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-7 * (1.0 + bi.abs()));
        }
    }

    #[test]
    fn transpose_is_involution(m in matrix_strategy(16)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_vector(m in matrix_strategy(10), seed in any::<u64>()) {
        // (A B) x == A (B x) for random conforming B, x.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let k = m.ncols();
        let b = Matrix::from_fn(k, 5, |_, _| gs.sample(&mut rng));
        let x = gs.vec(&mut rng, 5);
        let lhs = m.matmul(&b).unwrap().matvec(&x).unwrap();
        let rhs = m.matvec(&b.matvec(&x).unwrap()).unwrap();
        for (a, b) in lhs.iter().zip(&rhs) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn tr_matmul_agrees_with_naive(m in matrix_strategy(10), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let other = Matrix::from_fn(m.nrows(), 4, |_, _| gs.sample(&mut rng));
        let fast = m.tr_matmul(&other).unwrap();
        let slow = m.transpose().matmul(&other).unwrap();
        prop_assert!(fast.approx_eq(&slow, 1e-10));
    }

    #[test]
    fn modified_cholesky_inverse_is_spd(n in 2usize..10, nens in 4usize..24, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let mut u = Matrix::from_fn(n, nens, |_, _| gs.sample(&mut rng));
        let means = u.row_means();
        u.subtract_row_vector(&means);
        let mc = ModifiedCholesky::estimate(&u, |i| (i.saturating_sub(3)..i).collect(), 1e-4).unwrap();
        let binv = mc.inverse_covariance();
        prop_assert!(Cholesky::factor(&binv).is_ok());
    }

    #[test]
    fn modified_cholesky_apply_matches_dense(n in 2usize..9, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let u = Matrix::from_fn(n, 12, |_, _| gs.sample(&mut rng));
        let mc = ModifiedCholesky::estimate(&u, |i| (i.saturating_sub(2)..i).collect(), 1e-5).unwrap();
        let x = gs.vec(&mut rng, n);
        let fast = mc.apply_inverse(&x).unwrap();
        let slow = mc.inverse_covariance().matvec(&x).unwrap();
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-8 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn row_means_invariant_under_anomaly_subtraction(m in matrix_strategy(12)) {
        let mut anomalies = m.clone();
        let means = anomalies.row_means();
        anomalies.subtract_row_vector(&means);
        for mean in anomalies.row_means() {
            prop_assert!(mean.abs() < 1e-10);
        }
    }
}

// The two C⁻¹ kernels of the batched (D-EnKF) analysis: the iterative
// Sherman-Morrison solve against factored references, across conditioning
// regimes. The first property solves the *same* matrix both ways, so the
// agreement is tight and only degrades with the condition number; the
// second compares SM against the modified-Cholesky inverse-covariance
// estimate, whose ridge enters through per-component regressions rather
// than a diagonal shift — an O(κ · ridge) modeling difference the
// tolerance makes explicit.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sherman_morrison_matches_cholesky_across_conditioning(
        m in 1usize..=12,
        n in 1usize..=8,
        nrhs in 1usize..=4,
        // Per-element R magnitudes drawn from 6 decades: mixing 1e-3 and
        // 1e3 variances in one diagonal is what stresses the rank-1 sweep.
        rexp in proptest::collection::vec(-3i32..=3, 12),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let r: Vec<f64> = (0..m).map(|i| 10f64.powi(rexp[i])).collect();
        let v = Matrix::from_fn(m, n, |_, _| gs.sample(&mut rng));
        let b = Matrix::from_fn(m, nrhs, |_, _| gs.sample(&mut rng));

        let mut c = v.matmul_tr(&v).unwrap();
        for (i, &ri) in r.iter().enumerate() {
            c[(i, i)] += ri;
        }
        c.symmetrize();
        let ch = Cholesky::factor(&c).unwrap();
        let oracle = ch.solve(&b).unwrap();

        let mut ws = ShermanMorrisonWorkspace::new();
        let z = ws.solve(&r, &v, &b).unwrap();

        // κ proxy from the factor diagonal: cond(C) ≈ (max lᵢᵢ / min lᵢᵢ)².
        let diag: Vec<f64> = (0..m).map(|i| ch.l()[(i, i)]).collect();
        let dmax = diag.iter().cloned().fold(f64::MIN, f64::max);
        let dmin = diag.iter().cloned().fold(f64::MAX, f64::min);
        let kappa = (dmax / dmin).powi(2);
        let xmax = oracle.max_abs();
        let tol = 1e-12 * kappa * (1.0 + xmax);
        for i in 0..m {
            for j in 0..nrhs {
                prop_assert!(
                    (z[(i, j)] - oracle[(i, j)]).abs() <= tol,
                    "({i},{j}): sm {} vs chol {} exceeds tol {tol:.3e} (κ ≈ {kappa:.3e})",
                    z[(i, j)],
                    oracle[(i, j)]
                );
            }
        }
    }

    #[test]
    fn sherman_morrison_agrees_with_modified_cholesky_inverse_covariance(
        n in 2usize..=7,
        extra in 6usize..=18,
        scale_exp in -2i32..=2,
        ridge_exp in -9i32..=-5,
        seed in any::<u64>(),
    ) {
        // Full-rank regime (N − 1 ≥ n + 5) with full predecessor sets: the
        // modified Cholesky is an exact LDL of the sample covariance up to
        // its regression ridge, so both kernels estimate the same B⁻¹.
        let nens = n + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let scale = 10f64.powi(scale_exp);
        let mut u = Matrix::from_fn(n, nens, |_, _| scale * gs.sample(&mut rng));
        let means = u.row_means();
        u.subtract_row_vector(&means);
        let denom = (nens - 1) as f64;
        let mean_var = u.as_slice().iter().map(|&x| x * x).sum::<f64>() / (denom * n as f64);
        let ridge_rel = 10f64.powi(ridge_exp);
        let lambda = ridge_rel * mean_var;

        let mc = ModifiedCholesky::estimate(&u, |i| (0..i).collect(), lambda).unwrap();
        let y = gs.vec(&mut rng, n);
        let x_mc = mc.inverse_covariance().matvec(&y).unwrap();

        // SM solves (λI + U Uᵀ/(N−1)) x = y — the diagonal-shift form of
        // the same ridge-regularized inverse.
        let v = u.scale(1.0 / denom.sqrt());
        let yb = Matrix::from_vec(n, 1, y.clone()).unwrap();
        let mut ws = ShermanMorrisonWorkspace::new();
        let x_sm = ws.solve(&vec![lambda; n], &v, &yb).unwrap();

        let mut c = v.matmul_tr(&v).unwrap();
        for i in 0..n {
            c[(i, i)] += lambda;
        }
        c.symmetrize();
        let ch = Cholesky::factor(&c).unwrap();
        let diag: Vec<f64> = (0..n).map(|i| ch.l()[(i, i)]).collect();
        let dmax = diag.iter().cloned().fold(f64::MIN, f64::max);
        let dmin = diag.iter().cloned().fold(f64::MAX, f64::min);
        let kappa = (dmax / dmin).powi(2);
        let xmax = x_mc.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
        // Roundoff term plus the ridge-placement modeling difference
        // (per-regression ridge vs diagonal shift differ by O(κ · ridge)
        // with a modest constant), both amplified by the conditioning.
        let tol = kappa * (1e-10 + 300.0 * ridge_rel) * (1.0 + xmax);
        for i in 0..n {
            prop_assert!(
                (x_sm[(i, 0)] - x_mc[i]).abs() <= tol,
                "component {i}: sm {} vs modchol {} exceeds tol {tol:.3e} (κ ≈ {kappa:.3e})",
                x_sm[(i, 0)],
                x_mc[i]
            );
        }
    }
}

// Bit-identity of the kernel layer against the pre-refactor blocked loops
// (`kernel::reference`), across rectangular, degenerate and empty shapes,
// split ones included. Under default features every element must match
// to the last bit; these properties are what lets the rest of the codebase
// treat the GEMM rewrite as a pure perf change.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_nn_bit_identical_to_reference((m, k, n, seed) in gemm_shape()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let a = sparse_matrix(m, k, &mut rng, &mut gs);
        let b = sparse_matrix(k, n, &mut rng, &mut gs);
        let mut oracle = vec![0.0; m * n];
        reference::nn(a.as_slice(), b.as_slice(), &mut oracle, m, k, n);
        let fast = a.matmul(&b).unwrap();
        assert_bits(fast.as_slice(), &oracle)?;
    }

    #[test]
    fn gemm_tn_bit_identical_to_reference((m, k, n, seed) in gemm_shape()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let a = sparse_matrix(k, m, &mut rng, &mut gs);
        let b = sparse_matrix(k, n, &mut rng, &mut gs);
        let mut oracle = vec![0.0; m * n];
        reference::tn(a.as_slice(), b.as_slice(), &mut oracle, m, k, n);
        let fast = a.tr_matmul(&b).unwrap();
        assert_bits(fast.as_slice(), &oracle)?;
    }

    #[test]
    fn gemm_nt_bit_identical_to_reference((m, k, n, seed) in gemm_shape()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let a = sparse_matrix(m, k, &mut rng, &mut gs);
        let b = sparse_matrix(n, k, &mut rng, &mut gs);
        let mut oracle = vec![0.0; m * n];
        reference::nt(a.as_slice(), b.as_slice(), &mut oracle, m, k, n);
        let fast = a.matmul_tr(&b).unwrap();
        assert_bits(fast.as_slice(), &oracle)?;
    }

    #[test]
    fn matvec_bit_identical_to_reference(
        m in 0usize..=40, k in 0usize..=40, seed in any::<u64>()
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let a = sparse_matrix(m, k, &mut rng, &mut gs);
        let x: Vec<f64> = (0..k).map(|_| gs.sample(&mut rng)).collect();
        let mut oracle = Vec::new();
        reference::matvec(a.as_slice(), &x, &mut oracle, m, k);
        let fast = a.matvec(&x).unwrap();
        assert_bits(&fast, &oracle)?;
    }
}

// The width-4 lane kernels against width 1 (`Cholesky::{factor,
// solve_vec}`, itself held to the textbook loops in `chol.rs`), lane by
// lane. This runs under default features (the AVX2 instance on an AVX2
// host) and under `--no-default-features` (the baseline instance): both
// must give the same bits.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lane_factor_and_solve_match_cholesky_bitwise(
        size in 0usize..5,
        seed in any::<u64>(),
        // Lane to break (none when ≥ 4) and the pivot that goes negative.
        bad_lane in 0usize..6,
        bad_pivot in any::<usize>(),
    ) {
        let n = [1usize, 2, 5, 24, 49][size];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let mats: Vec<Matrix> = (0..4)
            .map(|l| {
                let m = Matrix::from_fn(n, n, |_, _| gs.sample(&mut rng));
                let mut a = m.matmul_tr(&m).unwrap().scale(1.0 / n as f64);
                for i in 0..n {
                    a[(i, i)] += 0.1 + rng.gen::<f64>();
                }
                if l == bad_lane {
                    let k = bad_pivot % n;
                    a[(k, k)] = -1.0;
                }
                a
            })
            .collect();
        let b: Vec<[f64; 4]> = (0..n).map(|_| std::array::from_fn(|_| gs.sample(&mut rng))).collect();
        let mut packed: Vec<[f64; 4]> = Vec::new();
        for i in 0..n {
            packed.extend((0..=i).map(|j| std::array::from_fn(|l| mats[l][(i, j)])));
        }
        let mut x = b.clone();
        let bad = lanes::factor_lanes(&mut packed, n, &mut Vec::new());
        lanes::solve_lanes(&packed, n, &mut x);
        for (l, a) in mats.iter().enumerate() {
            match Cholesky::factor(a) {
                Err(LinalgError::NotPositiveDefinite(j)) => {
                    prop_assert_eq!(l, bad_lane);
                    prop_assert_eq!(bad[l], Some(j));
                }
                Err(e) => return Err(format!("lane {l}: {e}")),
                Ok(ch) => {
                    prop_assert_eq!(bad[l], None);
                    let lane: Vec<f64> = (0..n)
                        .flat_map(|i| (0..=i).map(move |j| (i, j)))
                        .map(|(i, j)| packed[lanes::tri(i) + j][l])
                        .collect();
                    let want: Vec<f64> = (0..n)
                        .flat_map(|i| ch.l().row(i)[..=i].to_vec())
                        .collect();
                    assert_bits(&lane, &want)?;
                    let got: Vec<f64> = x.iter().map(|v| v[l]).collect();
                    let want = ch.solve_vec(&b.iter().map(|v| v[l]).collect::<Vec<_>>()).unwrap();
                    assert_bits(&got, &want)?;
                }
            }
        }
    }
}
