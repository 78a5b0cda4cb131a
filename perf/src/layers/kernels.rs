//! `enkf-linalg` and `enkf-core`: the kernels under the local analysis, at
//! the shapes this workload's sub-domains actually produce, each beside its
//! reference arm measured in the same process.

use super::Ctx;
use crate::workload::Real;
use enkf_core::local::box_predecessors;
use enkf_core::{
    batched_transform, serial_enkf, BatchedKernel, LetkfAnalysis, LetkfWorkspace, LocalAnalysis,
    LocalObsIndex,
};
use enkf_grid::{Decomposition, RegionRect, SubDomainId};
use enkf_linalg::kernel::{convert, gemm, reference};
use enkf_linalg::{Cholesky, EigenWorkspace, Matrix, ModifiedCholesky, ShermanMorrisonWorkspace};
use std::hint::black_box;

/// Independent multiply-add chains held in registers: 64 accumulators are
/// 16 AVX2 vectors, enough to cover the FMA latency on two ports.
const CHAINS: usize = 64;
const CHAIN_STEPS: usize = 200_000;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn chains_fma(acc: &mut [f64; CHAINS]) {
    for _ in 0..CHAIN_STEPS {
        for x in acc.iter_mut() {
            *x = x.mul_add(1.000_000_1, 1e-9);
        }
    }
}

fn chains_portable(acc: &mut [f64; CHAINS]) {
    for _ in 0..CHAIN_STEPS {
        for x in acc.iter_mut() {
            *x = *x * 1.000_000_1 + 1e-9;
        }
    }
}

/// Single-thread floating-point peak of the widest ISA the kernel layer
/// dispatches to (AVX2 with FMA when the CPU has both), in GFLOP/s.
fn peak_gflops(ctx: &mut Ctx<'_>) -> f64 {
    let mut acc = [1.0f64; CHAINS];
    let budget = ctx.light();
    let seconds = ctx.time("linalg.peak_gflops", budget, || {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the two features `chains_fma` is compiled for were
            // detected on this CPU on the line above.
            unsafe { chains_fma(black_box(&mut acc)) };
            return;
        }
        chains_portable(black_box(&mut acc));
    });
    black_box(acc);
    (2 * CHAINS * CHAIN_STEPS) as f64 / seconds / 1e9
}

/// Sustainable memory bandwidth from an in-place scale of one array at
/// least four times the last-level cache (read + write per element).
/// Returns `(GB/s, array bytes)`.
fn mem_bw_gbps(ctx: &mut Ctx<'_>) -> (f64, usize) {
    const MIB: usize = 1 << 20;
    let bytes = if ctx.smoke {
        8 * MIB
    } else {
        (4 * crate::env::llc_bytes()).clamp(64 * MIB, 1536 * MIB)
    };
    let mut a = vec![1.0f64; bytes / 8];
    let budget = ctx.heavy();
    let seconds = ctx.time("linalg.mem_bw_gbps", budget, || {
        for x in a.iter_mut() {
            *x *= 1.000_000_1;
        }
        black_box(&mut a);
    });
    (2.0 * bytes as f64 / seconds / 1e9, bytes)
}

/// Returns the size of the array the bandwidth measurement streamed.
pub fn linalg(ctx: &mut Ctx<'_>, real: &Real) -> Result<usize, String> {
    let g = real.geometry;
    let mesh = g.mesh();
    let states = real.scenario.ensemble.states();
    let n = g.members;
    let decomp = Decomposition::new(mesh, 2, 1).map_err(|e| e.to_string())?;
    let m = decomp.points_per_subdomain();
    let err = |e: enkf_linalg::LinalgError| e.to_string();

    // GEMM at (one rank's points) × N × N, optimised and reference arms.
    let a = &states.as_slice()[..m * n];
    let b = &states.as_slice()[..n * n];
    let mut c = vec![0.0; m * n];
    let flops = 2.0 * (m * n * n) as f64;
    let budget = ctx.light();
    let fast = ctx.time("linalg.gemm_gflops", budget, || {
        c.fill(0.0);
        gemm::nn(black_box(a), black_box(b), &mut c, m, n, n);
    });
    let slow = ctx.time("linalg.gemm_ref_gflops", budget, || {
        c.fill(0.0);
        reference::nn(black_box(a), black_box(b), &mut c, m, n, n);
    });
    black_box(&c);
    let gemm_gflops = flops / fast / 1e9;
    ctx.set("linalg.gemm_gflops", gemm_gflops);
    ctx.set("linalg.gemm_ref_gflops", flops / slow / 1e9);
    let peak = peak_gflops(ctx);
    ctx.set("linalg.peak_gflops", peak);
    ctx.set("linalg.gemm_peak_frac", gemm_gflops / peak);
    let (bw, bw_bytes) = mem_bw_gbps(ctx);
    ctx.set("linalg.mem_bw_gbps", bw);

    // Eigensolve at the ensemble-space Gram size.
    let sub = decomp.subdomain(SubDomainId { i: 0, j: 0 });
    let mut u = real.scenario.ensemble.restrict(&sub);
    let means = u.row_means();
    u.subtract_row_vector(&means);
    let gram = u.tr_matmul(&u).map_err(err)?;
    let mut eigen = EigenWorkspace::new();
    ctx.time_s("linalg.eigen_s", budget, || {
        eigen
            .decompose(black_box(&gram))
            .expect("Gram matrix is symmetric");
    });

    // Modified Cholesky on one point's localization box.
    let centre = sub.point_at(sub.npoints() / 2);
    let boxr = RegionRect::new(centre.ix, centre.ix + 1, centre.iy, centre.iy + 1)
        .expand(g.radius(), mesh);
    let mut ub = real.scenario.ensemble.restrict(&boxr);
    let means = ub.row_means();
    ub.subtract_row_vector(&means);
    let mean_var =
        ub.as_slice().iter().map(|v| v * v).sum::<f64>() / ((n - 1) as f64 * boxr.npoints() as f64);
    let lambda = LocalAnalysis::DEFAULT_RIDGE * mean_var;
    ctx.time_s("linalg.modchol_s", budget, || {
        black_box(
            ModifiedCholesky::estimate(&ub, box_predecessors(&boxr, g.radius()), lambda)
                .expect("regularised regressions are solvable"),
        );
    });

    // The two C⁻¹ kernels of the batched update on this network's S and D.
    let (s, d) = observed_anomalies(real).map_err(err)?;
    let r = real.scenario.observations.error_var();
    let v = s.scale(1.0 / ((n - 1) as f64).sqrt());
    let mut cov = v.matmul_tr(&v).map_err(err)?;
    for (i, ri) in r.iter().enumerate() {
        cov[(i, i)] += ri;
    }
    ctx.time_s("linalg.chol_solve_s", budget, || {
        let factor = Cholesky::factor(black_box(&cov)).expect("C is positive definite");
        black_box(factor.solve(&d).expect("shapes agree"));
    });
    let mut sm = ShermanMorrisonWorkspace::new();
    ctx.time_s("linalg.sherman_s", budget, || {
        black_box(
            sm.solve(r, black_box(&v), &d)
                .expect("C is positive definite"),
        );
    });

    // Member decode: one member file's bytes to f64.
    let raw = std::fs::read(real.store.member_path(0)).map_err(|e| e.to_string())?;
    let mut decoded = Vec::new();
    let seconds = ctx.time("linalg.convert_gbps", budget, || {
        convert::le_bytes_to_f64_into(black_box(&raw), &mut decoded);
    });
    ctx.set("linalg.convert_gbps", raw.len() as f64 / seconds / 1e9);
    Ok(bw_bytes)
}

/// `S = H Xᵇ − mean` and `D = Yˢ − H Xᵇ` of the whole network, as the
/// batched update assembles them.
fn observed_anomalies(real: &Real) -> enkf_linalg::Result<(Matrix, Matrix)> {
    let obs = &real.scenario.observations;
    let hx = obs
        .operator()
        .apply_ensemble(real.scenario.ensemble.states());
    let mut s = hx.clone();
    let means = s.row_means();
    s.subtract_row_vector(&means);
    let mut d = obs.perturbed_matrix();
    d.axpy(-1.0, &hx)?;
    Ok((s, d))
}

pub fn core(ctx: &mut Ctx<'_>, real: &Real) -> Result<(), String> {
    let g = real.geometry;
    let mesh = g.mesh();
    let radius = g.radius();
    let obs = &real.scenario.observations;
    let decomp = Decomposition::new(mesh, 2, 1).map_err(|e| e.to_string())?;
    let id = SubDomainId { i: 0, j: 0 };
    let target = decomp.subdomain(id);
    let expansion = decomp.expansion(id, radius);
    let xb = real.scenario.ensemble.restrict(&expansion);
    let budget = ctx.light();
    let heavy = ctx.heavy();

    ctx.time_s("core.prepare_s", budget, || {
        obs.with_members(g.members).prepare();
    });
    ctx.time_us("core.localize_us", budget, || {
        black_box(obs.localize(black_box(&expansion)));
    });
    let local = obs.localize(&expansion);

    // One rank's sub-domain through the local analysis.
    let analysis = LocalAnalysis::new(radius);
    let seconds = ctx.time_s("core.local_analysis_s", heavy, || {
        black_box(
            analysis
                .analyze(mesh, &target, &expansion, &xb, &local)
                .expect("the executors run this same call"),
        );
    });
    ctx.set("core.points_per_s", target.npoints() as f64 / seconds);

    let letkf = LetkfAnalysis::new(radius);
    let index = LocalObsIndex::build(&local, &expansion, radius.xi.max(radius.eta).max(1));
    let mut ws = LetkfWorkspace::new();
    let mut row = vec![0.0; g.members];
    let p = target.point_at(target.npoints() / 2);
    ctx.time_us("core.letkf_point_us", budget, || {
        letkf
            .analyze_point_into(mesh, p, &expansion, &xb, &local, &index, &mut ws, &mut row)
            .expect("point lies inside the expansion");
    });

    let (s, d) = observed_anomalies(real).map_err(|e| e.to_string())?;
    ctx.time_s("core.batched_transform_s", budget, || {
        black_box(
            batched_transform(&s, &d, obs.error_var(), BatchedKernel::Cholesky)
                .expect("shapes agree"),
        );
    });

    // The plain serial run of the same problem: the base of every
    // `speedup_vs_serial`.
    ctx.time_s("core.serial_enkf_s", heavy, || {
        black_box(
            serial_enkf(&real.scenario.ensemble, obs, radius)
                .expect("set-up computed this same reference"),
        );
    });
    Ok(())
}
