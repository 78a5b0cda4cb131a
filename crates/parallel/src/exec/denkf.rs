//! D-EnKF: the distributed-array non-sequential executor (real backend).
//!
//! The three sequential executors localize: each rank assimilates only the
//! observations near its sub-domain, point by point. D-EnKF instead shards
//! the **state** across ranks as full-width latitude bars (a distributed
//! array over the store's native bar layout — one disk addressing operation
//! per member per rank) and assimilates the **whole** observation network in
//! one batched covariance-form update (arXiv 2311.12909):
//!
//! * Rank `s` of `shards` owns bar `s`; it reads its bar of every member
//!   file and forms the shard's observed rows `S_loc = H_loc U`,
//!   `D_loc = Yˢ_loc − H_loc Xᵇ` — observation-space data, `m_loc × N`,
//!   *independent of the state dimension*.
//! * Ranks all-to-all exchange these small observation blocks (never state
//!   rows), so every rank assembles the identical global `S`, `D`.
//! * Every rank computes the same `N × N` transform
//!   `T = Sᵀ (S Sᵀ/(N−1) + R)⁻¹ D/(N−1)` — with a dense Cholesky or the
//!   inversion-free iterative Sherman-Morrison kernel
//!   ([`enkf_core::BatchedKernel`]) — and applies `Xᵃ = Xᵇ + U_shard T`
//!   to its own rows only.
//!
//! Because the kernel GEMM accumulates over `k` in a fixed order regardless
//! of output shape, `U_shard T` rows are bit-identical to the same rows of
//! the one-shard product: shard-count invariance is exact.

use crate::exec::setup::AssimilationSetup;
use crate::exec::{foreign_msg, Cycle, Msg};
use crate::program::{CycleOp, ModelVariant, Payload};
use crate::report::ExecutionReport;
use enkf_core::{batched_transform, BatchedKernel, Ensemble, Result};
use enkf_data::region_to_matrix;
use enkf_fault::{FaultConfig, SubstrateError};
use enkf_health::HealthMonitor;
use enkf_linalg::Matrix;
use enkf_pfs::RegionData;
use enkf_trace::Trace;
use std::collections::BTreeMap;

/// The D-EnKF variant: `shards` ranks, each owning one full-width bar of
/// the state, one non-sequential batched analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DEnkf {
    /// State shards (= ranks); must divide the mesh height.
    pub shards: usize,
    /// Kernel applying `C⁻¹` in the batched transform.
    pub kernel: BatchedKernel,
}

impl DEnkf {
    /// Run the assimilation under a fault plan and, optionally, online
    /// health monitoring. The trace holds, per rank, one read span per
    /// member bar (single-seek, full-width), one send span per peer (the
    /// observation block) and one compute span (the batched transform plus
    /// the shard update).
    ///
    /// Under a seeded plan, bar reads retry with backoff, unrecoverable
    /// members are dropped when `cfg.degraded` is set (every rank shrinks
    /// `S`/`D` to the survivors — the N−1 path), stragglers dilate compute,
    /// message delays stall the exchange, and crashes or message drops
    /// switch receives to a timeout surfacing
    /// [`enkf_fault::SubstrateError::RecvTimeout`]; a rank whose peers all
    /// exited gets the typed [`enkf_fault::SubstrateError::PeerExited`]
    /// instead of a channel panic.
    ///
    /// With a monitor, each shard reads members whose OST is blacklisted
    /// last and every bar read consults the monitor's frozen view, so a
    /// degraded OST triggers a speculative duplicate read against its
    /// replica; bars are collected keyed by member and re-assembled
    /// ascending, so the reorder never reaches the numerics. Observed
    /// dilation ratios feed the monitor; the caller folds them with
    /// [`HealthMonitor::end_cycle`].
    pub fn run_adaptive(
        &self,
        setup: &AssimilationSetup<'_>,
        cfg: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        let variant = ModelVariant::DEnkf {
            shards: self.shards,
        };
        let kernel = self.kernel;
        Cycle::run(setup, &variant, cfg, monitor, |cycle, mut ctx, tracer| {
            let rank = ctx.rank();
            cycle.check_crash(rank)?;
            let size = ctx.size();
            let peers = || (0..size).filter(move |&peer| peer != rank);
            let mut ops = cycle.ops(rank).iter().copied().peekable();

            // Phase 1: read this shard's bar of every member file — a
            // full-width band, one contiguous segment, one disk addressing
            // operation per member (§4.1.2's bar argument, here applied to
            // the analysis decomposition itself).
            let mut by_member: BTreeMap<usize, RegionData> = BTreeMap::new();
            let mut bar = None;
            while let Some(CycleOp::Read {
                stage,
                member,
                region,
            }) = ops.next_if(|op| matches!(op, CycleOp::Read { .. }))
            {
                bar = Some(region);
                match cycle.read(tracer, stage, member, &region) {
                    Ok(Some(data)) => {
                        by_member.insert(member, data);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        // Peers count on this shard's block.
                        cycle.abort(&ctx, peers(), &format!("read failed: {e}"));
                        return Err(e.into());
                    }
                }
            }
            let Some(bar) = bar else {
                return Ok(Vec::new());
            };
            let per_member: Vec<RegionData> = by_member.into_values().collect();
            let xb = region_to_matrix(&bar, &per_member);
            let n_alive = cycle.alive.len();

            // Local observation rows of this bar. `localize` and
            // `indices_in` enumerate the same ascending global order,
            // so `global_rows[r]` is the global index of local row `r`.
            let mut obs = setup.observations.localize(&bar);
            if !cycle.dropped.is_empty() {
                obs = obs.select_members(&cycle.alive);
            }
            let global_rows = setup.observations.operator().network().indices_in(&bar);
            let m_loc = obs.len();
            if global_rows.len() != m_loc {
                return Err(SubstrateError::HelperFailed {
                    rank,
                    detail: format!(
                        "bar {bar:?} localizes {m_loc} observations but indexes {}",
                        global_rows.len()
                    ),
                }
                .into());
            }

            // S_loc = H_loc Xᵇ − row means, D_loc = Yˢ_loc − H_loc Xᵇ.
            // Row means only mix within a row, so both are shard-local.
            let mut s_loc = Matrix::zeros(m_loc, n_alive);
            let mut d_loc = Matrix::zeros(m_loc, n_alive);
            for r in 0..m_loc {
                let hx = xb.row(obs.local_rows[r]);
                let mean = hx.iter().sum::<f64>() / n_alive as f64;
                let yp = obs.perturbed.row(r);
                for c in 0..n_alive {
                    s_loc[(r, c)] = hx[c] - mean;
                    d_loc[(r, c)] = yp[c] - hx[c];
                }
            }

            // The global S and D: own rows plus one block from every peer.
            // Bars partition the mesh, so the blocks cover every
            // observation row exactly once.
            let m_total = setup.observations.len();
            let mut s_glob = Matrix::zeros(m_total, n_alive);
            let mut d_glob = Matrix::zeros(m_total, n_alive);
            place_rows(&mut s_glob, &mut d_glob, &global_rows, &s_loc, &d_loc);

            let mut analyzed = Vec::new();
            for op in ops {
                match op {
                    // Phase 2: all-to-all exchange of the observation
                    // blocks (never state rows — the payload is m_loc × N,
                    // independent of the shard's state size).
                    CycleOp::Send {
                        stage,
                        to,
                        payload: Payload::Bytes(bytes),
                    } => cycle.send(tracer, &ctx, stage, to, bytes, || Msg::ObsBlock {
                        rows: global_rows.clone(),
                        s: s_loc.clone(),
                        d: d_loc.clone(),
                    }),
                    CycleOp::Await { stage, sends } => {
                        let received =
                            cycle.receive(tracer, &mut ctx, stage, sends, |msg| match msg {
                                Msg::ObsBlock { rows, s, d } => {
                                    place_rows(&mut s_glob, &mut d_glob, &rows, &s, &d);
                                    Ok(())
                                }
                                _ => Err(foreign_msg(rank)),
                            });
                        if let Err(e) = received {
                            // Peers already have our block, but an abort
                            // must not strand anyone mid-collective on a
                            // *different* failure path.
                            cycle.abort(&ctx, peers(), &e.to_string());
                            return Err(e);
                        }
                    }
                    // Phase 3: the batched transform (identical on every
                    // rank) and the shard-local update Xᵃ = Xᵇ + U_shard T.
                    CycleOp::Compute { stage, target, .. } => {
                        let dilation = cycle.dilation(rank);
                        let r_var = setup.observations.error_var();
                        let xa = cycle.compute(tracer, stage, dilation, || {
                            let t = batched_transform(&s_glob, &d_glob, r_var, kernel)?;
                            let mut u = xb.clone();
                            let means = u.row_means();
                            u.subtract_row_vector(&means);
                            let mut xa = xb.clone();
                            xa.axpy(1.0, &u.matmul(&t)?)?;
                            Ok::<_, enkf_core::EnkfError>(xa)
                        })?;
                        analyzed.push((target, xa));
                    }
                    op => return Err(cycle.foreign_op(rank, op)),
                }
            }
            Ok(analyzed)
        })
    }
}

ladder!(DEnkf);

/// Copy one shard's rows of `S` and `D` to their global row indices.
fn place_rows(s_glob: &mut Matrix, d_glob: &mut Matrix, rows: &[usize], s: &Matrix, d: &Matrix) {
    for (r, &g) in rows.iter().enumerate() {
        s_glob.row_mut(g).copy_from_slice(s.row(r));
        d_glob.row_mut(g).copy_from_slice(d.row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_core::{serial_denkf, LocalAnalysis};
    use enkf_data::{write_ensemble, ScenarioBuilder};
    use enkf_grid::{FileLayout, LocalizationRadius, Mesh};
    use enkf_pfs::{FileStore, ScratchDir};

    fn harness(
        mesh: Mesh,
        members: usize,
        seed: u64,
    ) -> (ScratchDir, FileStore, enkf_data::Scenario) {
        let scenario = ScenarioBuilder::new(mesh)
            .members(members)
            .seed(seed)
            .build();
        let scratch = ScratchDir::new("denkf").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        (scratch, store, scenario)
    }

    fn setup<'a>(
        store: &'a FileStore,
        scenario: &'a enkf_data::Scenario,
        members: usize,
    ) -> AssimilationSetup<'a> {
        AssimilationSetup {
            store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
        }
    }

    #[test]
    fn matches_serial_batched_reference_exactly() {
        let mesh = Mesh::new(12, 8);
        let (_s, store, scenario) = harness(mesh, 6, 3);
        let st = setup(&store, &scenario, 6);
        for kernel in [BatchedKernel::Cholesky, BatchedKernel::ShermanMorrison] {
            let (analysis, report) = DEnkf { shards: 4, kernel }.run(&st).unwrap();
            let reference =
                serial_denkf(&scenario.ensemble, &scenario.observations, kernel).unwrap();
            assert!(
                analysis.states().approx_eq(reference.states(), 1e-12),
                "D-EnKF ({kernel:?}) must equal the serial batched reference"
            );
            assert_eq!(report.num_compute_ranks, 4);
            assert!(report.compute_ranks.read > 0.0);
            assert!(report.compute_ranks.comm > 0.0, "exchange must be traced");
            assert!(report.compute_ranks.compute > 0.0);
        }
    }

    #[test]
    fn shard_count_invariance_is_bitwise() {
        // The kernel GEMM accumulates over k in a fixed order regardless of
        // output shape, so resharding must not change a single bit.
        let mesh = Mesh::new(10, 12);
        let (_s, store, scenario) = harness(mesh, 8, 17);
        let st = setup(&store, &scenario, 8);
        let kernel = BatchedKernel::ShermanMorrison;
        let (one, _) = DEnkf { shards: 1, kernel }.run(&st).unwrap();
        for shards in [2, 3, 4, 6, 12] {
            let (sharded, _) = DEnkf { shards, kernel }.run(&st).unwrap();
            assert_eq!(
                sharded.states().as_slice(),
                one.states().as_slice(),
                "{shards} shards must be bit-identical to 1 shard"
            );
        }
    }

    #[test]
    fn invalid_shard_count_is_rejected() {
        let mesh = Mesh::new(12, 8);
        let (_s, store, scenario) = harness(mesh, 4, 1);
        let st = setup(&store, &scenario, 4);
        assert!(DEnkf {
            shards: 5,
            kernel: BatchedKernel::Cholesky
        }
        .run(&st)
        .is_err());
    }
}
