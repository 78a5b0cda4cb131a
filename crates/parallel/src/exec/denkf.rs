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
//!
//! All of that is the [`ModelVariant::DEnkf`](crate::ModelVariant::DEnkf)
//! program — the exchanged blocks are `Payload::Observed` sends, the
//! transform a batched `Compute` — which [`run_cycle`] executes like any
//! other, with this struct's kernel beside it. In the trace a rank has one
//! read span per member bar, one send span per peer and one compute span.

use crate::campaign::CampaignExecutor;
use crate::exec::run_cycle;
use crate::exec::setup::AssimilationSetup;
use crate::report::ExecutionReport;
use enkf_core::{BatchedKernel, Ensemble, Result};
use enkf_fault::FaultConfig;
use enkf_health::HealthMonitor;
use enkf_trace::Trace;

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
    /// [`run_cycle`] on the D-EnKF program with this kernel: the
    /// assimilation under a fault plan and, optionally, online health
    /// monitoring.
    pub fn run_adaptive(
        &self,
        setup: &AssimilationSetup<'_>,
        cfg: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        let (shards, kernel) = (self.shards, self.kernel);
        run_cycle(
            setup,
            CampaignExecutor::DEnkf { shards, kernel },
            cfg,
            monitor,
        )
    }
}
ladder!(DEnkf);

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
    fn run_cycle_executes_denkf_with_the_executors_kernel() {
        // One entry point for every executor: D-EnKF's program runs through
        // the interpreter, its kernel carried by the `CampaignExecutor`.
        let mesh = Mesh::new(12, 8);
        let (_s, store, scenario) = harness(mesh, 6, 5);
        let st = setup(&store, &scenario, 6);
        for kernel in [BatchedKernel::Cholesky, BatchedKernel::ShermanMorrison] {
            let exec = CampaignExecutor::DEnkf { shards: 2, kernel };
            let (analysis, report, trace) =
                run_cycle(&st, exec, &FaultConfig::none(), None).unwrap();
            let reference =
                serial_denkf(&scenario.ensemble, &scenario.observations, kernel).unwrap();
            assert!(analysis.states().approx_eq(reference.states(), 1e-12));
            assert_eq!(report.num_compute_ranks, 2);
            assert_eq!(trace.label(), "denkf-real");
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
