//! P-EnKF: the block-reading state-of-the-art baseline (real executor).
//!
//! Every rank owns one sub-domain. For each of the `N` member files, it
//! reads its expansion block directly from the parallel file system
//! (Fig. 3: `O(height)` disk addressing operations per block because a
//! partial-width region is one segment per latitude row). Only after **all**
//! members are on-rank does the local analysis start — the strict
//! read-then-compute workflow of Fig. 4 whose lack of overlap the paper
//! attacks.

use crate::exec::setup::AssimilationSetup;
use crate::exec::Cycle;
use crate::program::{CycleOp, ModelVariant};
use crate::report::ExecutionReport;
use enkf_core::{Ensemble, Result};
use enkf_data::region_to_matrix;
use enkf_fault::{FaultConfig, FaultLog};
use enkf_health::HealthMonitor;
use enkf_pfs::RegionData;
use enkf_trace::Trace;
use std::collections::BTreeMap;

/// The P-EnKF variant: `n_sdx × n_sdy` ranks, block reading, sequential
/// phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PEnkf {
    /// Sub-domains (= ranks) along longitude.
    pub nsdx: usize,
    /// Sub-domains (= ranks) along latitude.
    pub nsdy: usize,
}

impl PEnkf {
    /// Run the assimilation; returns the analysis ensemble and the phase
    /// timings.
    pub fn run(&self, setup: &AssimilationSetup<'_>) -> Result<(Ensemble, ExecutionReport)> {
        self.run_traced(setup)
            .map(|(analysis, report, _)| (analysis, report))
    }

    /// [`PEnkf::run`], additionally returning the execution trace: one read
    /// span per member block (bytes/seeks from the file layout, matching
    /// what the DES model charges) and one compute span per rank. The
    /// report's `PhaseBreakdown` is the per-rank projection of these spans.
    pub fn run_traced(
        &self,
        setup: &AssimilationSetup<'_>,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        self.run_faulted(setup, &FaultConfig::none())
            .map(|(analysis, report, trace, _)| (analysis, report, trace))
    }

    /// [`PEnkf::run_traced`] under a fault plan. With `FaultConfig::none()`
    /// this is behaviourally identical to `run_traced` (byte-identical
    /// trace digests); under a seeded plan, reads retry with backoff,
    /// unrecoverable members are dropped when `cfg.degraded` is set (the
    /// cycle completes on the survivors), stragglers dilate compute, and
    /// every injected fault lands in the returned [`FaultLog`].
    pub fn run_faulted(
        &self,
        setup: &AssimilationSetup<'_>,
        cfg: &FaultConfig,
    ) -> Result<(Ensemble, ExecutionReport, Trace, FaultLog)> {
        self.run_adaptive(setup, cfg, None)
    }

    /// [`PEnkf::run_faulted`] with online health monitoring. When a
    /// [`HealthMonitor`] is supplied, the program reads members on
    /// blacklisted OSTs last and every read consults the monitor's frozen
    /// [`RouteView`](enkf_health::RouteView), so a degraded OST triggers a
    /// speculative duplicate read against its replica. Observed
    /// read-dilation and compute-dilation ratios are fed back into the
    /// monitor; the caller folds them at the cycle boundary with
    /// [`HealthMonitor::end_cycle`]. With `monitor: None` this is
    /// byte-identical to [`PEnkf::run_faulted`].
    pub fn run_adaptive(
        &self,
        setup: &AssimilationSetup<'_>,
        cfg: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace, FaultLog)> {
        let variant = ModelVariant::PEnkf {
            nsdx: self.nsdx,
            nsdy: self.nsdy,
        };
        Cycle::run(setup, variant, cfg, monitor, |cycle, ctx, tracer| {
            let rank = ctx.rank();
            cycle.check_crash(rank)?;
            // Blocks are collected keyed by member and re-assembled
            // ascending, so a health-aware read order never reaches the
            // numerics.
            let mut by_member: BTreeMap<usize, RegionData> = BTreeMap::new();
            let mut analyzed = Vec::new();
            for &op in cycle.ops(rank) {
                match op {
                    CycleOp::Read {
                        stage,
                        member,
                        region,
                    } => {
                        if let Some(block) = cycle.read(tracer, stage, member, &region)? {
                            by_member.insert(member, block);
                        }
                    }
                    CycleOp::Compute {
                        stage,
                        target,
                        expansion,
                        ..
                    } => {
                        let per_member: Vec<RegionData> =
                            std::mem::take(&mut by_member).into_values().collect();
                        let dilation = cycle.dilation(rank);
                        let xa =
                            cycle.analyze(tracer, stage, dilation, &target, &expansion, || {
                                region_to_matrix(&expansion, &per_member)
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

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_core::{serial_enkf, LocalAnalysis};
    use enkf_data::{write_ensemble, ScenarioBuilder};
    use enkf_grid::{FileLayout, LocalizationRadius, Mesh};
    use enkf_pfs::{FileStore, ScratchDir};

    fn setup_files(
        mesh: Mesh,
        members: usize,
        seed: u64,
    ) -> (ScratchDir, FileStore, enkf_data::Scenario) {
        let scenario = ScenarioBuilder::new(mesh)
            .members(members)
            .seed(seed)
            .build();
        let scratch = ScratchDir::new("penkf").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        (scratch, store, scenario)
    }

    #[test]
    fn matches_serial_reference_exactly() {
        let mesh = Mesh::new(12, 8);
        let (_s, store, scenario) = setup_files(mesh, 6, 3);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members: 6,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let (analysis, report) = PEnkf { nsdx: 3, nsdy: 2 }.run(&setup).unwrap();
        let reference = serial_enkf(&scenario.ensemble, &scenario.observations, radius).unwrap();
        assert!(
            analysis.states().approx_eq(reference.states(), 1e-12),
            "P-EnKF must equal the serial point-wise reference"
        );
        assert_eq!(report.num_compute_ranks, 6);
        assert!(report.compute_ranks.read > 0.0);
        assert!(report.compute_ranks.compute > 0.0);
        assert_eq!(
            report.compute_ranks.comm, 0.0,
            "P-EnKF has no communication phase"
        );
    }

    #[test]
    fn different_decompositions_agree() {
        let mesh = Mesh::new(12, 12);
        let (_s, store, scenario) = setup_files(mesh, 5, 9);
        let radius = LocalizationRadius { xi: 2, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members: 5,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let (a, _) = PEnkf { nsdx: 2, nsdy: 2 }.run(&setup).unwrap();
        let (b, _) = PEnkf { nsdx: 4, nsdy: 3 }.run(&setup).unwrap();
        assert!(a.states().approx_eq(b.states(), 1e-12));
    }

    #[test]
    fn invalid_decomposition_is_rejected() {
        let mesh = Mesh::new(12, 8);
        let (_s, store, scenario) = setup_files(mesh, 4, 1);
        let setup = AssimilationSetup {
            store: &store,
            members: 4,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
        };
        assert!(PEnkf { nsdx: 5, nsdy: 2 }.run(&setup).is_err());
    }
}
