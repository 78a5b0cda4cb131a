//! P-EnKF: the block-reading state-of-the-art baseline.
//!
//! Every rank owns one sub-domain. For each of the `N` member files, it
//! reads its expansion block directly from the parallel file system
//! (Fig. 3: `O(height)` disk addressing operations per block because a
//! partial-width region is one segment per latitude row). Only after **all**
//! members are on-rank does the local analysis start — the strict
//! read-then-compute workflow of Fig. 4 whose lack of overlap the paper
//! attacks. All of that is the
//! [`ModelVariant::PEnkf`](crate::ModelVariant::PEnkf) program: its ops
//! are unstaged, so [`run_cycle`] executes them strictly in order. The trace
//! holds one read span per member block and one compute span per rank.

use crate::campaign::CampaignExecutor;
use crate::exec::run_cycle;
use crate::exec::setup::AssimilationSetup;
use crate::report::ExecutionReport;
use enkf_core::{Ensemble, Result};
use enkf_fault::FaultConfig;
use enkf_health::HealthMonitor;
use enkf_trace::Trace;

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
    /// [`run_cycle`] on the P-EnKF program: the assimilation under a fault
    /// plan and, optionally, online health monitoring.
    pub fn run_adaptive(
        &self,
        setup: &AssimilationSetup<'_>,
        cfg: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        let (nsdx, nsdy) = (self.nsdx, self.nsdy);
        run_cycle(setup, CampaignExecutor::PEnkf { nsdx, nsdy }, cfg, monitor)
    }
}
ladder!(PEnkf);

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
