//! L-EnKF: the single-reader baseline.
//!
//! Rank 0 reads the member files one after another and scatters each rank's
//! expansion block over the network (§3.1, §6: "a single reader processor
//! communicates the data to the other processors, which can not make full
//! use of parallel file systems"). Every rank then runs the same local
//! analysis as the other variants. All of that is the
//! [`ModelVariant::LEnkf`](crate::ModelVariant::LEnkf) program: its ops
//! are unstaged, so [`run_cycle`] executes them strictly in order. In the
//! trace rank 0 has one full-file
//! read span per member plus one send span per (member, peer) scatter, and
//! every other rank one wait span for its blocked receives.

use crate::campaign::CampaignExecutor;
use crate::exec::run_cycle;
use crate::exec::setup::AssimilationSetup;
use crate::report::ExecutionReport;
use enkf_core::{Ensemble, Result};
use enkf_fault::FaultConfig;
use enkf_health::HealthMonitor;
use enkf_trace::Trace;

/// The L-EnKF variant: `n_sdx × n_sdy` ranks, rank 0 is the only reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LEnkf {
    /// Sub-domains (= ranks) along longitude.
    pub nsdx: usize,
    /// Sub-domains (= ranks) along latitude.
    pub nsdy: usize,
}

impl LEnkf {
    /// [`run_cycle`] on the L-EnKF program: the assimilation under a fault
    /// plan and, optionally, online health monitoring.
    pub fn run_adaptive(
        &self,
        setup: &AssimilationSetup<'_>,
        cfg: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        let (nsdx, nsdy) = (self.nsdx, self.nsdy);
        run_cycle(setup, CampaignExecutor::LEnkf { nsdx, nsdy }, cfg, monitor)
    }
}
ladder!(LEnkf);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PEnkf;
    use enkf_core::{serial_enkf, LocalAnalysis};
    use enkf_data::{write_ensemble, ScenarioBuilder};
    use enkf_grid::{FileLayout, LocalizationRadius, Mesh};
    use enkf_pfs::{FileStore, ScratchDir};

    #[test]
    fn lenkf_matches_serial_and_penkf() {
        let mesh = Mesh::new(12, 6);
        let members = 5;
        let scenario = ScenarioBuilder::new(mesh).members(members).seed(21).build();
        let scratch = ScratchDir::new("lenkf").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let (l_analysis, l_report) = LEnkf { nsdx: 4, nsdy: 2 }.run(&setup).unwrap();
        let (p_analysis, _) = PEnkf { nsdx: 4, nsdy: 2 }.run(&setup).unwrap();
        let reference = serial_enkf(&scenario.ensemble, &scenario.observations, radius).unwrap();
        assert!(l_analysis.states().approx_eq(reference.states(), 1e-12));
        assert!(l_analysis.states().approx_eq(p_analysis.states(), 1e-12));
        // Rank 0 did all the reading and all the sending.
        assert!(l_report.compute_ranks.read > 0.0);
        assert!(l_report.compute_ranks.comm > 0.0);
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let mesh = Mesh::new(6, 6);
        let members = 4;
        let scenario = ScenarioBuilder::new(mesh).members(members).seed(2).build();
        let scratch = ScratchDir::new("lenkf1").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let (analysis, _) = LEnkf { nsdx: 1, nsdy: 1 }.run(&setup).unwrap();
        let reference = serial_enkf(&scenario.ensemble, &scenario.observations, radius).unwrap();
        assert!(analysis.states().approx_eq(reference.states(), 1e-12));
    }
}
