//! S-EnKF: the paper's co-designed scalable EnKF.
//!
//! Processor roles (Fig. 8): `C₂ = n_sdx·n_sdy` **compute ranks** own one
//! sub-domain each; `C₁ = n_cg·n_sdy` **I/O ranks** form `n_cg` concurrent
//! groups of `n_sdy` readers. Work proceeds in `L` stages:
//!
//! * I/O rank `(g, j)` reads, for every member file of its group, the
//!   *small bar* of latitude-block `j`, stage `l` — a full-width band, one
//!   contiguous segment, one disk addressing operation (§4.1.2) — and sends
//!   each compute rank `(i, j)` its block (the layer expansion) bundled
//!   over the group's files.
//! * Compute rank `(i, j)` analyzes layer `l` from the stage-`l` bundles.
//!
//! All of that is the [`ModelVariant::SEnkf`](crate::ModelVariant::SEnkf)
//! program. Its ops are *staged*, which is what lets [`run_cycle`] overlap
//! them: an I/O rank prefetches
//! stage `l+1`'s bars while it scatters stage `l`'s blocks, and a compute
//! rank's helper thread ingests and assembles stage `l+1` while the main
//! thread analyzes layer `l` — the overlap of Figs. 7–8. In the trace an
//! I/O rank has one read span per (stage, group file) — a single-seek bar —
//! and one send span per (stage, compute peer); a compute rank one wait and
//! one compute span per stage.

use crate::campaign::CampaignExecutor;
use crate::exec::run_cycle;
use crate::exec::setup::AssimilationSetup;
use crate::report::ExecutionReport;
use enkf_core::{Ensemble, Result};
use enkf_fault::FaultConfig;
use enkf_health::HealthMonitor;
use enkf_trace::Trace;
use enkf_tuning::Params;

/// The S-EnKF variant, configured by the auto-tunable parameter set
/// `(n_sdx, n_sdy, L, n_cg)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SEnkf {
    /// Decomposition / overlap parameters (`enkf_tuning::Params`).
    pub params: Params,
}

impl SEnkf {
    /// Construct from a parameter set (e.g. the auto-tuner's output).
    pub fn new(params: Params) -> Self {
        SEnkf { params }
    }

    /// [`run_cycle`] on the S-EnKF program: the assimilation under a fault
    /// plan and, optionally, online health monitoring.
    pub fn run_adaptive(
        &self,
        setup: &AssimilationSetup<'_>,
        cfg: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        run_cycle(setup, CampaignExecutor::SEnkf(self.params), cfg, monitor)
    }
}
ladder!(SEnkf);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PEnkf;
    use enkf_core::{serial_enkf, LocalAnalysis};
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
        let scratch = ScratchDir::new("senkf").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        (scratch, store, scenario)
    }

    #[test]
    fn matches_serial_reference_exactly() {
        let mesh = Mesh::new(12, 8);
        let members = 6;
        let (_s, store, scenario) = harness(mesh, members, 31);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let senkf = SEnkf::new(Params {
            nsdx: 3,
            nsdy: 2,
            layers: 2,
            ncg: 2,
        });
        let (analysis, report) = senkf.run(&setup).unwrap();
        let reference = serial_enkf(&scenario.ensemble, &scenario.observations, radius).unwrap();
        assert!(
            analysis.states().approx_eq(reference.states(), 1e-12),
            "S-EnKF must equal the serial point-wise reference"
        );
        assert_eq!(report.num_compute_ranks, 6);
        assert_eq!(report.num_io_ranks, 4);
        assert!(report.io_ranks.read > 0.0, "I/O ranks must do the reading");
        assert!(report.compute_ranks.compute > 0.0);
        assert_eq!(
            report.compute_ranks.read, 0.0,
            "compute ranks never touch disk"
        );
    }

    #[test]
    fn senkf_equals_penkf_across_parameterizations() {
        let mesh = Mesh::new(16, 12);
        let members = 8;
        let (_s, store, scenario) = harness(mesh, members, 5);
        let radius = LocalizationRadius { xi: 2, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let (p_analysis, _) = PEnkf { nsdx: 4, nsdy: 3 }.run(&setup).unwrap();
        for (layers, ncg) in [(1, 1), (2, 2), (4, 4), (2, 8)] {
            let senkf = SEnkf::new(Params {
                nsdx: 4,
                nsdy: 3,
                layers,
                ncg,
            });
            let (analysis, _) = senkf.run(&setup).unwrap();
            assert!(
                analysis.states().approx_eq(p_analysis.states(), 1e-12),
                "S-EnKF(L={layers}, ncg={ncg}) differs from P-EnKF"
            );
        }
    }

    #[test]
    fn rejects_indivisible_group_count() {
        let mesh = Mesh::new(8, 8);
        let members = 6;
        let (_s, store, scenario) = harness(mesh, members, 7);
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
        };
        // 6 members cannot split into 4 groups.
        let senkf = SEnkf::new(Params {
            nsdx: 2,
            nsdy: 2,
            layers: 2,
            ncg: 4,
        });
        assert!(senkf.run(&setup).is_err());
    }

    #[test]
    fn rejects_indivisible_layer_count() {
        let mesh = Mesh::new(8, 8);
        let members = 4;
        let (_s, store, scenario) = harness(mesh, members, 8);
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
        };
        // Sub-domain height 4 does not divide into 3 layers.
        let senkf = SEnkf::new(Params {
            nsdx: 2,
            nsdy: 2,
            layers: 3,
            ncg: 2,
        });
        assert!(senkf.run(&setup).is_err());
    }
}
