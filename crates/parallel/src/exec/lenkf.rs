//! L-EnKF: the single-reader baseline (real executor).
//!
//! Rank 0 reads the member files one after another and scatters each rank's
//! expansion block over the network (§3.1, §6: "a single reader processor
//! communicates the data to the other processors, which can not make full
//! use of parallel file systems"). Every rank then runs the same local
//! analysis as the other variants.

use crate::exec::setup::AssimilationSetup;
use crate::exec::{foreign_msg, Cycle, Msg};
use crate::program::{CycleOp, ModelVariant, Payload};
use crate::report::ExecutionReport;
use enkf_core::{Ensemble, Result};
use enkf_data::region_to_matrix;
use enkf_fault::{FaultConfig, FaultLog, SubstrateError};
use enkf_health::HealthMonitor;
use enkf_pfs::RegionData;
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
    /// Run the assimilation; returns the analysis ensemble and the phase
    /// timings.
    pub fn run(&self, setup: &AssimilationSetup<'_>) -> Result<(Ensemble, ExecutionReport)> {
        self.run_traced(setup)
            .map(|(analysis, report, _)| (analysis, report))
    }

    /// [`LEnkf::run`], additionally returning the execution trace: rank 0
    /// emits one full-file read span per member plus one send span per
    /// (member, peer) scatter; every other rank emits wait spans for the
    /// blocked receives. The report is the per-rank projection of the spans.
    pub fn run_traced(
        &self,
        setup: &AssimilationSetup<'_>,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        self.run_faulted(setup, &FaultConfig::none())
            .map(|(analysis, report, trace, _)| (analysis, report, trace))
    }

    /// [`LEnkf::run_traced`] under a fault plan. With `FaultConfig::none()`
    /// this is behaviourally identical to `run_traced`. Under a seeded
    /// plan, rank 0's reads retry with backoff, unrecoverable members are
    /// dropped in degraded mode (peers then expect one bundle fewer),
    /// scheduled message delays stall the scatter sends, and crashes or
    /// message drops make peers receive with a timeout so they surface a
    /// typed error instead of hanging.
    pub fn run_faulted(
        &self,
        setup: &AssimilationSetup<'_>,
        cfg: &FaultConfig,
    ) -> Result<(Ensemble, ExecutionReport, Trace, FaultLog)> {
        self.run_adaptive(setup, cfg, None)
    }

    /// [`LEnkf::run_faulted`] with online health monitoring. Rank 0 (the
    /// only reader) reads members whose OST is blacklisted last and every
    /// read consults the monitor's frozen view, so a degraded OST triggers
    /// a speculative duplicate against its replica. Receivers key incoming
    /// blocks by member index, so the reorder never changes the analysis
    /// input. Observed dilation ratios feed the monitor; the caller folds
    /// them with [`HealthMonitor::end_cycle`]. With `monitor: None` this is
    /// byte-identical to [`LEnkf::run_faulted`].
    pub fn run_adaptive(
        &self,
        setup: &AssimilationSetup<'_>,
        cfg: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace, FaultLog)> {
        let variant = ModelVariant::LEnkf {
            nsdx: self.nsdx,
            nsdy: self.nsdy,
        };
        Cycle::run(setup, variant, cfg, monitor, |cycle, mut ctx, tracer| {
            let rank = ctx.rank();
            cycle.check_crash(rank)?;
            let layout = setup.store.layout();
            let Some(own) = cycle.ops(rank).iter().find_map(|op| match *op {
                CycleOp::Compute { expansion, .. } => Some(expansion),
                _ => None,
            }) else {
                return Ok(Vec::new());
            };
            // This rank's expansion block of every member, keyed by member:
            // carved out of the file it just read (rank 0) or received.
            let mut blocks: Vec<Option<RegionData>> = vec![None; setup.members];
            // The member file the reader currently holds.
            let mut held: Option<(usize, RegionData)> = None;
            let mut analyzed = Vec::new();
            for &op in cycle.ops(rank) {
                match op {
                    CycleOp::Read {
                        stage,
                        member,
                        region,
                    } => match cycle.read(tracer, stage, member, &region) {
                        Ok(file) => {
                            held = file.map(|full| {
                                blocks[member] = Some(full.extract(&own));
                                (member, full)
                            })
                        }
                        Err(e) => {
                            cycle.abort(&ctx, 1..ctx.size(), &format!("read failed: {e}"));
                            return Err(e.into());
                        }
                    },
                    CycleOp::Send {
                        stage,
                        to,
                        payload: payload @ Payload::Blocks { region, .. },
                    } => {
                        let Some((member, full)) = &held else {
                            return Err(cycle.foreign_op(rank, op));
                        };
                        cycle.send(tracer, &ctx, stage, to, payload.bytes(&layout), || {
                            Msg::Blocks {
                                stage: 0,
                                members: vec![*member],
                                data: vec![full.extract(&region)],
                            }
                        })
                    }
                    CycleOp::Await { stage, sends } => {
                        cycle.receive(tracer, &mut ctx, stage, sends, |msg| match msg {
                            Msg::Blocks {
                                members, mut data, ..
                            } => {
                                blocks[members[0]] = Some(data.remove(0));
                                Ok(())
                            }
                            _ => Err(foreign_msg(rank)),
                        })?
                    }
                    CycleOp::Compute {
                        stage,
                        target,
                        expansion,
                        ..
                    } => {
                        // Typed, not a panic: a protocol violation (a
                        // duplicate block shadowing another member within
                        // the counted receive) must tear this rank down
                        // cleanly, like every other substrate failure.
                        let mut per_member = Vec::with_capacity(cycle.alive.len());
                        for &k in &cycle.alive {
                            per_member.push(blocks[k].take().ok_or_else(|| {
                                SubstrateError::HelperFailed {
                                    rank,
                                    detail: format!("member {k} block missing after scatter"),
                                }
                            })?);
                        }
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
