//! S-EnKF: the paper's co-designed scalable EnKF (real executor).
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
//! * Compute rank `(i, j)` runs a **helper thread** that ingests blocks and
//!   hands the main thread a fully assembled `X̄ᵇ` per stage; the main
//!   thread analyzes layer `l` while the helper (and the I/O ranks) already
//!   work on stage `l+1` — the overlap of Figs. 7–8.

use crate::exec::setup::AssimilationSetup;
use crate::exec::{Cycle, Msg, RankOut};
use crate::program::{CycleOp, ModelVariant, Payload};
use crate::report::ExecutionReport;
use enkf_core::{EnkfError, Ensemble, Result};
use enkf_data::gather_surface_into;
use enkf_fault::{FaultConfig, FaultLog, SubstrateError};
use enkf_grid::RegionRect;
use enkf_health::HealthMonitor;
use enkf_linalg::Matrix;
use enkf_net::RankCtx;
use enkf_pfs::{read_stages_ahead_adaptive, ReadAheadError, StageRead};
use enkf_trace::{RankTracer, Role, Trace};
use enkf_tuning::Params;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Helper-channel sentinel: an I/O rank aborted (sent `Msg::Abort`).
const ABORT_SENTINEL: usize = usize::MAX;
/// Helper-channel sentinel: a receive timed out (crashed/dropping peer).
const TIMEOUT_SENTINEL: usize = usize::MAX - 1;
/// Helper-channel sentinel: the helper's own bookkeeping failed (a stage it
/// believed complete was not present, or a message no S-EnKF rank sends
/// arrived). Surfaced as [`SubstrateError::HelperFailed`] instead of
/// panicking the process.
const HELPER_ERR_SENTINEL: usize = usize::MAX - 2;

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

    /// Run the assimilation; returns the analysis ensemble and the phase
    /// timings (compute ranks and I/O ranks reported separately).
    pub fn run(&self, setup: &AssimilationSetup<'_>) -> Result<(Ensemble, ExecutionReport)> {
        self.run_traced(setup)
            .map(|(analysis, report, _)| (analysis, report))
    }

    /// [`SEnkf::run`], additionally returning the execution trace: per I/O
    /// rank one read span per (stage, group file) — a single-seek bar — and
    /// one send span per (stage, compute peer); per compute rank one wait
    /// and one compute span per stage. The report's per-class
    /// `PhaseBreakdown`s are projections of these spans.
    pub fn run_traced(
        &self,
        setup: &AssimilationSetup<'_>,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        self.run_faulted(setup, &FaultConfig::none())
            .map(|(analysis, report, trace, _)| (analysis, report, trace))
    }

    /// [`SEnkf::run_traced`] under a fault plan. With `FaultConfig::none()`
    /// this is behaviourally identical to `run_traced`. Under a seeded
    /// plan, I/O-rank bar reads retry with backoff, unrecoverable members
    /// are dropped in degraded mode (bundles shrink to the group's
    /// survivors; compute ranks assemble `N − |dropped|` columns),
    /// stragglers dilate compute, message delays stall sends, and crashes
    /// or message drops switch receives to a timeout that surfaces
    /// [`SubstrateError::RecvTimeout`] instead of hanging.
    pub fn run_faulted(
        &self,
        setup: &AssimilationSetup<'_>,
        cfg: &FaultConfig,
    ) -> Result<(Ensemble, ExecutionReport, Trace, FaultLog)> {
        self.run_adaptive(setup, cfg, None)
    }

    /// [`SEnkf::run_faulted`] with online health monitoring. Each I/O
    /// rank's program lists its group's members with blacklisted-OST
    /// members last (bundles carry explicit member indices and the helper
    /// thread places columns by member, so the reorder never reaches the
    /// numerics), and every bar read goes through the adaptive route —
    /// a blacklisted OST triggers a deterministic speculative duplicate
    /// read against its replica. Observed read and compute dilation ratios
    /// feed the monitor; the caller folds them at the cycle boundary with
    /// [`HealthMonitor::end_cycle`]. With `monitor: None` this is
    /// byte-identical to [`SEnkf::run_faulted`].
    pub fn run_adaptive(
        &self,
        setup: &AssimilationSetup<'_>,
        cfg: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace, FaultLog)> {
        let variant = ModelVariant::SEnkf(self.params);
        Cycle::run(setup, variant, cfg, monitor, |cycle, ctx, tracer| {
            if cycle.is_io(ctx.rank()) {
                tracer.set_role(Role::Io);
                io_rank(cycle, ctx, tracer)
            } else {
                compute_rank(cycle, ctx, tracer)
            }
        })
    }
}

/// An I/O rank `(g, j)`: per stage, read the small bar of every file of
/// group `g`, then send each compute rank of latitude block `j` its block
/// of every surviving file, bundled.
fn io_rank(cycle: &Cycle<'_>, ctx: RankCtx<Msg>, tracer: &mut RankTracer) -> RankOut {
    let rank = ctx.rank();
    let ops = cycle.ops(rank);
    let store = cycle.setup.store;
    // Read stages through the one-stage read-ahead pipeline: a prefetch
    // thread reads stage l+1's bar while this thread scatters stage l's
    // blocks. The plan is truncated at a planned crash stage so exactly
    // the reads the sequential loop would perform happen — digests are
    // order-insensitive, so prefetching cannot move them.
    let mut plan: Vec<StageRead> = Vec::new();
    let mut peers = BTreeSet::new();
    for &op in ops {
        match op {
            CycleOp::Read {
                stage: Some(stage),
                member,
                region,
            } => match plan.last_mut() {
                Some(sr) if sr.stage == stage => sr.members.push(member),
                _ => plan.push(StageRead {
                    stage,
                    region,
                    members: vec![member],
                }),
            },
            CycleOp::Send { to, .. } => {
                peers.insert(to);
            }
            op => return Err(cycle.foreign_op(rank, op)),
        }
    }
    let crash = cycle.injector.crash_stage(rank);
    plan.retain(|sr| crash.is_none_or(|stage| sr.stage < stage));
    let outcome = read_stages_ahead_adaptive::<std::convert::Infallible>(
        store,
        &cycle.injector,
        tracer,
        &plan,
        &cycle.dropped,
        cycle.monitor,
        |sr, datas, tracer| {
            // The pipeline delivers the plan's surviving members, in plan
            // order — the bundle's member list.
            let members: Vec<usize> = sr
                .members
                .iter()
                .copied()
                .filter(|k| !cycle.dropped.contains(k))
                .collect();
            debug_assert_eq!(datas.len(), members.len());
            for &op in ops {
                if let CycleOp::Send {
                    stage,
                    to,
                    payload: payload @ Payload::Blocks { region, .. },
                } = op
                {
                    if stage != Some(sr.stage) {
                        continue;
                    }
                    // Extraction is O(1) per member: each block is a view
                    // sharing the bar's allocation.
                    cycle.send(
                        tracer,
                        &ctx,
                        stage,
                        to,
                        payload.bytes(&store.layout()),
                        || Msg::Blocks {
                            stage: sr.stage,
                            members: members.clone(),
                            data: datas.iter().map(|d| d.extract(&region)).collect(),
                        },
                    );
                }
            }
            Ok(())
        },
    );
    match outcome {
        Ok(()) => {}
        Err(ReadAheadError::Read { error, .. }) => {
            // Unblock this latitude block's compute ranks before bailing
            // out.
            cycle.abort(&ctx, peers, &format!("read failed: {error}"));
            return Err(error.into());
        }
        Err(ReadAheadError::Consume(never)) => match never {},
        Err(ReadAheadError::ReaderPanicked { message }) => {
            // Contained prefetch-thread panic: unblock the compute ranks,
            // then surface a typed substrate error instead of tearing down
            // the executor.
            let detail = format!("prefetch thread panicked: {message}");
            cycle.abort(&ctx, peers, &detail);
            return Err(SubstrateError::HelperFailed { rank, detail }.into());
        }
    }
    // A planned crash kills this rank at the start of its stage: it stops
    // responding — peers must time out.
    cycle.check_crash(rank)?;
    Ok(Vec::new())
}

/// A compute rank: a helper thread ingests the bundles and assembles `X̄ᵇ`
/// per stage (Fig. 8); the main thread analyzes stage `l` while the helper
/// and the I/O ranks feed stage `l+1`.
fn compute_rank(cycle: &Cycle<'_>, mut ctx: RankCtx<Msg>, tracer: &mut RankTracer) -> RankOut {
    let rank = ctx.rank();
    cycle.check_crash(rank)?;
    let ops = cycle.ops(rank);
    // What the helper must know up front: how many bundles to expect, and
    // each stage's region (the shape of its X̄ᵇ).
    let expected: usize = ops
        .iter()
        .map(|op| match *op {
            CycleOp::Await { sends, .. } => sends,
            _ => 0,
        })
        .sum();
    let regions: BTreeMap<usize, RegionRect> = ops
        .iter()
        .filter_map(|op| match *op {
            CycleOp::Compute {
                stage: Some(l),
                expansion,
                ..
            } => Some((l, expansion)),
            _ => None,
        })
        .collect();

    let (inbox, stash) = ctx.split_receiver();
    debug_assert!(stash.is_empty(), "no traffic before the helper starts");
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Matrix)>();
    let alive_total = cycle.alive.len();
    // Global member index → column of the (possibly reduced) X̄ᵇ.
    let cols: BTreeMap<usize, usize> = cycle
        .alive
        .iter()
        .enumerate()
        .map(|(c, &k)| (k, c))
        .collect();
    let (use_timeout, recv_timeout) = (cycle.use_timeout, cycle.recv_timeout);
    let helper = std::thread::spawn(move || {
        struct Stage {
            matrix: Matrix,
            filled: usize,
        }
        let signal = |sentinel| {
            let _ = tx.send((sentinel, Matrix::zeros(0, 2)));
        };
        let mut stages: BTreeMap<usize, Stage> = BTreeMap::new();
        for _ in 0..expected {
            let env = if use_timeout {
                match inbox.recv_timeout(Duration::from_secs_f64(recv_timeout)) {
                    Ok(env) => env,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                        return signal(TIMEOUT_SENTINEL);
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                }
            } else {
                let Ok(env) = inbox.recv() else { return };
                env
            };
            let (stage, members, data) = match env.payload {
                Msg::Blocks {
                    stage,
                    members,
                    data,
                } => (stage, members, data),
                // Signal the main thread with a sentinel stage and stop
                // ingesting.
                Msg::Abort { .. } => return signal(ABORT_SENTINEL),
                Msg::ObsBlock { .. } => return signal(HELPER_ERR_SENTINEL),
            };
            let Some(&region) = regions.get(&stage) else {
                return signal(HELPER_ERR_SENTINEL);
            };
            let entry = stages.entry(stage).or_insert_with(|| Stage {
                matrix: Matrix::zeros(region.npoints(), alive_total),
                filled: 0,
            });
            debug_assert!(
                data.iter().all(|rd| rd.region() == region),
                "block region mismatch"
            );
            let bundle_cols: Vec<usize> = members.iter().map(|k| cols[k]).collect();
            gather_surface_into(&mut entry.matrix, &bundle_cols, &data);
            entry.filled += members.len();
            if entry.filled == alive_total {
                // Unreachable `None` in practice (the entry was just filled
                // above), but a bookkeeping bug here must surface as a
                // typed error on the main thread, not a helper panic.
                let Some(done) = stages.remove(&stage) else {
                    return signal(HELPER_ERR_SENTINEL);
                };
                if tx.send((stage, done.matrix)).is_err() {
                    return; // main thread bailed out
                }
            }
        }
    });

    let helper_failed = |detail: &str| -> EnkfError {
        SubstrateError::HelperFailed {
            rank,
            detail: detail.into(),
        }
        .into()
    };
    let dilation = cycle.dilation(rank);
    let mut analyzed = Vec::new();
    let mut ready: BTreeMap<usize, Matrix> = BTreeMap::new();
    let mut xb = None;
    for &op in ops {
        match op {
            CycleOp::Await {
                stage: Some(l),
                sends: _,
            } => {
                xb = Some(loop {
                    if let Some(m) = ready.remove(&l) {
                        break m;
                    }
                    match tracer.wait(Some(l), || rx.recv()) {
                        Ok((ABORT_SENTINEL, _)) => {
                            return Err(EnkfError::GeometryMismatch(
                                "an I/O rank aborted (read failure)".into(),
                            ))
                        }
                        Ok((TIMEOUT_SENTINEL, _)) => {
                            return Err(SubstrateError::RecvTimeout {
                                rank,
                                waited: recv_timeout,
                            }
                            .into())
                        }
                        Ok((HELPER_ERR_SENTINEL, _)) => {
                            return Err(helper_failed("stage bookkeeping lost a completed stage"))
                        }
                        Ok((stage, m)) => {
                            ready.insert(stage, m);
                        }
                        Err(_) => return Err(helper_failed("helper thread terminated early")),
                    }
                });
            }
            CycleOp::Compute {
                stage,
                target,
                expansion,
                ..
            } => {
                let Some(xb) = xb.take() else {
                    return Err(cycle.foreign_op(rank, op));
                };
                let xa = cycle.analyze(tracer, stage, dilation, &target, &expansion, || xb)?;
                analyzed.push((target, xa));
            }
            op => return Err(cycle.foreign_op(rank, op)),
        }
    }
    if helper.join().is_err() {
        return Err(helper_failed("helper thread panicked"));
    }
    Ok(analyzed)
}

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
