//! The threaded backend: one interpreter of cycle programs.
//!
//! [`run_cycle`] is the one entry point. `Cycle::run` is the prologue and
//! epilogue every cycle shares: it validates, resolves the fault plan,
//! emits the program ([`crate::program`]) once and checks it
//! ([`crate::program::check`]) before any thread starts, runs the one rank
//! body (`interp`) on every rank thread, and folds the rank results into
//! the analysis, the trace and the report.
//!
//! The rank body executes any checked program. It keeps the rank's block
//! table and its observed rows, and derives the thread structure from the
//! ops' stages alone: staged `Read`s go through the read-ahead pipeline,
//! staged `Await`s to a Fig. 8 helper thread, unstaged ops run in program
//! order. L-, P-, S- and D-EnKF ([`lenkf`], [`penkf`], [`senkf`],
//! [`denkf`]) are nothing but programs to it; D-EnKF's batched kernel
//! travels beside its program, in the [`CampaignExecutor`].
//!
//! The ops are a rank's only source of regions, peers, bundle sizes,
//! member order and expected-message counts; the resolved fault plan is
//! `Cycle`'s, shared by every rank: planned crashes, resilient reads,
//! dropped sends, receive timeouts and straggler dilation.

/// The executor ladder the frozen `perf/` harness calls, stamped on a
/// struct beside its `run_adaptive` (whose signature needs the same names
/// in scope): each rung fills in one more default. DESIGN.md lists these
/// names as kept only for the harness.
macro_rules! ladder {
    ($executor:ident) => {
        impl $executor {
            /// Run the assimilation; returns the analysis ensemble and the
            /// phase timings (compute and I/O ranks reported separately).
            pub fn run(
                &self,
                setup: &AssimilationSetup<'_>,
            ) -> Result<(Ensemble, ExecutionReport)> {
                self.run_traced(setup)
                    .map(|(analysis, report, _)| (analysis, report))
            }

            /// [`Self::run`], additionally returning the execution trace:
            /// one span per `Read`, `Send` and `Compute` op of the program
            /// (bytes and seeks from the file layout, matching what the DES
            /// charges) plus the wait spans of blocked receives. The
            /// report's phases are projections of these spans.
            pub fn run_traced(
                &self,
                setup: &AssimilationSetup<'_>,
            ) -> Result<(Ensemble, ExecutionReport, Trace)> {
                self.run_faulted(setup, &FaultConfig::none())
            }

            /// [`Self::run_traced`] under a fault plan; with
            /// `FaultConfig::none()` the two are behaviourally identical
            /// (byte-identical trace digests). What the plan injected is in
            /// the trace (`Trace::fault_events`). `Self::run_adaptive`
            /// without a monitor.
            pub fn run_faulted(
                &self,
                setup: &AssimilationSetup<'_>,
                cfg: &FaultConfig,
            ) -> Result<(Ensemble, ExecutionReport, Trace)> {
                self.run_adaptive(setup, cfg, None)
            }
        }
    };
}

pub(crate) mod denkf;
mod interp;
pub(crate) mod lenkf;
pub(crate) mod penkf;
pub(crate) mod senkf;
pub(crate) mod setup;
pub(crate) mod writeback;

use crate::campaign::CampaignExecutor;
use crate::program::{check, CycleOp, Emitter, Geometry, ObservedPoints};
use crate::report::ExecutionReport;
use enkf_core::{BatchedKernel, EnkfError, Ensemble, Result};
use enkf_fault::{FaultConfig, FaultInjector, SubstrateError};
use enkf_grid::RegionRect;
use enkf_health::HealthMonitor;
use enkf_linalg::Matrix;
use enkf_net::{Cluster, RankCtx};
use enkf_pfs::RegionData;
use enkf_trace::{RankTracer, Trace};
use setup::AssimilationSetup;
use std::time::Instant;

/// The payload exchanged between ranks.
#[derive(Debug, Clone)]
pub(crate) enum Msg {
    /// Blocks of several members covering one region, for one stage of the
    /// multi-stage workflow.
    Blocks {
        /// Multi-stage index (`l`), 0-based; `None` outside the multi-stage
        /// workflow.
        stage: Option<usize>,
        /// Global member indices, parallel to `data`.
        members: Vec<usize>,
        /// One region payload per member.
        data: Vec<RegionData>,
    },
    /// A rank's observed rows (a `Payload::Observed` send).
    ObsBlock(interp::ObsRows),
    /// A sender hit a fatal error (e.g. an unreadable member file) and will
    /// produce no further messages: receivers must stop waiting. Without
    /// this a failing reader would deadlock every rank blocked on its data.
    Abort {
        /// Human-readable failure description.
        reason: String,
    },
}

/// The dropout decision of every executor, real and modeled: the sorted
/// set of members whose reads exhaust the retry budget — what the run's
/// report carries as `dropped_members` — or the typed reason the run cannot
/// start: [`SubstrateError::Unrecoverable`] when degraded mode is off, a
/// geometry error when it would leave fewer than two members. One function,
/// so the two sides of a variant cannot disagree on who drops out, nor on
/// why a run is refused.
pub(crate) fn resolve_dropout(injector: &FaultInjector, members: usize) -> Result<Vec<usize>> {
    let dropped = injector.unrecoverable_members(members);
    let left = members - dropped.len();
    if !dropped.is_empty() && !injector.config().degraded {
        return Err(SubstrateError::Unrecoverable { members: dropped }.into());
    }
    if !dropped.is_empty() && left < 2 {
        return Err(EnkfError::GeometryMismatch(format!(
            "degraded mode would leave {left} member(s); at least 2 are required"
        )));
    }
    Ok(dropped)
}

/// `rank`'s straggler dilation, reported to the monitor — once per rank
/// and cycle on both paths, so the detectors fold the same observations.
pub(crate) fn compute_dilation(
    injector: &FaultInjector,
    monitor: Option<&HealthMonitor>,
    rank: usize,
) -> f64 {
    let dilation = injector.compute_dilation(rank);
    if let Some(mon) = monitor {
        mon.observe_compute(rank, dilation);
    }
    dilation
}

/// Receive `ctx`'s next message. With a `timeout` (the plan crashes ranks
/// or drops messages) the receive gives up into
/// [`SubstrateError::RecvTimeout`] instead of hanging; a peer's
/// [`Msg::Abort`] becomes [`SubstrateError::PeerAborted`], and a receive
/// nobody can feed any more [`SubstrateError::PeerExited`].
pub(crate) fn next_msg(
    ctx: &mut RankCtx<Msg>,
    timeout: Option<f64>,
) -> std::result::Result<Msg, SubstrateError> {
    let envelope = match timeout {
        Some(seconds) => ctx.recv_timeout(seconds)?,
        None => ctx.recv()?,
    };
    match envelope.payload {
        Msg::Abort { reason } => Err(SubstrateError::PeerAborted {
            rank: ctx.rank(),
            peer: envelope.from,
            reason,
        }),
        msg => Ok(msg),
    }
}

/// Run one assimilation cycle of `exec` on the threaded backend: emit its
/// variant's program and execute it with the one interpreter (see the
/// module docs) — D-EnKF's batched update with `exec`'s kernel. Returns the
/// analysis ensemble (columns are the surviving members), the per-class
/// phase report and the trace.
/// The trace is the run's one record: the report's phases, the operation
/// digest and the fault events (`Trace::fault_events`, given the report's
/// `dropped_members`) are all projections of its spans.
///
/// With `FaultConfig::none()` and no monitor this is the plain run. Under
/// a seeded plan reads retry with backoff, unrecoverable members are
/// dropped when `cfg.degraded` is set (the cycle completes on the
/// survivors), stragglers dilate compute, and crashes or message drops
/// switch receives to a timeout that surfaces
/// [`SubstrateError::RecvTimeout`] instead of hanging. With a monitor the
/// program reads members on blacklisted OSTs last (blocks are placed by
/// member, so the reorder never reaches the numerics), every read
/// consults the monitor's frozen view — a read from a degraded OST is
/// rerouted to its replica, leaving a zero-duration cancelled marker span
/// — and observed read and compute dilation ratios feed the monitor, which
/// the caller folds at the cycle boundary with [`HealthMonitor::end_cycle`].
pub fn run_cycle(
    setup: &AssimilationSetup<'_>,
    exec: CampaignExecutor,
    cfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
) -> Result<(Ensemble, ExecutionReport, Trace)> {
    let kernel = match exec {
        CampaignExecutor::DEnkf { kernel, .. } => Some(kernel),
        _ => None,
    };
    Cycle::run(setup, &exec.variant(), kernel, cfg, monitor)
}

/// What one rank hands back: the `(target, analysis)` pair of every
/// `Compute` op it ran.
pub(crate) type RankOut = Result<Vec<(RegionRect, Matrix)>>;

/// One assimilation cycle on the threaded backend: the resolved fault
/// plan and the checked program split by rank. All fields are pure
/// functions of the setup, the
/// [`FaultConfig`] and the monitor's frozen view, so every rank thread
/// reaches the same decisions without coordination.
pub(crate) struct Cycle<'a> {
    /// Store, observations and analysis kernel.
    pub setup: &'a AssimilationSetup<'a>,
    /// Health monitor routing reads and collecting observations.
    pub monitor: Option<&'a HealthMonitor>,
    /// The plan's pure decision functions.
    pub injector: FaultInjector,
    /// Sorted dropout set (empty on a fault-free run).
    pub dropped: Vec<usize>,
    /// Surviving members, ascending.
    pub alive: Vec<usize>,
    /// The timeout, in seconds, receives must carry when the plan crashes
    /// ranks or drops messages (a blocking receive could hang forever).
    pub timeout: Option<f64>,
    /// The kernel of the program's batched updates (`None`: it has none).
    pub kernel: Option<BatchedKernel>,
    name: &'static str,
    compute_ranks: usize,
    ops: Vec<Vec<CycleOp>>,
}

impl<'a> Cycle<'a> {
    /// Run one cycle of `program`: validate, resolve the fault plan (fail
    /// fast when degraded mode is off or would leave fewer than two
    /// members), emit and [`check`] the program — a program that breaks a
    /// rule is a typed [`EnkfError::GeometryMismatch`] before any thread
    /// starts — run the rank body on every rank thread, and fold the rank
    /// results: spans into the trace (of which the per-class phase report
    /// is a projection), `Compute` results into the analysis ensemble. The
    /// cycle's error is that of the first failed rank, in rank order, that
    /// failed on its own: a rank merely told to stop by a failing peer
    /// ([`SubstrateError::PeerAborted`]) echoes that peer's error and is
    /// reported only when no originating error exists.
    pub(crate) fn run(
        setup: &'a AssimilationSetup<'a>,
        program: &impl Emitter,
        kernel: Option<BatchedKernel>,
        cfg: &FaultConfig,
        monitor: Option<&'a HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        setup.validate()?;
        let mesh = setup.mesh();
        let (compute_ranks, io_ranks) = program
            .ranks(mesh, setup.members)
            .map_err(EnkfError::GeometryMismatch)?;
        let ranks = compute_ranks + io_ranks;
        let injector = FaultInjector::new(cfg.clone());
        let dropped = resolve_dropout(&injector, setup.members)?;
        let geo = Geometry {
            layout: setup.store.layout(),
            members: setup.members,
            radius: setup.analysis.radius,
            dropped: &dropped,
            view: monitor.map(|mon| mon.view()),
            network: Some(ObservedPoints::Listed(
                setup.observations.operator().network(),
            )),
        };
        let mut stream = Vec::new();
        program
            .emit(&geo, &mut |rank, op| {
                stream.push((rank, op));
                Ok(())
            })
            .and_then(|()| check(&geo, ranks, program.layers(), &stream))
            .map_err(EnkfError::GeometryMismatch)?;
        let mut ops = vec![Vec::new(); ranks];
        for (rank, op) in stream {
            ops[rank].push(op);
        }
        let plan = &cfg.plan;
        let cycle = Cycle {
            setup,
            monitor,
            alive: (0..setup.members)
                .filter(|m| !dropped.contains(m))
                .collect(),
            timeout: (!plan.crashes.is_empty() || !plan.msg_faults.is_empty())
                .then_some(cfg.recv_timeout),
            injector,
            dropped,
            kernel,
            name: program.name(),
            compute_ranks,
            ops,
        };
        // Build the spatial observation index and perturbation cache once
        // per cycle, before the worker ranks start querying it.
        setup.observations.prepare();
        let t0 = Instant::now();
        let results =
            Cluster::run_traced(ranks, |ctx, tracer| interp::run_rank(&cycle, ctx, tracer));

        // The checked program's targets tile the mesh, and a rank returns
        // one result per `Compute` or fails: a complete fold is the whole
        // analysis.
        let mut trace = Trace::new(format!("{}-real", cycle.name));
        let mut analysis = Ensemble::new(mesh, Matrix::zeros(mesh.n(), cycle.alive.len()));
        let mut echo = None;
        for (res, spans) in results {
            trace.extend(spans);
            match res {
                Ok(analyzed) => {
                    for (target, local) in analyzed {
                        analysis.assign(&target, &local);
                    }
                }
                Err(e @ EnkfError::Substrate(SubstrateError::PeerAborted { .. })) => {
                    echo.get_or_insert(e);
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(e) = echo {
            return Err(e);
        }
        let (compute, io) = trace.class_phases(compute_ranks);
        let report = ExecutionReport {
            compute_ranks: compute,
            io_ranks: io,
            num_compute_ranks: compute_ranks,
            num_io_ranks: io_ranks,
            wall_time: t0.elapsed().as_secs_f64(),
            dropped_members: cycle.dropped,
        };
        Ok((analysis, report, trace))
    }

    /// Execute a `Send` op of `bytes` bytes: serialization (`payload`) is
    /// charged to the send span — mirroring the model's sender-side service
    /// — even when the plan then drops the message.
    pub(crate) fn send(
        &self,
        tracer: &mut RankTracer,
        ctx: &RankCtx<Msg>,
        stage: Option<usize>,
        to: usize,
        bytes: u64,
        payload: impl FnOnce() -> Msg,
    ) {
        let dropped = self.injector.message_dropped(ctx.rank(), to);
        tracer.send(stage, to, bytes, || {
            let msg = payload();
            if !dropped {
                ctx.send(to, stage.unwrap_or(0) as u64, msg);
            }
        });
    }
}
