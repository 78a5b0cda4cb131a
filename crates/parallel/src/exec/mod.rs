//! The threaded backend: one interpreter of cycle programs.
//!
//! `Cycle::run` is the prologue and epilogue every cycle shares: it
//! validates, resolves the fault plan, emits the program
//! ([`crate::program`]) once, hands every rank thread its own ops, and
//! folds the rank results into the analysis, the trace and the report.
//! Between the two runs a *rank body*:
//!
//! * [`run_cycle`] runs the one interpreter (`interp`) of member-block
//!   programs — any balanced mix of `Read`, `Send(Payload::Blocks)`,
//!   `Await` and `Compute`. It keeps the rank's block table, and derives
//!   the thread structure from the ops' stages alone: staged `Read`s go
//!   through the read-ahead pipeline, staged `Await`s to a Fig. 8 helper
//!   thread, unstaged ops run in program order. L-, P- and S-EnKF
//!   ([`lenkf`], [`penkf`], [`senkf`]) are nothing but programs to it.
//! * [`denkf`] brings its own body: its `Send`s carry observation-space
//!   data *derived* from the blocks, which no block table can supply.
//!
//! The ops are a rank's only source of regions, peers, bundle sizes,
//! member order and expected-message counts. Every body shares `Cycle`'s
//! steps for the rest: the planned-crash check, resilient reads, delayed
//! and dropped sends, the abort protocol, receive timeouts, straggler
//! dilation and the typed error paths.

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

pub mod denkf;
mod interp;
pub mod lenkf;
pub mod penkf;
pub mod senkf;
pub mod setup;
pub mod writeback;

use crate::program::{CycleOp, Emitter, Geometry, ModelVariant};
use crate::report::ExecutionReport;
use enkf_core::{EnkfError, Ensemble, Result};
use enkf_fault::{FaultConfig, FaultInjector, SubstrateError};
use enkf_grid::RegionRect;
use enkf_health::HealthMonitor;
use enkf_linalg::Matrix;
use enkf_net::{Cluster, RankCtx};
use enkf_pfs::resilient::dilate;
use enkf_pfs::{read_region_adaptive, RegionData};
use enkf_trace::{RankTracer, Trace};
use setup::AssimilationSetup;
use std::time::{Duration, Instant};

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
    /// One D-EnKF shard's observed anomaly and innovation rows.
    ObsBlock {
        /// Global observation-row indices, ascending (the shard's rows of
        /// the network).
        rows: Vec<usize>,
        /// The shard's rows of `S = H U` (`m_loc × N_alive`).
        s: Matrix,
        /// The shard's rows of `D = Yˢ − H Xᵇ` (`m_loc × N_alive`).
        d: Matrix,
    },
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

/// The typed error of a message the receiving variant's protocol does not
/// contain.
pub(crate) fn foreign_msg(rank: usize) -> EnkfError {
    SubstrateError::HelperFailed {
        rank,
        detail: "received a message of another variant's protocol".into(),
    }
    .into()
}

/// Run one assimilation cycle of `variant` on the threaded backend: emit
/// its program and execute it with the one interpreter of member-block
/// programs (see the module docs). Returns the analysis ensemble (columns
/// are the surviving members), the per-class phase report and the trace.
/// The trace is the run's one record: the report's phases, the operation
/// digest and the fault events (`Trace::fault_events`, given the report's
/// `dropped_members`) are all projections of its spans.
///
/// With `FaultConfig::none()` and no monitor this is the plain run. Under
/// a seeded plan reads retry with backoff, unrecoverable members are
/// dropped when `cfg.degraded` is set (the cycle completes on the
/// survivors), stragglers dilate compute, message delays stall sends, and
/// crashes or message drops switch receives to a timeout that surfaces
/// [`SubstrateError::RecvTimeout`] instead of hanging. With a monitor the
/// program reads members on blacklisted OSTs last (blocks are placed by
/// member, so the reorder never reaches the numerics), every read
/// consults the monitor's frozen view — a degraded OST triggers a
/// speculative duplicate read against its replica — and observed read and
/// compute dilation ratios feed the monitor, which the caller folds at the
/// cycle boundary with [`HealthMonitor::end_cycle`].
///
/// D-EnKF's program sends data derived from the blocks and is run by
/// [`DEnkf`](denkf::DEnkf) instead; here it ends in a typed error.
pub fn run_cycle(
    setup: &AssimilationSetup<'_>,
    variant: ModelVariant,
    cfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
) -> Result<(Ensemble, ExecutionReport, Trace)> {
    Cycle::run(setup, &variant, cfg, monitor, interp::run_rank)
}

/// What one rank hands back: the `(target, analysis)` pair of every
/// `Compute` op it ran.
pub(crate) type RankOut = Result<Vec<(RegionRect, Matrix)>>;

/// One assimilation cycle on the threaded backend: the resolved fault
/// plan, the emitted program split by rank, and the steps every executor
/// shares. All fields are pure functions of the setup, the
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
    name: &'static str,
    compute_ranks: usize,
    ops: Vec<Vec<CycleOp>>,
}

impl<'a> Cycle<'a> {
    /// Run one cycle of `program`: validate, resolve the fault plan (fail
    /// fast when degraded mode is off or would leave fewer than two
    /// members), emit the program, run `body` on every rank thread, and
    /// fold the rank results — spans into the trace (of which the per-class
    /// phase report is a projection), `Compute` results into the analysis
    /// ensemble. The
    /// cycle's error is that of the first failed rank, in rank order, that
    /// failed on its own: a rank merely told to stop by a failing peer
    /// ([`SubstrateError::PeerAborted`]) echoes that peer's error and is
    /// reported only when no originating error exists.
    pub fn run(
        setup: &'a AssimilationSetup<'a>,
        program: &impl Emitter,
        cfg: &FaultConfig,
        monitor: Option<&'a HealthMonitor>,
        body: impl Fn(&Cycle<'a>, RankCtx<Msg>, &mut RankTracer) -> RankOut + Sync,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        setup.validate()?;
        let mesh = setup.mesh();
        let (compute_ranks, io_ranks) = program
            .ranks(mesh, setup.members)
            .map_err(EnkfError::GeometryMismatch)?;
        let injector = FaultInjector::new(cfg.clone());
        let dropped = resolve_dropout(&injector, setup.members)?;
        let mut ops = vec![Vec::new(); compute_ranks + io_ranks];
        program
            .emit(
                &Geometry {
                    layout: setup.store.layout(),
                    members: setup.members,
                    radius: setup.analysis.radius,
                    dropped: &dropped,
                    view: monitor.map(|mon| mon.view()),
                    network: Some(setup.observations.operator().network()),
                },
                &mut |rank: usize, op| {
                    ops[rank].push(op);
                    Ok(())
                },
            )
            .map_err(EnkfError::GeometryMismatch)?;
        let plan = &cfg.plan;
        let cycle = Cycle {
            setup,
            monitor,
            alive: (0..setup.members)
                .filter(|m| !dropped.contains(m))
                .collect(),
            timeout: (!plan.crashes.is_empty() || plan.msg_faults.iter().any(|m| m.dropped))
                .then_some(cfg.recv_timeout),
            injector,
            dropped,
            name: program.name(),
            compute_ranks,
            ops,
        };
        // Build the spatial observation index and perturbation cache once
        // per cycle, before the worker ranks start querying it.
        setup.observations.prepare();
        let t0 = Instant::now();
        let results = Cluster::run_traced(compute_ranks + io_ranks, |ctx, tracer| {
            body(&cycle, ctx, tracer)
        });

        let mut trace = Trace::new(format!("{}-real", cycle.name));
        let mut analysis = Ensemble::new(mesh, Matrix::zeros(mesh.n(), cycle.alive.len()));
        let mut covered = 0;
        let mut echo = None;
        for (res, spans) in results {
            trace.extend(spans);
            match res {
                Ok(analyzed) => {
                    for (target, local) in analyzed {
                        covered += target.npoints();
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
        if covered != mesh.n() {
            return Err(EnkfError::GeometryMismatch(format!(
                "the {} program's Compute targets cover {covered} of {} points",
                cycle.name,
                mesh.n()
            )));
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

    /// `rank`'s ops, in program order.
    pub fn ops(&self, rank: usize) -> &[CycleOp] {
        &self.ops[rank]
    }

    /// The error of an op the rank's body cannot execute where it stands —
    /// an emitter/interpreter mismatch, surfaced typed like every other
    /// rank failure.
    pub fn foreign_op(&self, rank: usize, op: CycleOp) -> EnkfError {
        SubstrateError::HelperFailed {
            rank,
            detail: format!("{op:?} cannot run here in the {} program", self.name),
        }
        .into()
    }

    /// Fail with [`SubstrateError::RankCrashed`] when the plan kills
    /// `rank` (it stops responding — peers must time out).
    pub fn check_crash(&self, rank: usize) -> Result<()> {
        match self.injector.crash_stage(rank) {
            Some(stage) => Err(SubstrateError::RankCrashed { rank, stage }.into()),
            None => Ok(()),
        }
    }

    /// Execute a `Read` op. A dropped member still burns its
    /// injected-failure spans (the wall cost of deciding to drop is
    /// accounted for) and then yields `None`.
    pub fn read(
        &self,
        tracer: &mut RankTracer,
        stage: Option<usize>,
        member: usize,
        region: &RegionRect,
    ) -> std::result::Result<Option<RegionData>, SubstrateError> {
        let store = self.setup.store;
        match read_region_adaptive(
            store,
            tracer,
            stage,
            member,
            region,
            &self.injector,
            self.monitor,
        ) {
            Ok(data) => Ok(Some(data)),
            Err(_) if self.dropped.contains(&member) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Execute a `Send` op of `bytes` bytes: the plan's message delay
    /// stalls it, and serialization (`payload`) is charged to the send span
    /// — mirroring the model's sender-side service — even when the plan
    /// then drops the message.
    pub fn send(
        &self,
        tracer: &mut RankTracer,
        ctx: &RankCtx<Msg>,
        stage: Option<usize>,
        to: usize,
        bytes: u64,
        payload: impl FnOnce() -> Msg,
    ) {
        let delay = self.injector.send_delay(ctx.rank(), to);
        let dropped = self.injector.message_dropped(ctx.rank(), to);
        tracer.send(stage, to, bytes, || {
            if delay > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(delay));
            }
            let msg = payload();
            if !dropped {
                ctx.send(to, stage.unwrap_or(0) as u64, msg);
            }
        });
    }

    /// Unblock `peers` waiting on this rank's messages before it bails out.
    pub fn abort(&self, ctx: &RankCtx<Msg>, peers: impl IntoIterator<Item = usize>, reason: &str) {
        for peer in peers {
            ctx.send(
                peer,
                0,
                Msg::Abort {
                    reason: reason.to_string(),
                },
            );
        }
    }

    /// Execute an `Await` op: receive `sends` messages ([`next_msg`])
    /// inside one wait span, handing each to `deliver`.
    pub fn receive(
        &self,
        tracer: &mut RankTracer,
        ctx: &mut RankCtx<Msg>,
        stage: Option<usize>,
        sends: usize,
        mut deliver: impl FnMut(Msg) -> Result<()>,
    ) -> Result<()> {
        tracer.wait(stage, || {
            (0..sends).try_for_each(|_| deliver(next_msg(ctx, self.timeout)?))
        })
    }

    /// `rank`'s straggler dilation (reported to the monitor: call once per
    /// rank and cycle).
    pub fn dilation(&self, rank: usize) -> f64 {
        compute_dilation(&self.injector, self.monitor, rank)
    }

    /// Time one compute span of `rank` under its straggler dilation.
    pub fn compute<T>(
        &self,
        tracer: &mut RankTracer,
        stage: Option<usize>,
        dilation: f64,
        work: impl FnOnce() -> T,
    ) -> T {
        tracer.compute(stage, || {
            let start = Instant::now();
            let out = work();
            dilate(start, dilation);
            out
        })
    }
}
