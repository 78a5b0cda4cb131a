//! Supervised multi-cycle assimilation campaigns with crash recovery.
//!
//! A *campaign* runs K forecast–observe–analyze cycles of a
//! [`CycledExperiment`] through one of the parallel executors
//! (L/P/S/D-EnKF), checkpointing the resumable state after every cycle via
//! [`enkf_ckpt::CheckpointStore`]. Substrate failures — rank crashes, helper
//! thread deaths, retry exhaustion, receive timeouts — become *recoveries*:
//! tear the cycle down, restore the last durable checkpoint **from disk**,
//! and re-run under an exponential-backoff restart budget. Members the
//! fault plan makes unrecoverable degrade the campaign to the N−1 path
//! (the ensemble continues on the survivors) instead of consuming restarts.
//!
//! **Who decides, who acts.** Every decision of a campaign — which cycle
//! and attempt runs under which projected fault plan, whether a failure is
//! restarted, degraded or given up on, when to commit, drain and restore —
//! is made once, by the pure state machine in `supervisor.rs`. This module
//! is its **executing driver**: [`run_campaign_ctx`] is one loop over the
//! supervisor's actions, each carried out on the real substrate:
//!
//! | action | what this driver does |
//! |---|---|
//! | `Commit { initial }` | snapshot the experiment; `ckpt.save`, or hand it to the background writer (pipelined, non-initial) |
//! | `Attempt(fcfg)` | refresh the work store with the inflated background (`write_ensemble`: every live member, in place once its file exists), run the executor under `fcfg`, report completed / failed |
//! | `Recover(backoff)` | sleep the backoff (wall clock) or account it (virtual clock) inside a recovery span |
//! | `Drain` | wait out the in-flight asynchronous write, fold its spans in |
//! | `Restore` | `load_latest` from disk, rebuild the experiment, report what was found |
//! | `Finish` / `GiveUp` | assemble the report / fail with the supervisor's error |
//!
//! [`crate::model_campaign_adaptive`] is the **pricing driver** of the same
//! supervisor: the same actions, turned into virtual seconds. The two
//! cannot disagree on what a campaign does, only on what it costs.
//!
//! Lost members are tracked by **original index**: once a cycle completed
//! without a member, the supervisor renumbers every member-indexed plan
//! entry onto the survivors' slots, so the loss is absorbed exactly once
//! and [`CampaignReport::dropped_members`] names the members the campaign
//! started with. The checkpoint stores neither the set nor the switch: a
//! resumed campaign re-derives both from the plan and the ensemble size it
//! finds on disk.
//!
//! Restoring from disk even for in-process recoveries is what makes the
//! headline invariant hold: **kill–resume determinism**. A campaign killed
//! after any completed cycle and resumed from the checkpoint directory
//! produces bit-identical final ensembles, per-cycle statistics, and
//! per-cycle trace digests to an uninterrupted run — recovery replays the
//! exact RNG cursor, truth state and ensembles the uninterrupted run had at
//! that cycle boundary, so there is nothing left to diverge.
//!
//! With [`CkptMode::Pipelined`] each checkpoint write moves off the
//! critical path: cycle k's durable write runs on a background
//! [`AsyncCheckpointer`] thread while cycle k+1's forecast and read phase
//! proceed, with at most one write in flight and the supervisor's drain
//! barriers at campaign end and before every restore (an error return
//! joins the writer with the scope). The durable frontier then lags the
//! computed frontier by at most one cycle; recovery always restores the
//! last *durable* cycle, and kill–resume determinism is untouched (cycle
//! digests hash executor traces only, and replays from an older frontier
//! are bit-identical).

use crate::exec::{run_cycle, setup::AssimilationSetup};
use crate::program::ModelVariant;
use crate::supervisor::{Action, Supervisor};
use enkf_ckpt::{fnv64, AsyncCheckpointer, CampaignCheckpoint, CheckpointStore, CkptError};
use enkf_core::{inflated, EnkfError, Ensemble, LocalAnalysis};
use enkf_data::{write_ensemble, CycleConfig, CycleState, CycleStats, CycledExperiment};
use enkf_fault::{FaultConfig, RetryPolicy};
use enkf_grid::Mesh;
use enkf_health::{HealthMonitor, HealthParams, HealthSnapshot};
use enkf_pfs::FileStore;
use enkf_trace::{RankTracer, Role, Trace};
use enkf_tuning::Params;
use std::time::{Duration, Instant};

/// Which parallel variant a campaign drives. All four share the
/// supervisor, the checkpoint format and the recovery state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignExecutor {
    /// Single-reader baseline (§6).
    LEnkf {
        /// Sub-domains along longitude.
        nsdx: usize,
        /// Sub-domains along latitude.
        nsdy: usize,
    },
    /// Block-reading baseline (Fig. 3).
    PEnkf {
        /// Sub-domains along longitude.
        nsdx: usize,
        /// Sub-domains along latitude.
        nsdy: usize,
    },
    /// The paper's co-designed variant (Figs. 6–8).
    SEnkf(Params),
    /// The distributed-array non-sequential variant: `shards` state shards,
    /// one batched analysis with a selectable `C⁻¹` kernel.
    DEnkf {
        /// State shards (= ranks).
        shards: usize,
        /// Kernel applying `C⁻¹` in the batched transform.
        kernel: enkf_core::BatchedKernel,
    },
}

impl CampaignExecutor {
    /// The variant whose cycle program the executor runs — and the DES
    /// prices. The D-EnKF kernel choice changes flops, not operation
    /// structure, so one program (keyed by shard count alone) serves both
    /// kernels; [`run_cycle`] takes the kernel from the executor.
    pub fn variant(&self) -> ModelVariant {
        match *self {
            CampaignExecutor::LEnkf { nsdx, nsdy } => ModelVariant::LEnkf { nsdx, nsdy },
            CampaignExecutor::PEnkf { nsdx, nsdy } => ModelVariant::PEnkf { nsdx, nsdy },
            CampaignExecutor::SEnkf(p) => ModelVariant::SEnkf(p),
            CampaignExecutor::DEnkf { shards, .. } => ModelVariant::DEnkf { shards },
        }
    }
}

/// Configuration of a supervised campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Experiment mesh.
    pub mesh: Mesh,
    /// Cycles to complete.
    pub cycles: usize,
    /// Initial ensemble size.
    pub members: usize,
    /// Twin-experiment cycle configuration.
    pub cycle: CycleConfig,
    /// Campaign seed (drives truth, ensembles, observation noise).
    pub seed: u64,
    /// Local analysis kernel.
    pub analysis: LocalAnalysis,
    /// Multiplicative background inflation applied before each analysis.
    pub inflation: f64,
    /// Restart budget: how many recoveries per cycle, with what backoff.
    pub restart: RetryPolicy,
}

impl CampaignConfig {
    /// Fingerprint of everything that must match for a checkpoint to be
    /// resumable: mesh, members, seed, cycle physics, analysis kernel,
    /// inflation, and the executor (a different executor would change the
    /// per-cycle trace digests).
    pub(crate) fn fingerprint(&self, exec: &CampaignExecutor) -> u64 {
        fnv64(
            format!(
                "{:?}|{}|{}|{:?}|{:?}|{}|{:?}",
                self.mesh, self.members, self.seed, self.cycle, self.analysis, self.inflation, exec
            )
            .as_bytes(),
        )
    }
}

/// How the supervisor spends restart backoff between recovery attempts.
///
/// The real deployment sleeps wall-clock time ([`BackoffClock::Wall`]),
/// but that clock is injectable so the scheduler and conformance suites
/// run recoveries in virtual time: [`BackoffClock::Virtual`] skips the
/// sleep and accounts the would-be delay in
/// [`CampaignReport::virtual_backoff`] instead. Both clocks take the
/// identical recovery path — same checkpoint restores, same trace
/// operation structure (digests exclude durations), same results — so
/// tests lose the seconds of dead sleeping, not coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackoffClock {
    /// Sleep restart backoffs on the wall clock (production behaviour).
    #[default]
    Wall,
    /// Account restart backoffs in virtual time without sleeping.
    Virtual,
}

/// How the supervisor commits per-cycle checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptMode {
    /// Write each checkpoint on the critical path before starting the next
    /// cycle (the PR 5 behaviour; durable frontier == computed frontier).
    #[default]
    Sync,
    /// Hand each checkpoint to a background writer and overlap the write
    /// with the next cycle's forecast and read phase. At most one write is
    /// in flight; the durable frontier lags by ≤ 1 cycle.
    Pipelined,
}

/// Per-invocation context of a supervised campaign: who the campaign
/// belongs to and how backoff time passes. [`run_campaign`] uses the
/// default (anonymous tenant, wall-clock backoff); the multi-tenant
/// scheduler dispatches through [`run_campaign_ctx`] with a tenant tag and
/// a virtual clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignCtx {
    /// `(tenant, job)` stamped on every span of the campaign trace.
    pub tenant: Option<(u32, u32)>,
    /// The restart-backoff clock.
    pub backoff: BackoffClock,
    /// Synchronous or pipelined checkpoint commits.
    pub ckpt_mode: CkptMode,
    /// Online health monitoring: `Some(params)` attaches a cross-cycle
    /// [`HealthMonitor`] — each cycle runs through the executors' adaptive
    /// read path (blacklisted-OST members last, speculative duplicates,
    /// bounded retries) and the detectors step at every
    /// successful cycle boundary. Detector state is in-memory only: a
    /// campaign resumed from a checkpoint restarts its detectors cold
    /// (conservative — probation clears, suspicion re-accrues), so the
    /// kill–resume bit-identity guarantee applies to non-adaptive
    /// campaigns; adaptive campaigns are deterministic per uninterrupted
    /// run of a seeded plan.
    pub health: Option<HealthParams>,
}

/// One recovery action the supervisor took.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Cycle being attempted when the failure hit.
    pub cycle: usize,
    /// Attempt number within the cycle (0 = first run).
    pub attempt: u32,
    /// The substrate failure, rendered.
    pub error: String,
    /// Whether this recovery degraded the campaign to the N−1 path
    /// instead of consuming restart budget.
    pub degraded: bool,
    /// Checkpoint cycle the supervisor restored from.
    pub restored_from: usize,
}

/// What a completed campaign produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-cycle twin-experiment statistics, cycle 0..K.
    pub stats: Vec<CycleStats>,
    /// FNV-64 hash of each cycle's executor trace digest — the kill–resume
    /// conformance artifact (bit-identical across interruptions).
    pub cycle_digests: Vec<u64>,
    /// The final analysis ensemble.
    pub final_analysis: Ensemble,
    /// Executor spans of every cycle run in *this* process, plus the
    /// supervisor's checkpoint/restore/recovery spans.
    pub trace: Trace,
    /// Every recovery the supervisor performed.
    pub recoveries: Vec<RecoveryEvent>,
    /// `Some(c)` when the campaign resumed from an on-disk checkpoint at
    /// cycle `c` instead of starting fresh.
    pub resumed_from: Option<usize>,
    /// Whether the campaign finished on the degraded (N−k) path.
    pub degraded: bool,
    /// Members dropped by degradation (by original index).
    pub dropped_members: Vec<usize>,
    /// Wall-clock seconds for this process's portion of the campaign.
    pub wall_time: f64,
    /// Restart-backoff seconds accounted but not slept
    /// ([`BackoffClock::Virtual`]); zero under the wall clock.
    pub virtual_backoff: f64,
    /// One [`HealthSnapshot`] per completed cycle when the campaign ran
    /// with [`CampaignCtx::health`]; empty otherwise. The scheduler feeds
    /// these to its rebalance to reprice SLAs against degraded capacity.
    pub health_snapshots: Vec<HealthSnapshot>,
}

/// Supervisor-level failures.
#[derive(Debug)]
pub enum CampaignError {
    /// Saving or loading a checkpoint failed.
    Checkpoint(CkptError),
    /// Writing the background ensemble to the work store failed.
    Io(std::io::Error),
    /// The analysis itself failed for a non-substrate reason (geometry,
    /// linear algebra) — restarting cannot help.
    Analysis(EnkfError),
    /// A cycle kept failing past the restart budget.
    RestartBudgetExhausted {
        /// The cycle that would not complete.
        cycle: usize,
        /// Attempts made (initial + restarts).
        attempts: u32,
        /// The last substrate failure, rendered.
        last: String,
    },
    /// Recovery needed a checkpoint but no durable one survives.
    NoCheckpoint {
        /// The cycle being recovered.
        cycle: usize,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::Io(e) => write!(f, "work-store write failed: {e}"),
            CampaignError::Analysis(e) => write!(f, "analysis failed: {e}"),
            CampaignError::RestartBudgetExhausted {
                cycle,
                attempts,
                last,
            } => write!(
                f,
                "cycle {cycle} failed {attempts} attempts, restart budget exhausted: {last}"
            ),
            CampaignError::NoCheckpoint { cycle } => write!(
                f,
                "recovery of cycle {cycle} found no durable checkpoint to restore"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<CkptError> for CampaignError {
    fn from(e: CkptError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

fn experiment_from(cfg: &CampaignConfig, ck: &CampaignCheckpoint) -> CycledExperiment {
    CycledExperiment::restore(
        cfg.mesh,
        cfg.members,
        cfg.cycle,
        cfg.seed,
        CycleState {
            cycle: ck.cycle,
            rng_cursor: ck.rng_cursor,
            truth: ck.truth.clone(),
            background: ck.analysis.clone(),
            free_run: ck.free_run.clone(),
        },
    )
}

/// Run (or resume) a supervised campaign.
///
/// `work` is the ensemble work store the executors read from — each cycle
/// the inflated background is written there before the executor runs.
/// `ckpt` is the durable checkpoint directory. One without an intact
/// durable cycle starts the campaign fresh, committing the initial state as
/// cycle 0's recovery line before running anything. Otherwise the newest
/// intact durable checkpoint decides: one with a matching
/// `CampaignConfig::fingerprint` is resumed from, and one written by
/// another configuration — another seed, executor or analysis, or a build
/// whose `CampaignConfig` prints differently — is refused with
/// [`CampaignError::Checkpoint`]`(`[`CkptError::ConfigMismatch`]`)`,
/// leaving the directory untouched (starting fresh would prune the other
/// campaign's cycles).
///
/// Failure handling per cycle attempt — decided by the `Supervisor`,
/// carried out here:
///
/// * `SubstrateError::Unrecoverable` — a member is *permanently* lost:
///   restore the checkpoint and re-run degraded (N−1); does not consume
///   restart budget, and the member is lost once (later cycles see the
///   plan renumbered onto the survivors).
/// * Any other `SubstrateError` (crash, helper failure, timeout, retry
///   exhaustion) — transient: sleep the restart backoff, restore the last
///   durable checkpoint from disk, re-run. Cycle-scoped crashes in the
///   plan fire only on attempt 0, modelling a replaced node.
/// * Non-substrate errors abort the campaign
///   ([`CampaignError::Analysis`]).
pub fn run_campaign(
    work: &FileStore,
    ckpt: &CheckpointStore,
    exec: &CampaignExecutor,
    cfg: &CampaignConfig,
    fault: &FaultConfig,
) -> Result<CampaignReport, CampaignError> {
    run_campaign_ctx(work, ckpt, exec, cfg, fault, &CampaignCtx::default())
}

/// [`run_campaign`] with an explicit [`CampaignCtx`]: a tenant/job tag
/// stamped on the campaign trace and an injectable restart-backoff clock.
///
/// This is the *executing driver* of the campaign `Supervisor`: one loop
/// over its actions, each carried out on the real substrate. It decides
/// nothing — which cycle, which attempt, under which plan, whether to
/// restart, degrade or give up are all the supervisor's.
pub fn run_campaign_ctx(
    work: &FileStore,
    ckpt: &CheckpointStore,
    exec: &CampaignExecutor,
    cfg: &CampaignConfig,
    fault: &FaultConfig,
    ctx: &CampaignCtx,
) -> Result<CampaignReport, CampaignError> {
    let t0 = Instant::now();
    let fp = cfg.fingerprint(exec);
    // The supervisor traces as the rank after the executor's last, so its
    // spans never collide with an executor rank.
    let (compute_ranks, io_ranks) = exec.variant().rank_counts();
    let mut tracer = RankTracer::new(compute_ranks + io_ranks, t0);
    tracer.set_role(Role::Io);
    let io = |e| CampaignError::Checkpoint(CkptError::Io(e));
    let mut trace = Trace::new("campaign-real");
    let mut virtual_backoff = 0.0f64;
    let mut monitor = ctx.health.map(HealthMonitor::new);

    let resumed = ckpt.load_latest(fp, Some(&mut tracer))?.map(|(ck, _)| ck);
    let resumed_from = resumed.as_ref().map(|ck| ck.cycle);
    let (mut exp, mut stats) = match &resumed {
        Some(ck) => (experiment_from(cfg, ck), ck.stats.clone()),
        None => (
            CycledExperiment::new(cfg.mesh, cfg.members, cfg.cycle, cfg.seed),
            Vec::new(),
        ),
    };
    let resumed = resumed.map(|ck| (ck.cycle, ck.analysis.size(), ck.cycle_digests));
    let mon = monitor.as_mut();
    let mut sup = Supervisor::new(cfg.cycles, cfg.members, cfg.restart, fault, mon, resumed);
    std::thread::scope(|s| {
        // Pipelined commits go to a background writer that traces on a
        // fork of the supervisor tracer (same rank, role and epoch), so
        // pipelined and synchronous campaigns emit the identical Ckpt span
        // multiset. Synchronous campaigns spawn nothing.
        let writer = (ctx.ckpt_mode == CkptMode::Pipelined)
            .then(|| AsyncCheckpointer::spawn(s, ckpt, tracer.fork()));
        loop {
            match sup.next() {
                Action::Commit { initial } => {
                    let state = exp.snapshot();
                    let snapshot = CampaignCheckpoint {
                        cycle: state.cycle,
                        seed: cfg.seed,
                        members0: cfg.members,
                        rng_cursor: state.rng_cursor,
                        config_fp: fp,
                        truth: state.truth,
                        analysis: state.background,
                        free_run: state.free_run,
                        stats: stats.clone(),
                        cycle_digests: sup.digests.clone(),
                    };
                    match &writer {
                        // Hand the O(1) snapshot over and start the next
                        // cycle immediately; blocks only while the previous
                        // write is still in flight.
                        Some(w) if !initial => w.save_async(snapshot).map_err(io)?,
                        _ => ckpt.save(&snapshot, Some(&mut tracer)).map_err(io)?,
                    }
                }
                Action::Attempt(fcfg) => {
                    let (mut digest, mut dropped) = (0, 0);
                    let ran = exp.run_cycle(|bg, obs| {
                        let inflated_bg = inflated(bg, cfg.inflation);
                        write_ensemble(work, &inflated_bg).map_err(CampaignError::Io)?;
                        let setup = AssimilationSetup {
                            store: work,
                            members: inflated_bg.size(),
                            observations: obs,
                            analysis: cfg.analysis,
                        };
                        let mon = sup.monitor.as_deref();
                        let (analysis, report, cycle_trace) = run_cycle(&setup, *exec, &fcfg, mon)
                            .map_err(CampaignError::Analysis)?;
                        digest = fnv64(cycle_trace.digest().as_bytes());
                        dropped = report.dropped_members.len();
                        trace.extend(cycle_trace.spans().iter().cloned());
                        Ok(analysis)
                    });
                    match ran {
                        Ok(cycle_stats) => {
                            stats.push(cycle_stats);
                            sup.completed(digest, dropped);
                        }
                        Err(CampaignError::Analysis(EnkfError::Substrate(se))) => sup.failed(se),
                        Err(e) => return Err(e),
                    }
                }
                Action::Recover(backoff) => {
                    let seconds = backoff.unwrap_or(0.0);
                    tracer.recovery(|| match ctx.backoff {
                        BackoffClock::Wall => std::thread::sleep(Duration::from_secs_f64(seconds)),
                        BackoffClock::Virtual => virtual_backoff += seconds,
                    });
                }
                Action::Drain => {
                    // Fold the writer's spans into the campaign trace and
                    // surface a deferred write error.
                    if let Some(w) = &writer {
                        let (spans, res) = w.drain();
                        trace.extend(spans);
                        res.map_err(io)?;
                    }
                }
                Action::Restore => {
                    let Some((ck, _skipped)) = ckpt.load_latest(fp, Some(&mut tracer))? else {
                        return Err(CampaignError::NoCheckpoint { cycle: sup.cycle });
                    };
                    exp = experiment_from(cfg, &ck);
                    stats = ck.stats;
                    sup.restored(ck.cycle, ck.analysis.size());
                }
                Action::Finish => return Ok(()),
                Action::GiveUp => return Err(sup.gave_up()),
            }
        }
    })?;

    trace.extend(tracer.into_spans());
    if let Some((tenant, job)) = ctx.tenant {
        trace.tag_tenant(tenant, job);
    }
    Ok(CampaignReport {
        stats,
        final_analysis: exp.background().clone(),
        trace,
        resumed_from,
        dropped_members: sup.lost().to_vec(),
        degraded: sup.degraded,
        cycle_digests: sup.digests,
        recoveries: sup.recoveries,
        health_snapshots: sup.health_snapshots,
        wall_time: t0.elapsed().as_secs_f64(),
        virtual_backoff,
    })
}
