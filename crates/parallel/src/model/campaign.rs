//! DES model of a supervised, checkpointed campaign.
//!
//! The **pricing driver** of the campaign supervisor (`supervisor.rs`).
//! The supervisor decides what a campaign does — which cycle and attempt
//! runs under which projected plan, whether a failure restarts, degrades or
//! ends the campaign, when to commit, drain and restore — and
//! [`crate::campaign::run_campaign_ctx`] carries those actions out. This
//! module loops over the *same* actions and turns each into virtual
//! seconds and spans on one running clock:
//!
//! | action | what it costs here |
//! |---|---|
//! | `Commit { initial }` | one serial sweep of the live members; queued behind the next cycle when pipelined and not initial |
//! | `Attempt(fcfg)` | a prologue failure (lost member, degraded off) costs nothing; a crash at stage `s` costs `s/L` of the cycle plus the receive timeout; a completed cycle its makespan plus `Δ + E` of a write draining behind it |
//! | `Recover(backoff)` | the backoff, on top of the failed attempt |
//! | `Drain` | what is left of the in-flight write; before a restore it closes the one recovery span |
//! | `Restore` | one serial sweep of reads — or, without a recovery line, everything done so far |
//! | `Finish` / `GiveUp` | the outcome / the supervisor's error, rendered |
//!
//! What stays here is pricing, not policy. Cycles are not re-simulated K
//! times: a cycle's operation structure is determined by the ensemble size
//! and the fault configuration, so one single-cycle DES run per distinct
//! `(members, configuration)` is replayed along the clock (a campaign that
//! loses a member prices the shrunken cycles — reads and checkpoint sweeps
//! alike — with the surviving count). Checkpoint and restore I/O is costed
//! through the same OST service function the modeled PFS uses
//! ([`enkf_pfs::PfsParams::read_service`]): one seek plus `8·n` bytes per
//! member, serial on the supervisor agent (matching the real supervisor,
//! which writes members through the `FileStore` pooled path one at a time).
//!
//! With `checkpoint: false` the model reproduces the no-recovery-line
//! baseline: a crash throws away *all* completed cycles, which is the
//! comparison the Fig. 14-style MTTR sweep (the reproduction's `mttr` row)
//! tabulates.

use super::{model_cycle, model_outcome, ModelConfig, ModelOutcome};
use crate::exec::resolve_dropout;
use crate::program::{Emitter, ModelVariant};
use crate::supervisor::{Action, Supervisor};
use enkf_ckpt::fnv64;
use enkf_fault::{FaultConfig, FaultInjector, RankCrash, RetryPolicy, SubstrateError, OSTS};
use enkf_health::{HealthMonitor, HealthSnapshot};
use enkf_pfs::STREAMS_PER_OST;
use enkf_trace::{Op, OpTag, Role, Span, Trace};

/// Campaign-level plan for the model.
#[derive(Debug, Clone, Copy)]
pub struct CampaignModelPlan {
    /// Cycles to complete.
    pub cycles: usize,
    /// Whether the supervisor checkpoints after every cycle. `false`
    /// models the no-recovery-line baseline: a crash restarts the whole
    /// campaign from cycle 0.
    pub checkpoint: bool,
    /// Whether checkpoint writes overlap the next cycle
    /// ([`crate::CkptMode::Pipelined`]). Ignored without `checkpoint`.
    pub pipelined: bool,
    /// Restart backoff policy (mirrors `CampaignConfig::restart`).
    pub restart: RetryPolicy,
}

/// What the modeled campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignModelOutcome {
    /// Virtual end-to-end campaign runtime, seconds.
    pub makespan: f64,
    /// Virtual runtime of one clean assimilation cycle.
    pub cycle_makespan: f64,
    /// Virtual seconds one checkpoint set costs (serial member writes).
    pub checkpoint_time: f64,
    /// Virtual seconds one restore costs (serial member reads).
    pub restore_time: f64,
    /// Recoveries performed.
    pub restarts: u32,
    /// Virtual seconds lost to failed attempts, backoff and re-done
    /// cycles (everything a fault-free campaign would not have spent,
    /// excluding checkpoint I/O itself).
    pub lost_time: f64,
    /// Checkpoint seconds on the critical path: time the campaign is
    /// longer than it would be with free durability. Synchronous
    /// campaigns expose every sweep; pipelined campaigns expose only the
    /// initial/final sweeps, OST contention dilation, and backpressure
    /// tails.
    pub ckpt_exposed: f64,
    /// Checkpoint seconds hidden behind overlapped cycle work (zero for
    /// synchronous campaigns).
    pub ckpt_hidden: f64,
    /// The single-cycle model outcome the campaign was stitched from (the
    /// baseline, monitor-free cycle in adaptive campaigns).
    pub cycle: ModelOutcome,
    /// FNV-64 hash of each completed cycle's trace digest, in cycle order
    /// — comparable entry for entry with the real supervisor's
    /// `CampaignReport::cycle_digests`. Without a monitor every entry is
    /// the same replayed cycle; with one, cycles re-model under the
    /// evolving routing view.
    pub cycle_digests: Vec<u64>,
    /// One [`HealthSnapshot`] per completed cycle when a monitor was
    /// attached; empty otherwise.
    pub health_snapshots: Vec<HealthSnapshot>,
}

/// Model a K-cycle supervised campaign under `fcfg`. Cycle-scoped crashes
/// (`FaultPlan::with_crash_at_cycle`) fire on the first attempt of their
/// cycle, exactly like the real supervisor; all other faults apply to
/// every cycle (the per-cycle DES handles them). Returns the outcome plus
/// a campaign trace whose per-cycle digests equal the real supervisor's.
pub fn model_campaign(
    cfg: &ModelConfig,
    variant: &ModelVariant,
    camp: &CampaignModelPlan,
    fcfg: &FaultConfig,
) -> Result<(CampaignModelOutcome, Trace), String> {
    model_campaign_adaptive(cfg, variant, camp, fcfg, None)
}

/// One priced steady-state cycle: what a cycle costs with nothing crashing
/// and no monitor attached. Everything the price depends on is in the key
/// — the ensemble size and the fault configuration — so equal keys replay
/// one DES run.
struct Priced {
    key: (usize, FaultConfig),
    cycle: ModelOutcome,
    trace: Trace,
    digest: u64,
    /// The cycle's makespan against the `(S−1)/S` substrate a draining
    /// background write leaves it (`None`: not pipelined, or a single
    /// stream — writer and cycle serialize, overlap buys nothing).
    shared_makespan: Option<f64>,
}

/// [`model_campaign`] with online health monitoring. This is the *pricing
/// driver* of the campaign `Supervisor`, as [`crate::run_campaign_ctx`] is
/// its executing driver: one loop over the same actions, each turned into
/// virtual seconds and spans instead of being carried out. With a monitor
/// the replay shortcut is no longer sound — the frozen routing view evolves
/// at every cycle boundary, reshaping the next cycle's reads — so each
/// completed cycle re-runs the DES against the current view (the supervisor
/// folds the detectors at the boundary, on both sides). Crashed attempts
/// feed no observations on either side, and their partial work is priced
/// at the monitor-free cycle makespan. Under a common seeded plan the
/// returned per-cycle digests, health snapshots and recovery count equal
/// the real campaign's; a campaign the supervisor gives up on is an `Err`
/// here too.
pub fn model_campaign_adaptive(
    cfg: &ModelConfig,
    variant: &ModelVariant,
    camp: &CampaignModelPlan,
    fcfg: &FaultConfig,
    monitor: Option<&mut HealthMonitor>,
) -> Result<(CampaignModelOutcome, Trace), String> {
    let members0 = cfg.workload.members;
    let member_bytes = 8 * (cfg.workload.nx * cfg.workload.ny) as u64;
    let member_service = cfg.pfs.read_service(1, member_bytes);
    let (compute_ranks, io_ranks) = variant.rank_counts();
    let pipelined = camp.pipelined && camp.checkpoint;
    let streams = OSTS * STREAMS_PER_OST;
    let sized = |members: usize, share: f64| {
        let mut cfg = cfg.with_bandwidth_share(share);
        cfg.workload.members = members;
        cfg
    };
    let cycle_model = |members: usize, fcfg: &FaultConfig, mon: Option<&HealthMonitor>| {
        model_cycle(&sized(members, 1.0), variant, Default::default(), fcfg, mon)
    };
    let price = |key: (usize, FaultConfig)| -> Result<Priced, String> {
        let (cycle, trace) = cycle_model(key.0, &key.1, None)?;
        // Pipelined pricing: the background writer steals one of the
        // machine's `S = OSTS · STREAMS_PER_OST` PFS streams while it
        // drains, so the overlapped cycle runs against `(S−1)/S` of it.
        // Only its makespan is read, so no trace is built.
        let share = (streams - 1) as f64 / streams as f64;
        let shared_makespan = if pipelined {
            let shared = sized(key.0, share);
            Some(model_outcome(&shared, variant, Default::default(), &key.1, None)?.makespan)
        } else {
            None
        };
        Ok(Priced {
            digest: fnv64(trace.digest().as_bytes()),
            key,
            cycle,
            trace,
            shared_makespan,
        })
    };

    let mut trace = Trace::new("campaign-model");
    let (mut t, mut lost, mut ckpt_exposed) = (0.0f64, 0.0f64, 0.0f64);
    // Checkpoint sweeps by ensemble size (a degraded campaign shrinks).
    let mut sweeps = vec![0usize; members0 + 1];
    let sup_span = |op: Op, start: f64, dur: f64, bytes: u64, seeks: u64, member: Option<usize>| {
        let tag = OpTag {
            bytes,
            seeks,
            member,
            ..OpTag::default()
        };
        Span::new(compute_ranks + io_ranks, Role::Io, op, start, dur, tag)
    };
    let emit_io = |trace: &mut Trace, t: &mut f64, op: Op, members: usize| {
        for k in 0..members {
            trace.push(sup_span(op, *t, member_service, member_bytes, 1, Some(k)));
            *t += member_service;
        }
    };

    let mut priced: Vec<Priced> = Vec::new();
    // Pipelined: the sweep seconds of the write still draining in the
    // background (at most one, the real supervisor's backpressure bound).
    let mut inflight: Option<f64> = None;
    // A failed attempt awaiting its restore — the seconds it threw away so
    // far — and how long the last attempt ran (hiding an in-flight write).
    let (mut wasted, mut ran) = (None, 0.0f64);
    let mut sup = Supervisor::new(camp.cycles, members0, camp.restart, fcfg, monitor, None);
    loop {
        match sup.next() {
            Action::Commit { initial } if camp.checkpoint => {
                sweeps[sup.alive] += 1;
                let sweep = member_service * sup.alive as f64;
                let mut clock = t;
                emit_io(&mut trace, &mut clock, Op::Ckpt, sup.alive);
                // Pipelined: the write is queued now and drains behind the
                // next cycle — its spans sit on the overlapped timeline
                // without advancing the supervisor clock.
                inflight = (pipelined && !initial).then_some(sweep);
                if inflight.is_none() {
                    t = clock;
                    ckpt_exposed += sweep;
                }
            }
            Action::Commit { .. } => {}
            Action::Attempt(mut fcfg) => {
                // The key is the attempt as it would run had nothing crashed.
                let crash = fcfg.plan.crashes.iter().min_by_key(|c| c.stage).copied();
                fcfg.plan.crashes.clear();
                let key = (sup.alive, fcfg);
                let dropout = resolve_dropout(&FaultInjector::new(key.1.clone()), key.0);
                if let Err(enkf_core::EnkfError::Substrate(lost_member)) = dropout {
                    // The real cycle fails in its prologue, before any rank
                    // starts: it costs no cycle time.
                    (wasted, ran) = (Some(0.0), 0.0);
                    sup.failed(lost_member);
                    continue;
                }
                let base = match priced.iter().position(|p| p.key == key) {
                    Some(known) => &priced[known],
                    None => {
                        priced.push(price(key)?);
                        &priced[priced.len() - 1]
                    }
                };
                let m = base.cycle.makespan;
                if let Some(RankCrash { rank, stage }) = crash {
                    // The cycle dies entering `stage`; its peers detect it
                    // after the receive timeout.
                    ran = m * (stage as f64 / variant.layers() as f64).min(1.0);
                    wasted = Some(ran + base.key.1.recv_timeout);
                    sup.failed(SubstrateError::RankCrashed { rank, stage });
                    continue;
                }
                let adaptive;
                let (cycle, cycle_trace, digest) = match sup.monitor.as_deref() {
                    None => (&base.cycle, &base.trace, base.digest),
                    // Adaptive: this cycle's reads follow the current frozen
                    // view, so the DES is rebuilt.
                    Some(mon) => {
                        adaptive = cycle_model(sup.alive, &base.key.1, Some(mon))?;
                        let digest = fnv64(adaptive.1.digest().as_bytes());
                        (&adaptive.0, &adaptive.1, digest)
                    }
                };
                trace.extend(cycle_trace.spans().iter().cloned().map(|mut s| {
                    s.start += t;
                    s
                }));
                t += cycle.makespan;
                if let Some(c) = inflight.take() {
                    // The in-flight write contends for OST streams (the
                    // dilation `Δ`: the cycle slowdown prorated by how long
                    // the write overlaps) and must finish before this
                    // cycle's commit is handed over (the backpressure tail
                    // `E = max(0, C − M)`). Overlap stops being free as
                    // `Δ + E` nears `C`.
                    let dilation = base.shared_makespan.map_or(c.min(m), |shared| {
                        (shared - m).max(0.0) * c.min(m) / m.max(f64::MIN_POSITIVE)
                    });
                    let tail = (c - m).max(0.0);
                    t += dilation;
                    t += tail;
                    ckpt_exposed += dilation + tail;
                }
                ran = 0.0;
                sup.completed(digest, cycle.dropped_members.len());
            }
            Action::Recover(backoff) => {
                wasted = wasted.map(|w| w + backoff.unwrap_or(0.0));
                lost += wasted.unwrap_or(0.0);
            }
            Action::Drain => {
                // Whatever part of the in-flight write the partial cycle did
                // not already hide; at the end of the campaign, all of it.
                let drain = inflight.take().map_or(0.0, |c| (c - ran).max(0.0));
                if let Some(wasted) = wasted {
                    // One span covers the partial attempt, its detection,
                    // the backoff and the drain.
                    trace.push(sup_span(Op::Recovery, t, wasted + drain, 0, 0, None));
                }
                t += wasted.unwrap_or(0.0) + drain;
                ckpt_exposed += drain;
            }
            Action::Restore => {
                if camp.checkpoint {
                    // Every completed cycle was committed, so the recovery
                    // line is the start of the failed cycle.
                    emit_io(&mut trace, &mut t, Op::Restore, sup.alive);
                    sup.restored(sup.cycle, sup.alive);
                } else {
                    // No recovery line: everything completed so far is
                    // thrown away and the campaign restarts from cycle 0.
                    lost += t - wasted.unwrap_or(0.0);
                    sup.restored(0, members0);
                }
                wasted = None;
            }
            Action::Finish => break,
            Action::GiveUp => return Err(sup.gave_up().to_string()),
        }
    }

    let checkpoint_time = member_service * members0 as f64;
    let swept: f64 = (sweeps.iter().enumerate())
        .map(|(members, &n)| n as f64 * (member_service * members as f64))
        .sum();
    // The cycle the campaign was stitched from; a campaign that priced none
    // (zero cycles) still reports what one would cost.
    let cycle = match priced.into_iter().next() {
        Some(first) => first.cycle,
        None => price((members0, fcfg.clone()))?.cycle,
    };
    Ok((
        CampaignModelOutcome {
            makespan: t,
            cycle_makespan: cycle.makespan,
            checkpoint_time,
            restore_time: checkpoint_time,
            restarts: sup.recoveries.len() as u32,
            lost_time: lost,
            ckpt_exposed,
            ckpt_hidden: (swept - ckpt_exposed).max(0.0),
            cycle,
            cycle_digests: sup.digests,
            health_snapshots: sup.health_snapshots,
        },
        trace,
    ))
}
