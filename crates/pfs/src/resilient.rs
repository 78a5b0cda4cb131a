//! Retry-with-backoff, health-routed member reads — decided once, for the
//! real and the modeled file system.
//!
//! A member read is a short schedule of steps: an optional zero-duration
//! cancelled marker for a reroute, then per attempt a backoff, an injected
//! failure or the read itself. `weave_read` is the only place that schedule is
//! decided — the route (from the monitor's frozen
//! [`enkf_health::RouteView`]), the attempt budget, the monitor's
//! observation, and the [`OpTag`] of every step: *what the step is*
//! (footprint, fault kind, attempt index) is built there, once. Its two
//! arms only put a time on the tag:
//!
//! * the **real** arm ([`read_region_adaptive`]) sleeps the backoffs,
//!   performs (and discards) injected attempts so they cost real OST time,
//!   and has a [`RankTracer`] time each step into a span;
//! * the **modeled** arm ([`ModeledPfs::add_member_read`]) prices each step
//!   as one DES task carrying the tag.
//!
//! Both arms therefore produce the same spans under any seeded plan, which
//! is what keeps the real and modeled operation digests and fault events
//! (`enkf_trace::Trace::fault_events` — a projection of those spans, there
//! is no second log) identical, and both monitors fed the same
//! observations.

use crate::model::ModeledPfs;
use crate::store::{FileStore, RegionData};
use enkf_fault::{ost_of, replica_of, FaultInjector, ReadError, SubstrateError};
use enkf_grid::RegionRect;
use enkf_health::{HealthMonitor, ReadRoute};
use enkf_sim::engine::SimError;
use enkf_sim::{AgentId, Kind, Simulation};
use enkf_trace::{FaultKind, Op, OpTag, RankTracer};
use std::time::{Duration, Instant};

/// Sleep `(factor − 1) × elapsed` so an operation started at `start` takes
/// `factor ×` its natural wall time (OST slowdown and straggler dilation;
/// no-op at 1.0).
pub fn dilate(start: Instant, factor: f64) {
    if factor > 1.0 {
        let elapsed = start.elapsed().as_secs_f64();
        std::thread::sleep(Duration::from_secs_f64(elapsed * (factor - 1.0)));
    }
}

/// What one step of a member read's schedule costs; what the step *is* —
/// reroute marker, backoff, injected failure, the read — is its tag.
enum StepCost {
    /// An agent-local pause, seconds: the policy's deterministic backoff
    /// before a retry — or zero for a reroute's cancelled marker, which
    /// reads nothing and only carries the region's footprint into the
    /// trace.
    Pause(f64),
    /// A full service on the serving path. An attempt the plan fails by
    /// injection still occupies the path; its result is discarded.
    Service(ReadPath),
}

/// The path serving a member read: the OST and its service-dilation factor.
#[derive(Clone, Copy)]
struct ReadPath {
    ost: usize,
    factor: f64,
}

/// Decide and drive one read of `member`, whose tag on a first try (role,
/// stage, member, bytes, seeks) is `read`. The primary path is the
/// member's own OST ([`ost_of`]) at the plan's slowdown of it. A monitor
/// only decides the reroute: when its frozen view blacklists the primary,
/// the deterministic [`ReadRoute::Reroute::replica_wins`] picks the serving
/// path (the replica, when it is healthy and no slower), no duplicate read
/// is issued, and the reroute leaves a zero-duration
/// [`FaultKind::Cancelled`] marker. Then the
/// [`enkf_fault::RetryPolicy::attempts`] run: attempts
/// `0..fail_attempts` of the plan are [`FaultKind::Injected`] failures,
/// each retry is preceded by its [`FaultKind::Backoff`] (tagged with the
/// attempt it follows), and the read proper carries the attempt that issued
/// it; one that reports `Ok(false)` (a genuine I/O failure) consumes its
/// attempt. Returns whether the read was served; a served read feeds one
/// `(ost, member, factor)` observation back to the monitor.
fn weave_read<E>(
    injector: &FaultInjector,
    monitor: Option<&HealthMonitor>,
    member: usize,
    read: OpTag,
    mut step: impl FnMut(OpTag, StepCost) -> Result<bool, E>,
) -> Result<bool, E> {
    let fault = |kind, attempt| OpTag {
        fault: Some(kind),
        attempt,
        ..read
    };
    let ost = ost_of(member);
    let mut path = ReadPath {
        ost,
        factor: injector.ost_factor(ost),
    };
    if let Some(mon) = monitor {
        let replica_factor = injector.ost_factor(replica_of(ost));
        if let ReadRoute::Reroute {
            replica,
            replica_wins,
        } = mon.view().route(member, path.factor, replica_factor)
        {
            if replica_wins {
                path = ReadPath {
                    ost: replica,
                    factor: replica_factor,
                };
            }
            step(fault(FaultKind::Cancelled, 0), StepCost::Pause(0.0))?;
        }
    }
    let retry = injector.retry();
    let fails = injector.read_fail_attempts(member);
    for attempt in 0..retry.attempts() {
        if attempt > 0 {
            let backoff = OpTag {
                bytes: 0,
                seeks: 0,
                ..fault(FaultKind::Backoff, attempt - 1)
            };
            step(backoff, StepCost::Pause(retry.backoff(attempt - 1)))?;
        }
        if attempt < fails {
            step(fault(FaultKind::Injected, attempt), StepCost::Service(path))?;
        } else if step(OpTag { attempt, ..read }, StepCost::Service(path))? {
            if let Some(mon) = monitor {
                mon.observe_read(path.ost, member, path.factor);
            }
            return Ok(true);
        }
    }
    Ok(false)
}

/// Read `region` of member `member` through `weave_read`'s schedule —
/// the real arm: every step is timed into one span of its tag. Every
/// attempt is a [`FileStore::read_surface`]: it reads and charges every
/// level, and the returned view holds the surface only (`levels() == 1`).
/// Injected
/// attempts still perform the read (real disk time, real OST occupancy),
/// backoffs are slept, and the path's factor dilates every attempt's wall
/// time. When the attempts run out the last genuine [`ReadError`] (if any)
/// is the cause of [`SubstrateError::RetriesExhausted`], so degraded mode
/// completes N−1 instead of stalling.
///
/// `monitor == None` never reroutes: the spans are those of a plain
/// retried read (the no-fault parity guarantee).
pub fn read_region_adaptive(
    store: &FileStore,
    tracer: &mut RankTracer,
    stage: Option<usize>,
    member: usize,
    region: &RegionRect,
    injector: &FaultInjector,
    monitor: Option<&HealthMonitor>,
) -> Result<RegionData, SubstrateError> {
    let (seeks, bytes) = store.op_cost(region);
    let read = OpTag {
        stage,
        bytes,
        seeks,
        member: Some(member),
        ..OpTag::default()
    };
    // The last read attempt's result: the data, or the genuine error (if
    // any) that becomes the cause once the attempts run out.
    let mut outcome: Result<RegionData, Option<ReadError>> = Err(None);
    let _served = weave_read(injector, monitor, member, read, |tag, cost| {
        let attempt = |path: ReadPath| {
            let start = Instant::now();
            let out = store.read_surface(member, region);
            dilate(start, path.factor);
            out
        };
        match cost {
            StepCost::Pause(pause) => tracer.record(Op::Fault, tag, || {
                std::thread::sleep(Duration::from_secs_f64(pause));
            }),
            StepCost::Service(path) if tag.fault.is_some() => {
                tracer.record(Op::Fault, tag, || drop(attempt(path)))
            }
            StepCost::Service(path) => {
                outcome = tracer.record(Op::Read, tag, || attempt(path)).map_err(Some);
                return Ok(outcome.is_ok());
            }
        }
        Ok::<bool, std::convert::Infallible>(true)
    });
    match outcome {
        Ok(data) => Ok(data),
        // No retry policy and a genuine failure: surface it directly,
        // matching the behaviour of a bare read.
        Err(Some(cause)) if injector.retry().max_retries == 0 => Err(SubstrateError::Read(cause)),
        Err(cause) => Err(SubstrateError::RetriesExhausted {
            member,
            attempts: injector.retry().attempts(),
            cause,
        }),
    }
}

impl ModeledPfs {
    /// Add one member read of `seeks` / `bytes` to the DES through
    /// `weave_read`'s schedule — the modeled arm, one task per step on
    /// `agent` (whose index is the rank), each carrying the step's tag: a
    /// pause is an agent-local task, a service holds the serving OST; fault
    /// steps are `Fault` tasks, the read a `Read` task.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn add_member_read(
        &self,
        sim: &mut Simulation,
        agent: AgentId,
        injector: &FaultInjector,
        monitor: Option<&HealthMonitor>,
        io: bool,
        stage: Option<usize>,
        member: usize,
        seeks: u64,
        bytes: u64,
    ) -> Result<(), SimError> {
        let base = self.read_service(seeks, bytes);
        let read = OpTag {
            io,
            stage,
            bytes,
            seeks,
            member: Some(member),
            ..OpTag::default()
        };
        weave_read(injector, monitor, member, read, |tag, cost| {
            let kind = tag.fault.map_or(Kind::Read, |_| Kind::Fault);
            match cost {
                StepCost::Pause(pause) => sim.add_task_parts(agent, kind, pause, &[], &[], tag)?,
                StepCost::Service(path) => {
                    let ost = [self.ost(path.ost)];
                    sim.add_task_parts(agent, kind, base * path.factor, &ost, &[], tag)?
                }
            };
            Ok(true)
        })?;
        Ok(())
    }
}

/// [`read_region_adaptive`] without a monitor: the plain retried read,
/// returning a surface view (`levels() == 1`).
pub fn read_region_resilient(
    store: &FileStore,
    tracer: &mut RankTracer,
    stage: Option<usize>,
    member: usize,
    region: &RegionRect,
    injector: &FaultInjector,
) -> Result<RegionData, SubstrateError> {
    read_region_adaptive(store, tracer, stage, member, region, injector, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileStore, ScratchDir};
    use enkf_fault::{FaultConfig, FaultPlan, RetryPolicy};
    use enkf_grid::{FileLayout, Mesh};
    use std::time::Instant;

    fn store() -> (ScratchDir, FileStore) {
        let scratch = ScratchDir::new("resilient").unwrap();
        let mesh = Mesh::new(8, 4);
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        for k in 0..2 {
            let v: Vec<f64> = (0..mesh.n()).map(|i| (k * 100 + i) as f64).collect();
            store.write_member(k, &v).unwrap();
        }
        (scratch, store)
    }

    fn read_full_adaptive(
        store: &FileStore,
        tracer: &mut RankTracer,
        stage: Option<usize>,
        member: usize,
        injector: &FaultInjector,
        monitor: Option<&HealthMonitor>,
    ) -> Result<RegionData, SubstrateError> {
        let region = RegionRect::full(store.layout().mesh());
        read_region_adaptive(store, tracer, stage, member, &region, injector, monitor)
    }

    fn read_full_resilient(
        store: &FileStore,
        tracer: &mut RankTracer,
        stage: Option<usize>,
        member: usize,
        injector: &FaultInjector,
    ) -> Result<RegionData, SubstrateError> {
        read_full_adaptive(store, tracer, stage, member, injector, None)
    }

    fn tracer() -> RankTracer {
        RankTracer::new(0, Instant::now())
    }

    /// The modeled arm's read of member 1 under `plan` and `mon`'s view on
    /// a seek-free file system: the serving path's dilation (the makespan
    /// over the undilated service — the reroute's cancelled marker is free)
    /// and the trace.
    fn modeled_read(plan: &FaultPlan, mon: &HealthMonitor) -> (f64, enkf_trace::Trace) {
        let mut sim = Simulation::new();
        let params = crate::PfsParams {
            seek_time: 0.0,
            byte_time: 1e-6,
        };
        let pfs = ModeledPfs::register(&mut sim, params);
        let agent = sim.add_agent();
        let inj = FaultInjector::new(FaultConfig::degraded(plan.clone()));
        let bytes = 1_000_000;
        pfs.add_member_read(&mut sim, agent, &inj, Some(mon), false, None, 1, 0, bytes)
            .unwrap();
        let makespan = sim.run().unwrap().makespan;
        (
            makespan / pfs.read_service(0, bytes),
            sim.export_trace("modeled"),
        )
    }

    /// Whether the only fault event of `trace` is one reroute's cancelled
    /// marker.
    fn one_cancelled_read(trace: &enkf_trace::Trace) -> bool {
        let events = trace.fault_events(&[]);
        events.len() == 1 && events[0].kind == FaultKind::Cancelled
    }

    fn into_trace(t: RankTracer) -> enkf_trace::Trace {
        let mut trace = enkf_trace::Trace::new("test");
        for s in t.into_spans() {
            trace.push(s);
        }
        trace
    }

    #[test]
    fn no_fault_read_is_a_plain_read_span() {
        let (_s, store, inj) = {
            let (s, st) = store();
            (s, st, FaultInjector::new(FaultConfig::none()))
        };
        let mut t = tracer();
        let data = read_full_resilient(&store, &mut t, None, 0, &inj).unwrap();
        assert_eq!(data.len(), 32);
        let trace = into_trace(t);
        assert_eq!(trace.spans().len(), 1);
        assert!(trace.digest().contains("op=read"));
        assert!(!trace.digest().contains("op=fault"));
        assert!(trace.fault_events(&[]).is_empty());
    }

    #[test]
    fn injected_failures_retry_and_recover() {
        let (_s, st) = store();
        let plan = FaultPlan::new(7).with_read_fault(0, 2);
        let cfg = FaultConfig::degraded(plan).with_retry(RetryPolicy {
            max_retries: 3,
            base_backoff: 1e-6,
        });
        let inj = FaultInjector::new(cfg);
        let mut t = tracer();
        let data = read_full_resilient(&st, &mut t, Some(1), 0, &inj).unwrap();
        assert_eq!(data.len(), 32);
        // 2 injected fail spans + 2 backoff spans + 1 successful read.
        let trace = into_trace(t);
        let faults = trace
            .spans()
            .iter()
            .filter(|s| s.op.label() == "fault")
            .count();
        assert_eq!(faults, 4);
        let events: Vec<(FaultKind, Option<u32>)> = trace
            .fault_events(&[])
            .iter()
            .map(|e| (e.kind, e.attempt))
            .collect();
        assert_eq!(
            events,
            vec![
                (FaultKind::Injected, Some(0)),
                (FaultKind::Backoff, Some(0)),
                (FaultKind::Injected, Some(1)),
                (FaultKind::Backoff, Some(1)),
                (FaultKind::Recovered, Some(2)),
            ]
        );
        let read = trace.spans().last().unwrap();
        assert_eq!(
            (read.op, read.attempt),
            (Op::Read, 2),
            "served at attempt 2"
        );
    }

    #[test]
    fn unrecoverable_member_exhausts_retries_with_no_real_cause() {
        let (_s, st) = store();
        let plan = FaultPlan::new(7).with_unrecoverable_member(1);
        let cfg = FaultConfig::degraded(plan).with_retry(RetryPolicy {
            max_retries: 1,
            base_backoff: 1e-6,
        });
        let inj = FaultInjector::new(cfg);
        let mut t = tracer();
        let err = read_full_resilient(&st, &mut t, None, 1, &inj).unwrap_err();
        match err {
            SubstrateError::RetriesExhausted {
                member,
                attempts,
                cause,
            } => {
                assert_eq!(member, 1);
                assert_eq!(attempts, 2);
                assert!(cause.is_none(), "all failures were injected");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn adaptive_without_monitor_is_the_resilient_path() {
        let (_s, st) = store();
        let cfg = FaultConfig::degraded(FaultPlan::new(3).with_read_fault(0, 1)).with_retry(
            RetryPolicy {
                max_retries: 2,
                base_backoff: 1e-6,
            },
        );
        let inj_a = FaultInjector::new(cfg.clone());
        let mut ta = tracer();
        let da = read_full_adaptive(&st, &mut ta, None, 0, &inj_a, None).unwrap();
        let inj_b = FaultInjector::new(cfg);
        let mut tb = tracer();
        let db = read_full_resilient(&st, &mut tb, None, 0, &inj_b).unwrap();
        assert_eq!(da, db);
        let (ta, tb) = (into_trace(ta), into_trace(tb));
        assert_eq!(ta.digest(), tb.digest());
        assert_eq!(ta.fault_digest(&[]), tb.fault_digest(&[]));
        assert!(ta.fault_digest(&[]).contains("event=recovered"));
    }

    #[test]
    fn adaptive_with_clean_view_matches_resilient_and_observes() {
        let (_s, st) = store();
        let plan = FaultPlan::new(5).with_ost_slowdown(1, 1.0001);
        let cfg = FaultConfig::degraded(plan);
        let inj = FaultInjector::new(cfg.clone());
        let mon = HealthMonitor::new(enkf_health::HealthParams::default());
        let mut t = tracer();
        let d = read_full_adaptive(&st, &mut t, None, 1, &inj, Some(&mon)).unwrap();
        assert_eq!(d.len(), 32);
        let trace = into_trace(t);
        assert!(trace.digest().contains("op=read"));
        assert!(
            !trace.digest().contains("op=fault"),
            "no reroute on a clean view"
        );
        // The serving OST's dilation ratio was observed.
        let inj_ref = FaultInjector::new(cfg);
        let mut tr = tracer();
        let dr = read_full_resilient(&st, &mut tr, None, 1, &inj_ref).unwrap();
        assert_eq!(d, dr);
        assert_eq!(trace.digest(), into_trace(tr).digest());
    }

    #[test]
    fn blacklisted_ost_reroutes_to_the_replica() {
        let (_s, st) = store();
        // OST 1 is 4× slow; member 1 stripes to it, replica is OST 2.
        let plan = FaultPlan::new(9).with_ost_slowdown(1, 4.0);
        let inj = FaultInjector::new(FaultConfig::degraded(plan.clone()));
        let mut mon = HealthMonitor::new(enkf_health::HealthParams::default());
        // Warm-up cycle: the monitor sees the dilation and blacklists OST 1.
        mon.observe_read(1, 1, 4.0);
        let snap = mon.end_cycle();
        assert_eq!(snap.blacklisted_osts, vec![1]);

        let mut t = tracer();
        let d = read_full_adaptive(&st, &mut t, Some(0), 1, &inj, Some(&mon)).unwrap();
        assert_eq!(d.len(), 32, "payload is the real file contents");
        let trace = into_trace(t);
        // One reroute marker + one read on the serving path.
        assert!(trace.digest().contains("op=fault"));
        assert!(trace.digest().contains("op=read"));
        assert!(one_cancelled_read(&trace));
        // The healthy replica (OST 2) wins: the read is served undilated.
        let (dilation, modeled) = modeled_read(&plan, &mon);
        assert!(one_cancelled_read(&modeled));
        assert_eq!(dilation, 1.0, "healthy replica wins");
    }

    #[test]
    fn blacklisted_replica_keeps_the_primary_as_winner() {
        let (_s, st) = store();
        let plan = FaultPlan::new(9)
            .with_ost_slowdown(1, 4.0)
            .with_ost_slowdown(2, 8.0);
        let inj = FaultInjector::new(FaultConfig::degraded(plan.clone()));
        let mut mon = HealthMonitor::new(enkf_health::HealthParams::default());
        mon.observe_read(1, 1, 4.0);
        mon.observe_read(2, 2, 8.0);
        let snap = mon.end_cycle();
        assert_eq!(snap.blacklisted_osts, vec![1, 2]);
        let mut t = tracer();
        read_full_adaptive(&st, &mut t, None, 1, &inj, Some(&mon)).unwrap();
        assert!(one_cancelled_read(&into_trace(t)));
        let (dilation, _) = modeled_read(&plan, &mon);
        assert_eq!(dilation, 4.0, "a blacklisted replica must not win");
    }

    #[test]
    fn the_largest_retry_budget_still_serves_a_recoverable_read() {
        // `max_retries + 1` attempts saturate at `u32::MAX`: the dropout
        // decision and the read schedule share that one bound, so a member
        // that fails twice is recoverable and its read is served.
        let (_s, st) = store();
        let plan = FaultPlan::new(7).with_read_fault(0, 2);
        let cfg = FaultConfig::degraded(plan).with_retry(RetryPolicy {
            max_retries: u32::MAX,
            base_backoff: 0.0,
        });
        let inj = FaultInjector::new(cfg);
        assert!(!inj.is_unrecoverable(0));
        let mut t = tracer();
        let data = read_full_adaptive(&st, &mut t, None, 0, &inj, None).unwrap();
        assert_eq!(data.len(), 32);
        let trace = into_trace(t);
        let read = trace.spans().last().unwrap();
        assert_eq!(
            (read.op, read.attempt),
            (Op::Read, 2),
            "served at attempt 2"
        );
    }

    #[test]
    fn real_failure_without_retries_surfaces_read_error() {
        let (_s, st) = store();
        let inj = FaultInjector::new(FaultConfig::none());
        let mut t = tracer();
        let err = read_full_resilient(&st, &mut t, None, 9, &inj).unwrap_err();
        match err {
            SubstrateError::Read(e) => {
                assert_eq!(e.member, 9);
                assert_eq!(e.actual, 0);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn real_failure_with_retries_reports_cause() {
        let (_s, st) = store();
        let cfg = FaultConfig::none().with_retry(RetryPolicy {
            max_retries: 2,
            base_backoff: 1e-6,
        });
        let inj = FaultInjector::new(cfg);
        let mut t = tracer();
        let err = read_full_resilient(&st, &mut t, None, 9, &inj).unwrap_err();
        match err {
            SubstrateError::RetriesExhausted {
                member,
                attempts,
                cause,
            } => {
                assert_eq!(member, 9);
                assert_eq!(attempts, 3);
                assert_eq!(cause.unwrap().member, 9);
            }
            other => panic!("unexpected error: {other}"),
        }
    }
}
