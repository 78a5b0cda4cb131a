//! The dispatch loop: many tenants' campaigns arriving, queueing, and
//! sharing the machine, with the [`Scheduler`] making every decision.
//!
//! The crate-private loop `dispatch` is the scheduling policy, written
//! once. It owns virtual time; cycle durations come from the capacity
//! planner — each running campaign's next cycle is priced at the bandwidth
//! share it holds *when the cycle starts*, and that duration is then fixed
//! (a mid-cycle rebalance affects only subsequent cycles, the same
//! cycle boundaries at which the scheduler rebalances). It tells
//! its caller what to do through one callback: `Step::Start` when a job is
//! dispatched, `Step::Finish` when its last priced cycle completes. Two
//! entry points follow it: [`simulate`] ignores the steps, and
//! [`crate::run_real`] starts and joins real campaigns on them.
//!
//! The loop reads no real outcome, so its decisions are a pure function of
//! its inputs: a real run's [`MixOutcome`] equals the simulated one, and
//! that whole-outcome equality is the real-vs-model conformance check.
//!
//! Event ordering is total and deterministic: at any instant, cycle
//! completions fire first (in `JobId` order), then arrivals (in input
//! order), then one rebalance, then dispatch. Two runs with the same
//! seed, tenants and arrival list produce bit-identical outcomes.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::job::{JobId, JobSpec, Planner};
use crate::scheduler::{SchedConfig, Scheduler, ShareCheck, SubmitError};
use crate::tenant::{TenantId, TenantSpec};

/// One completed campaign's scheduling history.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job.
    pub id: JobId,
    /// Submit time.
    pub submit: f64,
    /// Dispatch time.
    pub dispatch: f64,
    /// Completion time.
    pub completion: f64,
    /// Dispatch-to-completion virtual seconds.
    pub service: f64,
    /// The planner's solo (whole-machine) completion prediction, if the
    /// job carried a model — what SLA gating and the fairness bench
    /// compare `service` against.
    pub solo_prediction: Option<f64>,
    /// Assimilation cycles run.
    pub cycles: usize,
    /// Ranks occupied while running.
    pub ranks: usize,
    /// The bandwidth share under which each cycle ran.
    pub shares_seen: Vec<f64>,
}

/// The outcome of scheduling one tenant mix — the scheduling record:
/// every dispatch and completion is in `records`, every refusal in
/// `rejected`, every share in `share_checks`.
#[derive(Debug, Clone, PartialEq)]
pub struct MixOutcome {
    /// Completed campaigns, in completion order.
    pub records: Vec<JobRecord>,
    /// Refused submits: `(time, tenant, why)`.
    pub rejected: Vec<(f64, TenantId, SubmitError)>,
    /// Jobs admitted to the queue but never dispatchable (e.g. a
    /// `max_running` quota of zero).
    pub unscheduled: Vec<JobId>,
    /// Share snapshots from every rebalance, for the fairness properties.
    pub share_checks: Vec<ShareCheck>,
    /// Virtual time of the last event.
    pub makespan: f64,
}

/// What the dispatch loop tells its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// The job was dispatched; it is arrival `usize` of the input list.
    Start(JobId, usize),
    /// The job's last priced cycle completed; its ranks are freed next.
    Finish(JobId),
}

/// Simulate `arrivals` (a `(time, tenant, spec)` list) from `tenants`
/// onto the machine in `cfg`, pricing cycles with `planner`. Arrivals
/// are processed in time order (ties by list position); one with a
/// non-finite time is refused ([`SubmitError::Malformed`]).
pub fn simulate<P: Planner>(
    cfg: &SchedConfig,
    tenants: &[TenantSpec],
    arrivals: &[(f64, TenantId, JobSpec)],
    planner: P,
) -> MixOutcome {
    dispatch(cfg, tenants, arrivals, planner, |_, _| {})
}

/// The one scheduling policy: run `arrivals` through a [`Scheduler`] in
/// virtual time and call `on(now, step)` at every dispatch and every final
/// completion. Nothing flows back from `on`.
pub(crate) fn dispatch<P: Planner>(
    cfg: &SchedConfig,
    tenants: &[TenantSpec],
    arrivals: &[(f64, TenantId, JobSpec)],
    planner: P,
    mut on: impl FnMut(f64, Step),
) -> MixOutcome {
    let mut sched = Scheduler::new(*cfg, planner);
    for t in tenants {
        sched.add_tenant(*t);
    }
    // An arrival whose time cannot be ordered is due before every other
    // one, and `submit` refuses it.
    let due_at = |i: usize| match arrivals[i].0 {
        t if t.is_finite() => t,
        _ => f64::NEG_INFINITY,
    };
    // A stable sort: ties keep list order.
    let mut order: Vec<usize> = (0..arrivals.len()).collect();
    order.sort_by(|&a, &b| due_at(a).partial_cmp(&due_at(b)).unwrap_or(Ordering::Equal));

    // Cycles in flight: `(end, duration)` per job.
    let mut inflight: BTreeMap<JobId, (f64, f64)> = BTreeMap::new();
    let mut arrival_of: BTreeMap<JobId, usize> = BTreeMap::new();
    let mut records: Vec<JobRecord> = Vec::new();
    let mut rejected: Vec<(f64, TenantId, SubmitError)> = Vec::new();
    let mut next_arrival = 0usize;
    let mut makespan = 0.0f64;

    loop {
        let arrival_t = order.get(next_arrival).map(|&i| due_at(i));
        let cycle_t = inflight
            .values()
            .map(|&(end, _)| end)
            .fold(f64::INFINITY, f64::min);
        let now = match arrival_t {
            Some(a) => a.min(cycle_t),
            None if inflight.is_empty() => break,
            None => cycle_t,
        };
        makespan = makespan.max(now);

        // 1. Cycle completions at `now`, in JobId order (BTreeMap gives it).
        // A cycle a planner priced at NaN ends at the first event, so the
        // loop always terminates.
        let (done, rest): (BTreeMap<_, _>, BTreeMap<_, _>) = std::mem::take(&mut inflight)
            .into_iter()
            .partition(|&(_, (end, _))| end <= now || end.is_nan());
        inflight = rest;
        let mut continuing: Vec<JobId> = Vec::new();
        for (id, (_, dur)) in done {
            sched.finish_cycle(id, dur);
            let Some((st, dispatch)) = sched.job(id).and_then(|st| Some((st, st.dispatch?))) else {
                continue;
            };
            if st.cycles_left > 0 {
                continuing.push(id);
                continue;
            }
            records.push(JobRecord {
                id,
                submit: st.submit,
                dispatch,
                completion: now,
                service: now - dispatch,
                solo_prediction: st.solo_prediction,
                cycles: st.spec.campaign.cycles,
                ranks: st.spec.ranks(),
                shares_seen: st.shares_seen.clone(),
            });
            on(now, Step::Finish(id));
            sched.finish_job(id, now);
        }

        // 2. Arrivals at `now`, in input order.
        while let Some(&i) = order.get(next_arrival).filter(|&&i| due_at(i) <= now) {
            let (t, tenant, spec) = &arrivals[i];
            match sched.submit(*t, *tenant, spec.clone()) {
                Ok(id) => {
                    arrival_of.insert(id, i);
                }
                Err(e) => rejected.push((*t, *tenant, e)),
            }
            next_arrival += 1;
        }

        // 3. Cycle-boundary rebalance, then price the next cycle of every
        // continuing job at its fresh share.
        sched.rebalance(now);
        for id in continuing {
            let step = sched.price_step(id);
            inflight.insert(id, (now + step.cycle, step.cycle));
        }

        // 4. Dispatch whatever now fits; a new job's first step pays the
        // dispatch-time initialization on top of its first cycle.
        for id in sched.try_dispatch(now) {
            let step = sched.price_step(id);
            let dur = step.init + step.cycle;
            inflight.insert(id, (now + dur, dur));
            if let Some(&i) = arrival_of.get(&id) {
                on(now, Step::Start(id, i));
            }
        }
    }

    MixOutcome {
        records,
        rejected,
        unscheduled: sched.queued().to_vec(),
        share_checks: sched.share_checks().to_vec(),
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{DesPlanner, JobModel, StepCost};
    use crate::scheduler::{ClusterCapacity, SharePolicy};
    use crate::tenant::Quota;
    use enkf_core::LocalAnalysis;
    use enkf_data::CycleConfig;
    use enkf_fault::RetryPolicy;
    use enkf_grid::{LocalizationRadius, Mesh};
    use enkf_parallel::{CampaignConfig, CampaignExecutor, ModelConfig, ModelVariant};
    use enkf_tuning::Workload;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Closed-form cycle costs: bigger jobs and thinner shares take longer.
    struct SynthPlanner;

    impl Planner for SynthPlanner {
        fn step(&mut self, _id: JobId, spec: &JobSpec, share: f64) -> StepCost {
            let work = (spec.campaign.members * spec.ranks()) as f64;
            StepCost {
                cycle: 0.5 + 0.01 * work / share,
                init: 0.1 / share,
            }
        }
    }

    fn spec(nsdx: usize, nsdy: usize, cycles: usize, bw_demand: f64) -> JobSpec {
        let campaign = CampaignConfig {
            mesh: Mesh::new(16, 8),
            cycles,
            members: 4,
            cycle: CycleConfig::default(),
            seed: 11,
            analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
            inflation: 1.0,
            restart: RetryPolicy::none(),
        };
        let mut spec = JobSpec::best_effort(CampaignExecutor::PEnkf { nsdx, nsdy }, campaign);
        spec.bw_demand = bw_demand;
        spec
    }

    fn config(ranks: usize, seed: u64) -> SchedConfig {
        SchedConfig {
            capacity: ClusterCapacity::tianhe2_like(ranks),
            policy: SharePolicy::FairShare,
            seed,
        }
    }

    /// The loop's outcome plus every step it reported, with its time.
    fn recorded(
        cfg: &SchedConfig,
        tenants: &[TenantSpec],
        arrivals: &[(f64, TenantId, JobSpec)],
    ) -> (MixOutcome, Vec<(f64, Step)>) {
        let mut steps = Vec::new();
        let out = dispatch(cfg, tenants, arrivals, SynthPlanner, |now, step| {
            steps.push((now, step))
        });
        (out, steps)
    }

    /// One generated job: `(nsdx, nsdy, cycles, bw tenths, arrival slot)`.
    type JobGene = (usize, usize, usize, u32, u32);

    fn mix_gene() -> impl Strategy<Value = Vec<(u32, usize, Vec<JobGene>)>> {
        let job = (1usize..=2, 1usize..=2, 0usize..=3, 2u32..=10, 0u32..=8);
        let tenant = (1u32..=4, 0usize..=2, proptest::collection::vec(job, 1..=3));
        proptest::collection::vec(tenant, 2..=5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The step stream is what `run_real` executes: each admitted
        /// job starts once, after it arrived, and finishes once after that;
        /// the ranks started and not yet finished never exceed the machine;
        /// and a rerun reports the same stream.
        #[test]
        fn the_step_stream_starts_each_admitted_job_once_within_the_rank_budget(
            genes in mix_gene(),
            ranks in 4usize..=16,
            seed in 0u64..1_000,
        ) {
            let mut tenants = Vec::new();
            let mut arrivals = Vec::new();
            for (i, (weight, max_running, jobs)) in genes.iter().enumerate() {
                let quota = Quota { max_running: *max_running, ..Quota::default() };
                let tenant = TenantSpec { quota, ..TenantSpec::new(i as u32, *weight as f64) };
                for &(nsdx, nsdy, cycles, bw, slot) in jobs {
                    let job = spec(nsdx, nsdy, cycles, bw as f64 / 10.0);
                    arrivals.push((slot as f64, tenant.id, job));
                }
                tenants.push(tenant);
            }
            let cfg = config(ranks, seed);
            let (out, steps) = recorded(&cfg, &tenants, &arrivals);

            let (mut started, mut finished) = (BTreeMap::new(), BTreeSet::new());
            let mut in_flight = 0usize;
            for &(now, step) in &steps {
                match step {
                    Step::Start(id, i) => {
                        let (arrival, tenant, job) = &arrivals[i];
                        prop_assert_eq!(*tenant, id.tenant);
                        prop_assert!(now >= *arrival, "job {} started before it arrived", id);
                        prop_assert!(started.insert(id, job.ranks()).is_none(), "{} restarted", id);
                        in_flight += job.ranks();
                        prop_assert!(in_flight <= ranks, "{in_flight} ranks in flight > {ranks}");
                    }
                    Step::Finish(id) => {
                        let Some(&job_ranks) = started.get(&id) else {
                            return Err(format!("{id} finished unstarted"));
                        };
                        prop_assert!(finished.insert(id), "{} finished twice", id);
                        in_flight -= job_ranks;
                    }
                }
            }
            prop_assert_eq!(in_flight, 0);
            let finished_in_order: Vec<JobId> = steps
                .iter()
                .filter_map(|(_, s)| match s { Step::Finish(id) => Some(*id), _ => None })
                .collect();
            let recorded_in_order: Vec<JobId> = out.records.iter().map(|r| r.id).collect();
            prop_assert_eq!(finished_in_order, recorded_in_order);
            let unscheduled: BTreeSet<JobId> = out.unscheduled.iter().copied().collect();
            prop_assert!(started.keys().all(|id| !unscheduled.contains(id)));
            prop_assert_eq!(
                started.len() + unscheduled.len(),
                arrivals.len() - out.rejected.len(),
                "every admitted job either started or is still queued"
            );

            let (again, steps_again) = recorded(&cfg, &tenants, &arrivals);
            prop_assert_eq!(steps, steps_again);
            prop_assert_eq!(out, again);
        }
    }

    /// Malformed submits are typed refusals, and a time that cannot be
    /// ordered does not stall the clock: the run ends (the watchdog) with
    /// the well-formed job completed.
    #[test]
    fn malformed_submits_are_refused_and_the_loop_terminates() {
        let tenants = [TenantSpec::new(0, 1.0)];
        let t = tenants[0].id;
        let mut unpriceable = spec(2, 2, 1, 1.0);
        let mut model_cfg = ModelConfig::paper();
        model_cfg.workload = Workload {
            nx: 16,
            ny: 8,
            members: 4,
            h: 8,
            xi: 1,
            eta: 1,
        };
        unpriceable.model = Some(JobModel {
            cfg: model_cfg,
            variant: ModelVariant::PEnkf { nsdx: 64, nsdy: 1 },
            checkpoint: true,
        });
        let arrivals = vec![
            (f64::NAN, t, spec(2, 2, 1, 1.0)),
            (2.0, t, spec(2, 2, 2, 1.0)),
            (f64::INFINITY, t, spec(2, 2, 1, 1.0)),
            (3.0, t, spec(2, 2, 1, f64::NAN)),
            (4.0, t, spec(2, 2, 1, 0.0)),
            (5.0, t, unpriceable),
            (6.0, t, spec(2, 2, 0, 1.0)),
        ];
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let out = simulate(&config(16, 1), &tenants, &arrivals, DesPlanner::new());
            let _ = tx.send(out);
        });
        let out = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the dispatch loop must terminate");
        let refused: Vec<&SubmitError> = out.rejected.iter().map(|(_, _, e)| e).collect();
        assert_eq!(refused.len(), 5, "{refused:?}");
        assert!(refused
            .iter()
            .all(|e| matches!(e, SubmitError::Malformed(_))));
        assert!(out.rejected[0].0.is_nan() && out.rejected[1].0 == f64::INFINITY);
        let cycles: Vec<usize> = out.records.iter().map(|r| r.cycles).collect();
        assert_eq!(cycles, [2, 0], "the well-formed jobs complete");
        assert_eq!(out.makespan, 6.0, "model-less jobs are priced at zero");
    }
}
