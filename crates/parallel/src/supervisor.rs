//! The campaign supervisor: every decision of a supervised campaign, made
//! once.
//!
//! A [`Supervisor`] is a pure state machine. A driver asks it for the next
//! [`Action`], carries that out, and reports what came of it
//! ([`Supervisor::completed`], [`Supervisor::failed`],
//! [`Supervisor::restored`]); given the outcomes so far, the next action is
//! determined. It touches no store, clock, thread or simulator, so the one
//! sequence of decisions is *executed* by [`crate::run_campaign_ctx`] (real
//! files, real executors, wall or virtual backoff) and *priced* by
//! [`crate::model_campaign_adaptive`] (virtual seconds on the DES
//! timeline). Neither driver holds a counter or a rule of its own, so they
//! cannot disagree on what a campaign does — only on what it costs.
//!
//! What the supervisor alone owns:
//!
//! * the cycle, attempt and restart counters, and the restart budget
//!   (`RetryPolicy::max_retries` budget-consuming restarts per cycle, the
//!   `k`-th after `RetryPolicy::backoff(k)` seconds);
//! * each attempt's [`FaultConfig`]: cycle-scoped crashes fire on a cycle's
//!   first attempt ever (the node is replaced afterwards, even when a
//!   restore falls back behind the cycle), and the plan is projected onto
//!   the survivors of the lost members;
//! * the lost-member set, in **original** indices. A member the plan makes
//!   unrecoverable is lost once: the failing attempt flips the degraded
//!   switch (budget-free — the failure cannot recur), the re-run completes
//!   without it, and from then on every member-indexed plan entry is
//!   renumbered onto the survivors' slots, so neither the consumed loss nor
//!   a neighbour's index can drop a second member. The set is a function of
//!   the plan and the live member count, which is how a resumed or restored
//!   campaign re-derives it from a checkpoint that stores neither;
//! * the commit after every completed cycle, and the initial commit only on
//!   a fresh start (the recovery line of a crash in the very first cycle);
//! * the drain barrier before every restore and before the finish;
//! * the books: per-cycle digests, recoveries, health snapshots — and the
//!   monitor's boundary fold on completion, its discard on failure.

use crate::campaign::{CampaignError, RecoveryEvent};
use enkf_fault::{FaultConfig, FaultInjector, RetryPolicy, SubstrateError};
use enkf_health::{HealthMonitor, HealthSnapshot};
use std::collections::VecDeque;

/// What the driver does next. The supervisor's `cycle`, `attempt` and
/// `alive` say which cycle, attempt and ensemble size it is about.
// An action lives for one loop iteration and the queue never holds an
// `Attempt`: boxing its configuration would only add an allocation per
// attempt.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Action {
    /// Make the state at the start of the current cycle durable. The
    /// `initial` commit is synchronous in every commit mode.
    Commit { initial: bool },
    /// Run one attempt of the current cycle under this configuration, then
    /// report [`Supervisor::completed`] or [`Supervisor::failed`].
    Attempt(FaultConfig),
    /// Account a recovery: after this many seconds of restart backoff, or
    /// (`None`) as a budget-free degrade to the survivors.
    Recover(Option<f64>),
    /// Wait out any in-flight asynchronous commit.
    Drain,
    /// Reload the last durable state and report [`Supervisor::restored`].
    Restore,
    /// The campaign is complete.
    Finish,
    /// The restart budget is spent: fail with [`Supervisor::gave_up`].
    GiveUp,
}

/// The state machine; see the module docs.
#[derive(Default)]
pub(crate) struct Supervisor<'a> {
    cycles: usize,
    members0: usize,
    restart: RetryPolicy,
    /// The campaign's fault configuration (and its pure decisions).
    fault: FaultInjector,
    /// The monitor every attempt's reads consult and feed.
    pub monitor: Option<&'a mut HealthMonitor>,
    /// Members the plan makes unrecoverable, ascending, original indices.
    doomed: Vec<usize>,
    /// Budget-consuming restarts of the current cycle.
    restarts: u32,
    /// Cycles below this have had their first attempt.
    frontier: usize,
    /// The last failure, rendered, and whether it lost a member for good.
    last: (String, bool),
    queue: VecDeque<Action>,
    /// The cycle being attempted (completed cycles so far).
    pub cycle: usize,
    /// Attempts of the current cycle that failed (0 = first run).
    pub attempt: u32,
    /// Live ensemble members.
    pub alive: usize,
    /// Whether the campaign runs on the degraded (N−k) path.
    pub degraded: bool,
    /// FNV-64 of each completed cycle's trace digest.
    pub digests: Vec<u64>,
    /// Every recovery, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// One snapshot per completed cycle under a monitor.
    pub health_snapshots: Vec<HealthSnapshot>,
}

impl<'a> Supervisor<'a> {
    /// A supervisor for `cycles` cycles of a `members0`-member campaign
    /// under `fault`, restarting per `restart`. `resumed` is the durable
    /// state found on disk — `(cycle, live members, digests so far)` — or
    /// `None` on a fresh start.
    pub(crate) fn new(
        cycles: usize,
        members0: usize,
        restart: RetryPolicy,
        fault: &FaultConfig,
        monitor: Option<&'a mut HealthMonitor>,
        resumed: Option<(usize, usize, Vec<u64>)>,
    ) -> Self {
        // Only a fresh start commits before running anything: cycle 0 is
        // the recovery line of a crash in the very first cycle.
        let fresh = Action::Commit { initial: true };
        let queue = resumed.is_none().then_some(fresh).into_iter().collect();
        let (cycle, alive, digests) = resumed.unwrap_or((0, members0, Vec::new()));
        let fault = FaultInjector::new(fault.clone());
        Supervisor {
            cycles,
            members0,
            restart,
            doomed: fault.unrecoverable_members(members0),
            fault,
            monitor,
            frontier: cycle,
            queue,
            cycle,
            alive,
            degraded: alive < members0,
            digests,
            ..Supervisor::default()
        }
    }

    /// The members lost so far, by original index.
    pub(crate) fn lost(&self) -> &[usize] {
        let gone = self.members0.saturating_sub(self.alive);
        &self.doomed[..gone.min(self.doomed.len())]
    }

    /// The error of a campaign that answered [`Action::GiveUp`].
    pub(crate) fn gave_up(&self) -> CampaignError {
        CampaignError::RestartBudgetExhausted {
            cycle: self.cycle,
            attempts: self.attempt + 1,
            last: self.last.0.clone(),
        }
    }

    /// The attempt completed, `dropped` members short of what it started
    /// with; `digest` hashes its trace.
    pub(crate) fn completed(&mut self, digest: u64, dropped: usize) {
        self.digests.push(digest);
        if let Some(mon) = self.monitor.as_deref_mut() {
            // Cycle boundary: fold the cycle's observations and refreeze
            // the view the next cycle's readers consult.
            self.health_snapshots.push(mon.end_cycle());
        }
        self.alive -= dropped;
        self.cycle += 1;
        (self.attempt, self.restarts) = (0, 0);
        self.queue.push_back(Action::Commit { initial: false });
    }

    /// The attempt died of a substrate failure.
    pub(crate) fn failed(&mut self, error: SubstrateError) {
        if let Some(mon) = self.monitor.as_deref() {
            // The re-run re-observes the whole cycle: detection stays a
            // pure function of completed cycles.
            mon.abort_cycle();
        }
        let lost_member = matches!(error, SubstrateError::Unrecoverable { .. });
        self.last = (error.to_string(), lost_member);
        let recover = if lost_member {
            // Free of budget: the failure cannot recur once the member is
            // dropped.
            self.degraded = true;
            Action::Recover(None)
        } else if self.restarts < self.restart.max_retries {
            self.restarts += 1;
            Action::Recover(Some(self.restart.backoff(self.restarts - 1)))
        } else {
            Action::GiveUp
        };
        // Restore from the durable state, not from memory — a recovery and
        // a kill + resume take the identical path — and only once no commit
        // is still in flight.
        self.queue.extend([recover, Action::Drain, Action::Restore]);
    }

    /// The durable state found is the start of `cycle`, `alive` members
    /// strong.
    pub(crate) fn restored(&mut self, cycle: usize, alive: usize) {
        self.recoveries.push(RecoveryEvent {
            cycle: self.cycle,
            attempt: self.attempt,
            error: self.last.0.clone(),
            degraded: self.last.1,
            restored_from: cycle,
        });
        self.attempt += 1;
        (self.cycle, self.alive) = (cycle, alive);
        self.digests.truncate(cycle);
    }

    /// The next action, given everything reported so far. `Finish` and
    /// `GiveUp` are final: every later call returns them again.
    pub(crate) fn next(&mut self) -> Action {
        if self.queue.is_empty() && self.cycle < self.cycles {
            let replaced = u32::from(self.cycle < self.frontier);
            self.frontier = self.frontier.max(self.cycle + 1);
            let fault = self.fault.config();
            let plan = fault.plan.for_cycle_attempt(self.cycle, replaced);
            return Action::Attempt(FaultConfig {
                plan: plan.for_survivors(self.lost()),
                retry: fault.retry,
                degraded: fault.degraded || self.degraded,
                recv_timeout: fault.recv_timeout,
            });
        }
        if self.queue.is_empty() {
            // The report is complete only once the last commit is durable.
            self.queue.extend([Action::Drain, Action::Finish]);
        }
        match self.queue.front() {
            Some(last @ (Action::Finish | Action::GiveUp)) => last.clone(),
            _ => self.queue.pop_front().unwrap_or(Action::Finish),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_fault::FaultPlan;
    use proptest::prelude::*;

    /// What the scripted "driver" answers: to an `Attempt`, how it ended;
    /// to a `Restore`, optionally a durable state other than the start of
    /// the failed cycle (a torn checkpoint, a missing recovery line).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Reply {
        /// The attempt completes, this many members short.
        Done(usize),
        /// A rank crashes (transient: consumes restart budget).
        Crash,
        /// A member is permanently lost (budget-free degrade).
        Lost,
        /// The next restore finds `(cycle, alive)` on disk.
        Disk(usize, usize),
    }

    fn crash() -> SubstrateError {
        SubstrateError::RankCrashed { rank: 0, stage: 0 }
    }

    /// Drive `sup` with `script` until it finishes, gives up or the script
    /// runs dry; returns every action in order, `Attempt`s tagged with the
    /// `(cycle, attempt)` they ran as.
    fn drive(sup: &mut Supervisor<'_>, script: &[Reply]) -> Vec<(Action, Option<(usize, u32)>)> {
        let mut script = script.iter().copied().peekable();
        let mut seen = Vec::new();
        loop {
            let action = sup.next();
            let tag = matches!(action, Action::Attempt(_)).then_some((sup.cycle, sup.attempt));
            seen.push((action.clone(), tag));
            match action {
                Action::Attempt(_) => match script.next() {
                    Some(Reply::Done(dropped)) => sup.completed(sup.digests.len() as u64, dropped),
                    Some(Reply::Crash) => sup.failed(crash()),
                    Some(Reply::Lost) => {
                        sup.failed(SubstrateError::Unrecoverable { members: vec![0] })
                    }
                    Some(Reply::Disk(..)) => panic!("a Disk reply answers a Restore"),
                    None => return seen,
                },
                Action::Restore => match script.peek() {
                    Some(&Reply::Disk(cycle, alive)) => {
                        script.next();
                        sup.restored(cycle, alive);
                    }
                    _ => sup.restored(sup.cycle, sup.alive),
                },
                Action::Finish | Action::GiveUp => return seen,
                Action::Commit { .. } | Action::Recover(_) | Action::Drain => {}
            }
        }
    }

    /// The action stream without the attempts' fault configurations.
    fn kinds(seen: &[(Action, Option<(usize, u32)>)]) -> Vec<String> {
        seen.iter()
            .map(|(action, tag)| match (action, tag) {
                (Action::Attempt(_), Some((c, a))) => format!("attempt {c}.{a}"),
                (Action::Recover(Some(_)), _) => "backoff".into(),
                (Action::Recover(None), _) => "degrade".into(),
                (Action::Commit { initial }, _) => {
                    if *initial { "commit0" } else { "commit" }.into()
                }
                (other, _) => format!("{other:?}").to_lowercase(),
            })
            .collect()
    }

    fn retry(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff: 0.5,
            multiplier: 2.0,
        }
    }

    fn fresh<'a>(cycles: usize, budget: u32, fault: &FaultConfig) -> Supervisor<'a> {
        Supervisor::new(cycles, 4, retry(budget), fault, None, None)
    }

    #[test]
    fn clean_campaign_commits_every_cycle_and_drains_before_finishing() {
        let mut sup = fresh(2, 3, &FaultConfig::none());
        let seen = drive(&mut sup, &[Reply::Done(0), Reply::Done(0)]);
        assert_eq!(
            kinds(&seen),
            [
                "commit0",
                "attempt 0.0",
                "commit",
                "attempt 1.0",
                "commit",
                "drain",
                "finish"
            ]
        );
        assert_eq!(sup.digests, vec![0, 1]);
        assert!(sup.recoveries.is_empty() && !sup.degraded && sup.lost().is_empty());
        // Finish is final.
        assert_eq!(sup.next(), Action::Finish);
        assert_eq!(sup.next(), Action::Finish);
    }

    #[test]
    fn restart_budget_is_exhausted_exactly_at_max_retries() {
        for budget in 0..3u32 {
            let mut sup = fresh(2, budget, &FaultConfig::none());
            let seen = drive(&mut sup, &[Reply::Crash; 8]);
            let mut expect = vec!["commit0".to_string()];
            for attempt in 0..budget {
                expect.push(format!("attempt 0.{attempt}"));
                expect.extend(["backoff", "drain", "restore"].map(String::from));
            }
            expect.push(format!("attempt 0.{budget}"));
            expect.push("giveup".into());
            assert_eq!(kinds(&seen), expect, "budget {budget}");
            // Backoffs follow the policy's schedule, restart by restart.
            let backoffs: Vec<f64> = seen
                .iter()
                .filter_map(|(a, _)| match a {
                    Action::Recover(b) => *b,
                    _ => None,
                })
                .collect();
            let schedule: Vec<f64> = (0..budget).map(|k| retry(budget).backoff(k)).collect();
            assert_eq!(backoffs, schedule);
            match sup.gave_up() {
                CampaignError::RestartBudgetExhausted {
                    cycle, attempts, ..
                } => assert_eq!((cycle, attempts), (0, budget + 1)),
                other => panic!("unexpected {other}"),
            }
            assert_eq!(sup.recoveries.len() as u32, budget);
            // Giving up is final.
            assert_eq!(sup.next(), Action::GiveUp);
        }
    }

    #[test]
    fn attempt_and_restarts_reset_on_success() {
        // Budget 1: every cycle may crash once — the budget is per cycle.
        let mut sup = fresh(2, 1, &FaultConfig::none());
        let script = [Reply::Crash, Reply::Done(0), Reply::Crash, Reply::Done(0)];
        let seen = drive(&mut sup, &script);
        let attempts: Vec<_> = seen.iter().filter_map(|(_, tag)| *tag).collect();
        assert_eq!(attempts, [(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert_eq!(kinds(&seen).last().map(String::as_str), Some("finish"));
        let recovered: Vec<_> = sup
            .recoveries
            .iter()
            .map(|r| (r.cycle, r.attempt))
            .collect();
        assert_eq!(recovered, [(0, 0), (1, 0)]);
        assert!(sup
            .recoveries
            .iter()
            .all(|r| !r.degraded && r.restored_from == r.cycle));
    }

    #[test]
    fn a_degrade_is_budget_free_and_resets_nothing_else() {
        // Budget 0: a transient failure is fatal, a lost member is not.
        let lost = FaultConfig {
            plan: FaultPlan::new(1)
                .with_unrecoverable_member(1)
                .with_read_fault(3, 1),
            ..FaultConfig::none()
        };
        let mut sup = fresh(2, 0, &lost);
        let seen = drive(&mut sup, &[Reply::Lost, Reply::Done(1), Reply::Crash]);
        assert_eq!(
            kinds(&seen),
            [
                "commit0",
                "attempt 0.0",
                "degrade",
                "drain",
                "restore",
                "attempt 0.1",
                "commit",
                "attempt 1.0",
                "giveup"
            ]
        );
        assert!(sup.degraded);
        assert_eq!((sup.alive, sup.lost()), (3, &[1usize][..]));
        assert!(sup.recoveries[0].degraded);
        let configs: Vec<&FaultConfig> = seen
            .iter()
            .filter_map(|(a, _)| match a {
                Action::Attempt(fcfg) => Some(fcfg),
                _ => None,
            })
            .collect();
        // Before the loss is absorbed the plan is the campaign's; the
        // re-run switches degraded mode on; afterwards the survivors see
        // no trace of member 1, and member 3 sits in slot 2.
        assert_eq!(configs[0].plan.read_faults, lost.plan.read_faults);
        assert!(!configs[0].degraded && configs[1].degraded && configs[2].degraded);
        assert_eq!(configs[1].plan.read_faults, lost.plan.read_faults);
        let slots: Vec<_> = configs[2]
            .plan
            .read_faults
            .iter()
            .map(|f| f.member)
            .collect();
        assert_eq!(slots, [2]);
    }

    #[test]
    fn a_resume_continues_where_the_disk_says_without_an_initial_commit() {
        let lost = FaultConfig {
            plan: FaultPlan::new(1)
                .with_unrecoverable_member(0)
                .with_unrecoverable_member(2),
            ..FaultConfig::none()
        };
        // Two of four members are gone on disk: the lost set is re-derived
        // from the plan, in original indices.
        let resumed = Some((1, 2, vec![7]));
        let mut sup = Supervisor::new(3, 4, retry(1), &lost, None, resumed);
        assert!(sup.degraded);
        assert_eq!(sup.lost(), [0, 2]);
        let seen = drive(&mut sup, &[Reply::Done(0), Reply::Done(0)]);
        assert_eq!(
            kinds(&seen),
            [
                "attempt 1.0",
                "commit",
                "attempt 2.0",
                "commit",
                "drain",
                "finish"
            ]
        );
        assert_eq!(sup.digests, vec![7, 1, 2]);
        match &seen[0].0 {
            Action::Attempt(fcfg) => assert!(fcfg.plan.read_faults.is_empty() && fcfg.degraded),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_cycle_crash_fires_once_even_when_the_restore_falls_back() {
        let fault = FaultConfig {
            plan: FaultPlan::new(1).with_crash_at_cycle(2, 1, 0),
            ..FaultConfig::none()
        };
        let mut sup = fresh(2, 3, &fault);
        // Cycle 1 crashes and the restore lands on cycle 0 (no recovery
        // line, or a torn one): cycle 1 comes round again at attempt 0.
        let script = [
            Reply::Done(0),
            Reply::Crash,
            Reply::Disk(0, 4),
            Reply::Done(0),
            Reply::Done(0),
        ];
        let seen = drive(&mut sup, &script);
        let crashes: Vec<_> = seen
            .iter()
            .filter_map(|(a, tag)| match a {
                Action::Attempt(fcfg) => Some((tag.map(|t| t.0), fcfg.plan.crashes.len())),
                _ => None,
            })
            .collect();
        assert_eq!(
            crashes,
            [(Some(0), 0), (Some(1), 1), (Some(0), 0), (Some(1), 0)],
            "the replaced node does not crash again"
        );
        assert_eq!(sup.recoveries[0].restored_from, 0);
        assert_eq!(sup.digests.len(), 2, "the fallback truncated the digests");
    }

    /// In every stream a drain directly precedes each restore and the
    /// finish.
    fn assert_drained(kinds: &[String]) {
        for (i, k) in kinds.iter().enumerate() {
            if k == "restore" || k == "finish" {
                assert_eq!(kinds[i - 1], "drain", "{kinds:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random outcome streams: nothing follows the final action, a
        /// cycle never spends more than its restart budget, and the cycle
        /// counter only moves back through a restore.
        #[test]
        fn random_outcome_streams_keep_the_invariants(
            budget in 0u32..3,
            cycles in 0usize..4,
            choices in proptest::collection::vec(0u8..8, 0..40),
        ) {
            let fault = FaultConfig {
                plan: FaultPlan::new(1).with_unrecoverable_member(3),
                ..FaultConfig::none()
            };
            let mut sup = fresh(cycles, budget, &fault);
            let mut choices = choices.into_iter();
            let mut log = Vec::new();
            let mut restarts = 0u32;
            loop {
                let before = sup.cycle;
                let action = sup.next();
                prop_assert!(sup.cycle == before, "next() itself moves nothing");
                log.push(action.clone());
                match action {
                    Action::Attempt(_) => match choices.next() {
                        None => break,
                        Some(0..=3) => {
                            let dropped = usize::from(sup.alive == 4 && sup.degraded);
                            sup.completed(0, dropped);
                            prop_assert_eq!(sup.cycle, before + 1);
                            restarts = 0;
                        }
                        Some(4) if sup.alive == 4 && !sup.degraded => {
                            sup.failed(SubstrateError::Unrecoverable { members: vec![3] })
                        }
                        Some(_) => sup.failed(crash()),
                    },
                    Action::Recover(backoff) => {
                        restarts += u32::from(backoff.is_some());
                        prop_assert!(restarts <= budget, "{restarts} restarts, budget {budget}");
                    }
                    Action::Restore => {
                        // Any durable cycle up to the failed one.
                        let back = choices.next().map_or(0, usize::from).min(sup.cycle);
                        let to = sup.cycle - back;
                        sup.restored(to, if to == 0 { 4 } else { sup.alive });
                        prop_assert!(sup.cycle <= before);
                    }
                    Action::Finish | Action::GiveUp => {
                        let last = log[log.len() - 1].clone();
                        for _ in 0..3 {
                            prop_assert_eq!(sup.next(), last.clone());
                        }
                        break;
                    }
                    Action::Commit { .. } | Action::Drain => {}
                }
            }
            let names: Vec<String> = log.iter().map(|a| format!("{a:?}").to_lowercase()).collect();
            assert_drained(&names);
            prop_assert_eq!(sup.digests.len(), sup.cycle, "one digest per completed cycle");
        }
    }

    #[test]
    fn a_drain_precedes_every_restore_and_the_finish() {
        let mut sup = fresh(3, 2, &FaultConfig::none());
        let script = [
            Reply::Crash,
            Reply::Done(0),
            Reply::Crash,
            Reply::Crash,
            Reply::Done(0),
        ];
        assert_drained(&kinds(&drive(&mut sup, &script)));
        let mut resumed = Supervisor::new(
            1,
            4,
            retry(0),
            &FaultConfig::none(),
            None,
            Some((1, 4, vec![3])),
        );
        assert_eq!(kinds(&drive(&mut resumed, &[])), ["drain", "finish"]);
    }
}
