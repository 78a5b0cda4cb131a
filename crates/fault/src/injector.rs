//! The injector: pure fault decisions.

use crate::plan::FaultPlan;
use crate::retry::RetryPolicy;

/// Everything a fault-aware run needs: the plan, the retry policy, whether
/// an unrecoverable member degrades the cycle (N−1 members) or aborts it,
/// and how long receives wait before timing out on a dead peer.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Retry/backoff policy for substrate reads.
    pub retry: RetryPolicy,
    /// Complete the cycle without unrecoverable members instead of erroring.
    pub degraded: bool,
    /// Receive timeout (seconds) used when the plan contains rank crashes,
    /// so peers surface a typed error instead of blocking forever.
    pub recv_timeout: f64,
}

impl FaultConfig {
    /// The no-fault configuration: empty plan, no retries, no degradation.
    /// Running with it is behaviourally identical to the plain `run` paths
    /// (byte-identical trace digests).
    pub fn none() -> Self {
        FaultConfig {
            plan: FaultPlan::default(),
            retry: RetryPolicy::none(),
            degraded: false,
            recv_timeout: 5.0,
        }
    }

    /// A degraded-mode configuration for `plan` with the default retry
    /// policy.
    pub fn degraded(plan: FaultPlan) -> Self {
        FaultConfig {
            plan,
            retry: RetryPolicy::default(),
            degraded: true,
            recv_timeout: 5.0,
        }
    }

    /// Replace the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Answers every injection question as a pure function of the
/// [`FaultConfig`]. It records nothing: what a decision led to is written
/// once, into the run's trace, by the code that acts on it.
///
/// Purity is the load-bearing property: the dropout set, the number of
/// failed attempts per read, slowdown factors — none depend on runtime
/// state, so every rank (and the DES graph builder) reaches the same
/// decisions with no coordination, and real runs cannot diverge from
/// modeled runs.
#[derive(Debug, Default)]
pub struct FaultInjector {
    cfg: FaultConfig,
}

impl FaultInjector {
    /// An injector for `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector { cfg }
    }

    /// The configuration driving the decisions.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The retry policy.
    pub fn retry(&self) -> &RetryPolicy {
        &self.cfg.retry
    }

    /// How many attempts of *every* read of `member` fail before one
    /// succeeds (0 = healthy). Multiple entries for one member take the
    /// maximum — the worst fault wins.
    pub fn read_fail_attempts(&self, member: usize) -> u32 {
        self.cfg
            .plan
            .read_faults
            .iter()
            .filter(|f| f.member == member)
            .map(|f| f.fail_attempts)
            .max()
            .unwrap_or(0)
    }

    /// Whether `member` cannot be read within the retry budget: its
    /// injected failures use up every one of [`RetryPolicy::attempts`], the
    /// bound the read schedule iterates, so degraded mode drops it (the N−1
    /// path) instead of stalling.
    pub fn is_unrecoverable(&self, member: usize) -> bool {
        self.read_fail_attempts(member) >= self.cfg.retry.attempts()
    }

    /// The sorted dropout set among members `0..members` — the members
    /// degraded mode completes without.
    pub fn unrecoverable_members(&self, members: usize) -> Vec<usize> {
        (0..members).filter(|&m| self.is_unrecoverable(m)).collect()
    }

    /// Service multiplier for operations on `member`'s file, from the
    /// slowdown of the OST it stripes to (`member % num_osts`). 1.0 when
    /// healthy; stacked slowdowns multiply.
    pub fn file_slowdown(&self, member: usize) -> f64 {
        let ost = member % self.cfg.plan.num_osts;
        self.cfg
            .plan
            .ost_slowdowns
            .iter()
            .filter(|s| s.ost == ost)
            .map(|s| s.factor)
            .product()
    }

    /// Service multiplier for operations on OST `ost` directly (1.0 when
    /// healthy; stacked slowdowns multiply). Adaptive read routing uses
    /// this to price a replica path that stripes to a different OST than
    /// the member's primary.
    pub fn ost_factor(&self, ost: usize) -> f64 {
        self.cfg
            .plan
            .ost_slowdowns
            .iter()
            .filter(|s| s.ost == ost)
            .map(|s| s.factor)
            .product()
    }

    /// Compute-time multiplier for `rank` (1.0 when healthy; stacked
    /// stragglers multiply).
    pub fn compute_dilation(&self, rank: usize) -> f64 {
        self.cfg
            .plan
            .stragglers
            .iter()
            .filter(|s| s.rank == rank)
            .map(|s| s.dilation)
            .product()
    }

    /// Whether messages `from → to` are dropped.
    pub fn message_dropped(&self, from: usize, to: usize) -> bool {
        self.cfg
            .plan
            .msg_faults
            .iter()
            .any(|m| m.from == from && m.to == to && m.dropped)
    }

    /// The stage at which `rank` crashes, if scheduled (earliest wins).
    pub fn crash_stage(&self, rank: usize) -> Option<usize> {
        self.cfg
            .plan
            .crashes
            .iter()
            .filter(|c| c.rank == rank)
            .map(|c| c.stage)
            .min()
    }

    /// Whether the plan crashes any rank (peers then receive with a timeout
    /// instead of blocking forever).
    pub fn has_crashes(&self) -> bool {
        !self.cfg.plan.crashes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::UNRECOVERABLE;

    #[test]
    fn empty_config_decides_nothing() {
        let inj = FaultInjector::new(FaultConfig::none());
        assert_eq!(inj.read_fail_attempts(0), 0);
        assert!(inj.unrecoverable_members(16).is_empty());
        assert_eq!(inj.file_slowdown(3), 1.0);
        assert_eq!(inj.compute_dilation(7), 1.0);
        assert!(!inj.message_dropped(0, 1));
        assert_eq!(inj.crash_stage(2), None);
        assert!(!inj.has_crashes());
    }

    #[test]
    fn dropout_set_is_a_pure_plan_function() {
        let plan = FaultPlan::new(1)
            .with_read_fault(2, 2) // recoverable under max_retries = 3
            .with_unrecoverable_member(5)
            .with_read_fault(6, 4); // 4 > 3 retries → unrecoverable
        let inj = FaultInjector::new(FaultConfig::degraded(plan));
        assert_eq!(inj.unrecoverable_members(8), vec![5, 6]);
        assert!(!inj.is_unrecoverable(2));
        assert_eq!(inj.read_fail_attempts(2), 2);
        assert_eq!(inj.read_fail_attempts(5), UNRECOVERABLE);
    }

    #[test]
    fn retry_budget_shifts_the_dropout_boundary() {
        let plan = FaultPlan::new(1).with_read_fault(0, 2);
        let lenient = FaultInjector::new(FaultConfig::degraded(plan.clone()));
        assert!(lenient.unrecoverable_members(4).is_empty());
        let strict = FaultInjector::new(FaultConfig::degraded(plan).with_retry(RetryPolicy {
            max_retries: 1,
            base_backoff: 1e-3,
            multiplier: 2.0,
        }));
        assert_eq!(strict.unrecoverable_members(4), vec![0]);
    }

    #[test]
    fn slowdown_targets_files_by_striping() {
        let plan = FaultPlan::new(3).with_num_osts(4).with_ost_slowdown(1, 3.0);
        let inj = FaultInjector::new(FaultConfig::degraded(plan));
        assert_eq!(inj.file_slowdown(1), 3.0);
        assert_eq!(inj.file_slowdown(5), 3.0);
        assert_eq!(inj.file_slowdown(0), 1.0);
        assert_eq!(inj.file_slowdown(2), 1.0);
    }

    #[test]
    fn message_faults_resolve_per_edge() {
        let plan = FaultPlan::new(4).with_msg_drop(2, 3);
        let inj = FaultInjector::new(FaultConfig::degraded(plan));
        assert!(inj.message_dropped(2, 3));
        assert!(!inj.message_dropped(3, 2));
    }

    #[test]
    fn earliest_crash_wins() {
        let plan = FaultPlan::new(5).with_crash(3, 2).with_crash(3, 1);
        let inj = FaultInjector::new(FaultConfig::degraded(plan));
        assert_eq!(inj.crash_stage(3), Some(1));
        assert!(inj.has_crashes());
    }
}
