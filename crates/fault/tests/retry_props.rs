//! Property-based invariants of the retry layer's composition with fault
//! plans, which the cross-executor conformance suite leans on: (1)
//! `FaultPlan::for_cycle_attempt` never changes read-retry semantics, so the
//! dropout set decided by `RetryPolicy::attempts()` is identical on every
//! cycle and attempt of a campaign; and (2) the survivors' projection
//! `FaultPlan::for_survivors` — the identity on the empty loss, and the same
//! whether two losses are absorbed at once or one after the other.

use enkf_fault::{FaultConfig, FaultInjector, FaultPlan, RetryPolicy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Composition with campaign plans: `for_cycle_attempt` only resolves
    /// cycle-scoped crashes — it never touches read faults — so the
    /// injector's dropout decision (`is_unrecoverable`, driven by
    /// `attempts()`) is identical for the campaign plan and every per-cycle
    /// projection of it, on every attempt.
    #[test]
    fn dropout_set_is_stable_across_cycle_projections(
        fail_attempts in 0u32..8,
        max_retries in 0u32..6,
        cycle in 0usize..4,
        attempt in 0u32..3,
    ) {
        let plan = FaultPlan::new(9)
            .with_read_fault(1, fail_attempts)
            .with_crash_at_cycle(2, 1, 0);
        let retry = RetryPolicy {
            max_retries,
            base_backoff: 0.5,
            multiplier: 2.0,
        };
        let whole = FaultInjector::new(
            FaultConfig::degraded(plan.clone()).with_retry(retry),
        );
        let projected = FaultInjector::new(
            FaultConfig::degraded(plan.for_cycle_attempt(cycle, attempt)).with_retry(retry),
        );
        prop_assert_eq!(
            whole.unrecoverable_members(4),
            projected.unrecoverable_members(4)
        );
        // And the decision itself is the documented pure function of the
        // plan and the retry budget.
        let expect = fail_attempts > max_retries;
        prop_assert_eq!(projected.is_unrecoverable(1), expect);
    }

    /// The survivors' projection is the identity when nobody is lost, and
    /// absorbing two losses one after the other (the second named by the
    /// slot it holds after the first) equals absorbing both at once.
    #[test]
    fn survivor_projection_round_trips_and_composes(
        faults in proptest::collection::vec((0usize..8, 0u32..6), 0..6),
        first in 0usize..8,
        second in 0usize..8,
    ) {
        prop_assume!(first != second);
        let mut plan = FaultPlan::new(1).with_ost_slowdown(1, 2.0);
        for &(member, fail_attempts) in &faults {
            plan = plan.with_read_fault(member, fail_attempts);
        }
        prop_assert_eq!(plan.clone().for_survivors(&[]), plan.clone());
        let second_slot = second - usize::from(first < second);
        let stepwise = plan.clone().for_survivors(&[first]).for_survivors(&[second_slot]);
        let at_once = plan.clone().for_survivors(&[first, second]);
        prop_assert_eq!(&stepwise, &at_once);
        // No entry of a lost member survives, none is invented, and every
        // survivor lands in `0..8 − 2`.
        let kept = faults.iter().filter(|f| f.0 != first && f.0 != second).count();
        prop_assert_eq!(at_once.read_faults.len(), kept);
        prop_assert!(at_once.read_faults.iter().all(|f| f.member < 6));
    }
}
