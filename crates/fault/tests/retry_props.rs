//! Property-based invariants of the retry/backoff layer.
//!
//! Three surfaces are pinned here because the cross-executor conformance
//! suite leans on them: (1) seeded jitter is a pure function of
//! `(seed, attempt)` — bit-identical across evaluations and bounded by the
//! declared band; (2) the deadline budget is monotone — shrinking the
//! budget never schedules *more* attempts, and the scheduled prefix always
//! fits the budget; (3) composition with campaign plans —
//! `FaultPlan::for_cycle_attempt` never changes read-retry semantics, so
//! the dropout set decided by `effective_retries()` is identical on every
//! cycle and attempt of a campaign; and (4) the survivors' projection
//! `FaultPlan::for_survivors` — the identity on the empty loss, and the same
//! whether two losses are absorbed at once or one after the other.

use enkf_fault::{FaultConfig, FaultInjector, FaultPlan, RetryPolicy};
use proptest::prelude::*;

fn policy(max_retries: u32, base: f64, mult: f64) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base_backoff: base,
        multiplier: mult,
        ..RetryPolicy::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same `(seed, jitter)` ⇒ a bit-identical backoff schedule, no matter
    /// how often or in what order it is evaluated. This is the property
    /// that lets the real executor (wall sleeps) and the DES (virtual
    /// tasks) agree on retry timing.
    #[test]
    fn seeded_jitter_is_deterministic(
        seed in 0u64..1_000_000,
        jitter in 0.0f64..1.0,
        max_retries in 0u32..8,
    ) {
        let p = policy(max_retries, 1e-3, 2.0).with_jitter(seed, jitter);
        let q = policy(max_retries, 1e-3, 2.0).with_jitter(seed, jitter);
        for a in 0..p.attempts() {
            prop_assert_eq!(p.backoff(a).to_bits(), q.backoff(a).to_bits());
        }
        prop_assert_eq!(p.total_backoff().to_bits(), q.total_backoff().to_bits());
    }

    /// Jittered backoff stays inside `[base, base · (1 + jitter)]` and
    /// `jitter = 0` reproduces the plain geometric schedule exactly.
    #[test]
    fn jitter_band_is_respected(
        seed in 0u64..1_000_000,
        jitter in 0.0f64..1.0,
        attempt in 0u32..10,
    ) {
        let plain = policy(10, 1e-3, 2.0);
        let jittered = plain.with_jitter(seed, jitter);
        let base = plain.backoff(attempt);
        let b = jittered.backoff(attempt);
        prop_assert!(b >= base, "below band: {b} < {base}");
        prop_assert!(b <= base * (1.0 + jitter) + f64::EPSILON, "above band: {b}");
        let no_jitter = plain.with_jitter(seed, 0.0);
        prop_assert_eq!(no_jitter.backoff(attempt).to_bits(), base.to_bits());
    }

    /// The deadline budget is monotone: a larger budget never schedules
    /// fewer attempts, the count is always in `[1, attempts()]`, and
    /// `deadline = 0` (unbounded) schedules everything `max_retries`
    /// permits.
    #[test]
    fn deadline_budget_is_monotone(
        max_retries in 0u32..8,
        base in 1e-4f64..1.0,
        mult in 1.0f64..3.0,
        d1 in 0.0f64..8.0,
        d2 in 0.0f64..8.0,
    ) {
        let p = policy(max_retries, base, mult);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        // `deadline = 0` means unbounded, so compare strictly-positive
        // budgets for monotonicity and pin the unbounded case separately.
        if lo > 0.0 {
            prop_assert!(
                p.with_deadline(lo).scheduled_attempts()
                    <= p.with_deadline(hi).scheduled_attempts()
            );
        }
        for d in [lo, hi] {
            let n = p.with_deadline(d).scheduled_attempts();
            prop_assert!(n >= 1, "the initial attempt is always issued");
            prop_assert!(n <= p.attempts());
            prop_assert_eq!(p.with_deadline(d).effective_retries(), n - 1);
        }
        prop_assert_eq!(p.with_deadline(0.0).scheduled_attempts(), p.attempts());
    }

    /// The backoff actually slept by a deadline-capped sequence fits the
    /// budget: `total_backoff() ≤ deadline` whenever a deadline is set.
    #[test]
    fn scheduled_prefix_fits_the_budget(
        max_retries in 0u32..8,
        base in 1e-4f64..1.0,
        mult in 1.0f64..3.0,
        deadline in 1e-3f64..8.0,
        seed in 0u64..1_000_000,
        jitter in 0.0f64..1.0,
    ) {
        let p = policy(max_retries, base, mult)
            .with_jitter(seed, jitter)
            .with_deadline(deadline);
        prop_assert!(
            p.total_backoff() <= deadline + 1e-12,
            "slept {} over budget {deadline}",
            p.total_backoff()
        );
    }

    /// Composition with campaign plans: `for_cycle_attempt` only resolves
    /// cycle-scoped crashes — it never touches read faults — so the
    /// injector's dropout decision (`is_unrecoverable`, driven by
    /// `effective_retries()`) is identical for the campaign plan and every
    /// per-cycle projection of it, on every attempt.
    #[test]
    fn dropout_set_is_stable_across_cycle_projections(
        fail_attempts in 0u32..8,
        max_retries in 0u32..6,
        deadline in 0.0f64..4.0,
        cycle in 0usize..4,
        attempt in 0u32..3,
    ) {
        let plan = FaultPlan::new(9)
            .with_read_fault(1, fail_attempts)
            .with_crash_at_cycle(2, 1, 0);
        let retry = policy(max_retries, 0.5, 2.0).with_deadline(deadline);
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
        // plan and the deadline-capped budget.
        let expect = fail_attempts > retry.effective_retries();
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

    /// Tightening the deadline can only widen the dropout set, never
    /// shrink it: degraded mode falls back to N−1 instead of stalling.
    #[test]
    fn tighter_deadlines_only_widen_dropout(
        fail_attempts in 0u32..8,
        d1 in 0.1f64..8.0,
        d2 in 0.1f64..8.0,
    ) {
        let (tight, loose) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let plan = FaultPlan::new(3).with_read_fault(0, fail_attempts);
        let p = policy(6, 0.25, 2.0);
        let inj_tight = FaultInjector::new(
            FaultConfig::degraded(plan.clone()).with_retry(p.with_deadline(tight)),
        );
        let inj_loose = FaultInjector::new(
            FaultConfig::degraded(plan).with_retry(p.with_deadline(loose)),
        );
        if !inj_loose.is_unrecoverable(0) {
            // recoverable under the loose budget says nothing about tight…
        }
        if inj_loose.is_unrecoverable(0) {
            prop_assert!(
                inj_tight.is_unrecoverable(0),
                "loose budget drops the member but tight keeps it"
            );
        }
    }
}
