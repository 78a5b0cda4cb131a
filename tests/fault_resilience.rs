//! Resilient execution under a deterministic fault plan.
//!
//! Degraded (N−1) mode must be *exactly* the analysis an N−1 ensemble
//! would have produced — member dropout may not perturb the surviving
//! members' numerics by even an ulp. Recoverable faults (reads that fail
//! and then succeed on retry) must be invisible in the analysis, visible
//! only in the trace's fault spans and the fault events projected from them.

mod common;

use common::harness_labeled;
use s_enkf::core::{EnkfError, LocalAnalysis};
use s_enkf::fault::{FaultConfig, FaultPlan, RetryPolicy, SubstrateError};
use s_enkf::grid::{LocalizationRadius, Mesh};
use s_enkf::parallel::{AssimilationSetup, LEnkf, PEnkf, SEnkf};
use s_enkf::trace::{FaultKind, Op};
use s_enkf::tuning::Params;

fn fast_retry() -> RetryPolicy {
    // Keep the wall-clock cost of injected backoffs negligible in tests.
    RetryPolicy {
        max_retries: 3,
        base_backoff: 1e-6,
    }
}

const SENKF: Params = Params {
    nsdx: 2,
    nsdy: 2,
    layers: 2,
    ncg: 2,
};

/// Dropping the *last* member in degraded mode must reproduce, bit for
/// bit, a from-scratch run of the same scenario with one fewer member:
/// the perturbed-observation streams are per-row and drawn member-by-
/// member, so the first N−1 columns of the N-member draw are exactly the
/// (N−1)-member draw.
#[test]
fn degraded_dropout_matches_from_scratch_n_minus_1() {
    let mesh = Mesh::new(24, 12);
    let members = 6;
    let h = harness_labeled("fault-nminus1", mesh, members, 101, 1);
    let radius = LocalizationRadius { xi: 1, eta: 1 };
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(radius),
    };

    // From-scratch N−1 reference: same files, same observation values,
    // perturbations rebuilt for 5 members from the same seed.
    let reduced = h.scenario.observations.with_members(members - 1);
    let ref_setup = AssimilationSetup {
        store: &h.store,
        members: members - 1,
        observations: &reduced,
        analysis: LocalAnalysis::new(radius),
    };
    let (reference, _) = PEnkf { nsdx: 2, nsdy: 2 }.run(&ref_setup).unwrap();

    let cfg = FaultConfig::degraded(FaultPlan::new(9).with_unrecoverable_member(members - 1))
        .with_retry(fast_retry());

    let (p, rep, trace) = PEnkf { nsdx: 2, nsdy: 2 }
        .run_faulted(&setup, &cfg)
        .unwrap();
    assert_eq!(rep.dropped_members, vec![members - 1]);
    assert_eq!(p.states(), reference.states(), "P-EnKF N−1 not bit-exact");
    assert!(trace
        .fault_events(&rep.dropped_members)
        .iter()
        .any(|e| e.kind == FaultKind::Dropped && e.member == Some(members - 1)));

    let (l, rep, _) = LEnkf { nsdx: 2, nsdy: 2 }
        .run_faulted(&setup, &cfg)
        .unwrap();
    assert_eq!(rep.dropped_members, vec![members - 1]);
    assert_eq!(l.states(), reference.states(), "L-EnKF N−1 not bit-exact");

    let (s, rep, _) = SEnkf::new(SENKF).run_faulted(&setup, &cfg).unwrap();
    assert_eq!(rep.dropped_members, vec![members - 1]);
    assert_eq!(s.states(), reference.states(), "S-EnKF N−1 not bit-exact");
}

/// Dropping a *middle* member has no from-scratch equivalent (the RNG
/// streams are not prefix-closed under interior deletion), but all three
/// variants must still agree with each other exactly and report the same
/// dropout set.
#[test]
fn degraded_dropout_agrees_across_variants() {
    let mesh = Mesh::new(16, 8);
    let members = 6;
    let h = harness_labeled("fault-middle", mesh, members, 77, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
    };
    let cfg = FaultConfig::degraded(FaultPlan::new(3).with_unrecoverable_member(2))
        .with_retry(fast_retry());

    let (p, prep, _) = PEnkf { nsdx: 2, nsdy: 2 }
        .run_faulted(&setup, &cfg)
        .unwrap();
    let (l, lrep, _) = LEnkf { nsdx: 2, nsdy: 2 }
        .run_faulted(&setup, &cfg)
        .unwrap();
    let (s, srep, _) = SEnkf::new(SENKF).run_faulted(&setup, &cfg).unwrap();
    assert_eq!(prep.dropped_members, vec![2]);
    assert_eq!(lrep.dropped_members, vec![2]);
    assert_eq!(srep.dropped_members, vec![2]);
    assert_eq!(p.states(), l.states(), "P vs L degraded divergence");
    assert_eq!(p.states(), s.states(), "P vs S degraded divergence");
}

/// Without degraded mode, an unrecoverable member is a typed error on
/// every variant — never a panic, deadlock, or silent wrong answer.
#[test]
fn unrecoverable_without_degraded_is_a_typed_error() {
    let mesh = Mesh::new(16, 8);
    let members = 4;
    let h = harness_labeled("fault-strict", mesh, members, 11, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
    };
    let mut cfg = FaultConfig::degraded(FaultPlan::new(5).with_unrecoverable_member(1))
        .with_retry(fast_retry());
    cfg.degraded = false;

    for res in [
        PEnkf { nsdx: 2, nsdy: 2 }
            .run_faulted(&setup, &cfg)
            .map(|_| ()),
        LEnkf { nsdx: 2, nsdy: 2 }
            .run_faulted(&setup, &cfg)
            .map(|_| ()),
        SEnkf::new(SENKF).run_faulted(&setup, &cfg).map(|_| ()),
    ] {
        match res {
            Err(EnkfError::Substrate(SubstrateError::Unrecoverable { members })) => {
                assert_eq!(members, vec![1]);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }
}

/// A read that fails twice and recovers on the third attempt must leave
/// the analysis bit-identical to the fault-free run; the evidence lives in
/// the trace's fault spans and the events projected from them (2 injected,
/// 2 backoffs, 1 recovery — L-EnKF's single reader touches each file
/// exactly once).
#[test]
fn recoverable_fault_is_invisible_in_the_analysis() {
    let mesh = Mesh::new(16, 8);
    let members = 4;
    let h = harness_labeled("fault-recover", mesh, members, 21, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
    };
    let (clean, _, _) = LEnkf { nsdx: 2, nsdy: 2 }.run_traced(&setup).unwrap();

    let mut cfg =
        FaultConfig::degraded(FaultPlan::new(13).with_read_fault(1, 2)).with_retry(fast_retry());
    cfg.degraded = false; // nothing unrecoverable in the plan
    let (faulted, report, trace) = LEnkf { nsdx: 2, nsdy: 2 }
        .run_faulted(&setup, &cfg)
        .unwrap();

    assert_eq!(
        faulted.states(),
        clean.states(),
        "recovery changed numerics"
    );
    assert!(report.dropped_members.is_empty());

    let events = trace.fault_events(&report.dropped_members);
    let count = |kind: FaultKind| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(FaultKind::Injected), 2);
    assert_eq!(count(FaultKind::Backoff), 2);
    assert_eq!(count(FaultKind::Recovered), 1);
    assert_eq!(events.len(), 5);

    let fault_spans = trace.spans().iter().filter(|s| s.op == Op::Fault).count();
    assert_eq!(fault_spans, 4, "2 failed attempts + 2 backoffs as spans");
    assert!(
        report.compute_ranks.fault > 0.0,
        "fault time must surface in the phase breakdown"
    );
}

/// An injected fault deeper than the retry budget is known unrecoverable
/// *before* the run starts (the dropout decision is a pure function of the
/// plan), so it surfaces as `Unrecoverable` — not as a mid-run exhaustion.
#[test]
fn over_budget_injected_fault_is_unrecoverable_up_front() {
    let mesh = Mesh::new(8, 8);
    let members = 4;
    let h = harness_labeled("fault-budget", mesh, members, 33, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
    };
    let mut cfg =
        FaultConfig::degraded(FaultPlan::new(1).with_read_fault(0, 99)).with_retry(RetryPolicy {
            max_retries: 1,
            base_backoff: 1e-6,
        });
    cfg.degraded = false;
    match (PEnkf { nsdx: 2, nsdy: 2 }).run_faulted(&setup, &cfg) {
        Err(EnkfError::Substrate(SubstrateError::Unrecoverable { members })) => {
            assert_eq!(members, vec![0]);
        }
        other => panic!("expected Unrecoverable, got {:?}", other.map(|_| ())),
    }
}

/// A *genuine* I/O failure (the file is gone — something no plan predicted)
/// exhausts the retry budget and surfaces the member identity and the last
/// real cause through the typed error chain.
#[test]
fn exhausted_retries_surface_the_cause() {
    let mesh = Mesh::new(8, 8);
    let members = 3;
    let h = harness_labeled("fault-exhaust", mesh, members, 34, 1);
    std::fs::remove_file(h.store.member_path(0)).unwrap();
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
    };
    let cfg = FaultConfig::none().with_retry(RetryPolicy {
        max_retries: 1,
        base_backoff: 1e-6,
    });
    match (PEnkf { nsdx: 2, nsdy: 2 }).run_faulted(&setup, &cfg) {
        Err(EnkfError::Substrate(SubstrateError::RetriesExhausted {
            member,
            attempts,
            cause,
        })) => {
            assert_eq!(member, 0);
            assert_eq!(attempts, 2);
            assert!(cause.is_some(), "the last real ReadError must be carried");
        }
        other => panic!("expected RetriesExhausted, got {:?}", other.map(|_| ())),
    }
}
