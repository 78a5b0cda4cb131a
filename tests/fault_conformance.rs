//! Fault-path conformance between the real and modeled executors.
//!
//! Three properties pin the fault subsystem down:
//!
//! 1. **Zero-overhead**: with an empty plan, the faulted entry points are
//!    *the same program* as the plain traced ones — byte-identical
//!    operation digests on both executors.
//! 2. **Fault conformance**: under a seeded plan, the real executor and
//!    the DES model inject the same faults, retry on the same schedule,
//!    and drop the same members — equal trace digests *and* equal fault
//!    digests (the fault-event projection of those traces).
//! 3. **Virtual-time exactness**: in the model, backoff delays appear in
//!    virtual time exactly as the retry policy prescribes, and an injected
//!    failed attempt costs exactly one read service.

mod common;

use common::harness_labeled;
use s_enkf::core::LocalAnalysis;
use s_enkf::fault::{FaultConfig, FaultPlan, RetryPolicy};
use s_enkf::grid::{LocalizationRadius, Mesh};
use s_enkf::parallel::{
    model_cycle, AssimilationSetup, LEnkf, ModelConfig, ModelOutcome, ModelVariant, PEnkf, SEnkf,
    SEnkfModelOptions,
};
use s_enkf::trace::{Op, Trace};
use s_enkf::tuning::{Params, Workload};

const MESH: (usize, usize) = (24, 12);
const MEMBERS: usize = 4;
const H: u64 = 8;
const RADIUS: LocalizationRadius = LocalizationRadius { xi: 1, eta: 1 };
const PENKF: (usize, usize) = (2, 2);
const SENKF: Params = Params {
    nsdx: 2,
    nsdy: 2,
    layers: 2,
    ncg: 2,
};
const P_VARIANT: ModelVariant = ModelVariant::PEnkf {
    nsdx: PENKF.0,
    nsdy: PENKF.1,
};
const S_VARIANT: ModelVariant = ModelVariant::SEnkf(SENKF);

/// The modeled cycle of `variant` under a fault plan, no monitor.
fn model_faulted(
    cfg: &ModelConfig,
    variant: ModelVariant,
    fcfg: &FaultConfig,
) -> Result<(ModelOutcome, Trace), String> {
    model_cycle(cfg, &variant, Default::default(), fcfg, None)
}

fn model_cfg() -> ModelConfig {
    let mut cfg = ModelConfig::paper();
    cfg.workload = Workload {
        nx: MESH.0,
        ny: MESH.1,
        members: MEMBERS,
        h: H,
        xi: RADIUS.xi,
        eta: RADIUS.eta,
    };
    cfg
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        base_backoff: 1e-6,
    }
}

/// A plan that exercises recoverable read faults, OST slowdown, a
/// straggler, and (in degraded mode) a member dropout.
fn seeded_plan() -> FaultPlan {
    FaultPlan::new(42)
        .with_read_fault(1, 2)
        .with_ost_slowdown(1, 3.0)
        .with_straggler(0, 1.5)
        .with_unrecoverable_member(3)
}

#[test]
fn empty_plan_is_byte_identical_to_the_plain_path() {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let h = harness_labeled("conf-empty", mesh, MEMBERS, 42, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members: MEMBERS,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(RADIUS),
    };
    let none = FaultConfig::none();

    let (_, _, plain) = PEnkf {
        nsdx: PENKF.0,
        nsdy: PENKF.1,
    }
    .run_traced(&setup)
    .unwrap();
    let (_, report, faulted) = PEnkf {
        nsdx: PENKF.0,
        nsdy: PENKF.1,
    }
    .run_faulted(&setup, &none)
    .unwrap();
    assert_eq!(plain.digest(), faulted.digest(), "P-EnKF real");
    assert!(
        faulted.fault_events(&report.dropped_members).is_empty(),
        "no-fault run must record no fault event"
    );

    let (_, _, plain) = LEnkf {
        nsdx: PENKF.0,
        nsdy: PENKF.1,
    }
    .run_traced(&setup)
    .unwrap();
    let (_, _, faulted) = LEnkf {
        nsdx: PENKF.0,
        nsdy: PENKF.1,
    }
    .run_faulted(&setup, &none)
    .unwrap();
    assert_eq!(plain.digest(), faulted.digest(), "L-EnKF real");

    let (_, _, plain) = SEnkf::new(SENKF).run_traced(&setup).unwrap();
    let (_, _, faulted) = SEnkf::new(SENKF).run_faulted(&setup, &none).unwrap();
    assert_eq!(plain.digest(), faulted.digest(), "S-EnKF real");

    let cfg = model_cfg();
    let options = SEnkfModelOptions::default();
    let (_, plain) = model_cycle(&cfg, &P_VARIANT, options, &FaultConfig::none(), None).unwrap();
    let (outcome, faulted) = model_faulted(&cfg, P_VARIANT, &none).unwrap();
    assert_eq!(plain.digest(), faulted.digest(), "P-EnKF model");
    assert!(faulted.fault_events(&outcome.dropped_members).is_empty());

    let (_, plain) = model_cycle(&cfg, &S_VARIANT, options, &FaultConfig::none(), None).unwrap();
    let (_, faulted) = model_faulted(&cfg, S_VARIANT, &none).unwrap();
    assert_eq!(plain.digest(), faulted.digest(), "S-EnKF model");
}

#[test]
fn seeded_plan_conforms_across_executors_penkf() {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let h = harness_labeled("conf-penkf", mesh, MEMBERS, 42, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members: MEMBERS,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(RADIUS),
    };
    let fcfg = FaultConfig::degraded(seeded_plan()).with_retry(fast_retry());

    let (_, report, real) = PEnkf {
        nsdx: PENKF.0,
        nsdy: PENKF.1,
    }
    .run_faulted(&setup, &fcfg)
    .unwrap();
    let (outcome, model) = model_faulted(&model_cfg(), P_VARIANT, &fcfg).unwrap();

    assert_eq!(report.dropped_members, vec![3]);
    assert_eq!(outcome.dropped_members, vec![3]);
    assert_eq!(
        real.digest(),
        model.digest(),
        "P-EnKF faulted operation digests diverge"
    );
    assert_eq!(
        real.fault_digest(&report.dropped_members),
        model.fault_digest(&outcome.dropped_members),
        "P-EnKF fault-event sequences diverge"
    );
}

#[test]
fn seeded_plan_conforms_across_executors_senkf() {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let h = harness_labeled("conf-senkf", mesh, MEMBERS, 42, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members: MEMBERS,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(RADIUS),
    };
    let fcfg = FaultConfig::degraded(seeded_plan()).with_retry(fast_retry());

    let (_, report, real) = SEnkf::new(SENKF).run_faulted(&setup, &fcfg).unwrap();
    let (outcome, model) = model_faulted(&model_cfg(), S_VARIANT, &fcfg).unwrap();

    assert_eq!(report.dropped_members, vec![3]);
    assert_eq!(outcome.dropped_members, vec![3]);
    assert_eq!(
        real.digest(),
        model.digest(),
        "S-EnKF faulted operation digests diverge"
    );
    assert_eq!(
        real.fault_digest(&report.dropped_members),
        model.fault_digest(&outcome.dropped_members),
        "S-EnKF fault-event sequences diverge"
    );
}

/// In the DES, injected faults occupy virtual time *exactly*: each backoff
/// span lasts exactly `retry.backoff(attempt)`, and each failed attempt
/// lasts exactly one read service of the same member (same f64s, not
/// approximately).
#[test]
fn model_backoff_delays_are_exact_in_virtual_time() {
    let retry = RetryPolicy {
        max_retries: 3,
        base_backoff: 0.25,
    };
    let mut fcfg = FaultConfig::degraded(FaultPlan::new(7).with_read_fault(0, 2));
    fcfg.degraded = false;
    fcfg.retry = retry;

    let (_, trace) = model_faulted(
        &model_cfg(),
        ModelVariant::PEnkf { nsdx: 1, nsdy: 1 },
        &fcfg,
    )
    .unwrap();
    let spans = trace.spans();

    let mut backoffs: Vec<f64> = spans
        .iter()
        .filter(|s| s.op == Op::Fault && s.bytes == 0)
        .map(|s| s.dur)
        .collect();
    backoffs.sort_by(f64::total_cmp);
    assert_eq!(backoffs, vec![retry.backoff(0), retry.backoff(1)]);

    let read_service = spans
        .iter()
        .find(|s| s.op == Op::Read && s.member == Some(0))
        .expect("member 0 is eventually read")
        .dur;
    let failed: Vec<f64> = spans
        .iter()
        .filter(|s| s.op == Op::Fault && s.bytes > 0)
        .map(|s| s.dur)
        .collect();
    assert_eq!(failed, vec![read_service, read_service]);
}

/// A crashed rank surfaces as a typed error on the real executor — peers
/// time out instead of blocking forever — and as an explicit refusal on
/// the model.
#[test]
fn crash_is_a_typed_error_not_a_deadlock() {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let h = harness_labeled("conf-crash", mesh, MEMBERS, 42, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members: MEMBERS,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(RADIUS),
    };

    // L-EnKF: the single reader (rank 0) dies; scatter receivers time out.
    let mut fcfg = FaultConfig::degraded(FaultPlan::new(3).with_crash(0, 0));
    fcfg.recv_timeout = 0.2;
    assert!(
        LEnkf {
            nsdx: PENKF.0,
            nsdy: PENKF.1
        }
        .run_faulted(&setup, &fcfg)
        .is_err(),
        "L-EnKF with a crashed reader must error"
    );

    // S-EnKF: an I/O rank dies mid-pipeline; compute helpers time out.
    let io_rank = SENKF.nsdx * SENKF.nsdy; // first I/O rank follows the compute ranks
    let mut fcfg = FaultConfig::degraded(FaultPlan::new(3).with_crash(io_rank, 1));
    fcfg.recv_timeout = 0.2;
    assert!(
        SEnkf::new(SENKF).run_faulted(&setup, &fcfg).is_err(),
        "S-EnKF with a crashed I/O rank must error"
    );

    // The model refuses a crashing plan up front rather than modeling a hang.
    assert!(model_faulted(&model_cfg(), P_VARIANT, &fcfg).is_err());
    assert!(model_faulted(&model_cfg(), S_VARIANT, &fcfg).is_err());
}

/// A dropped message surfaces as a receive timeout on the real executor.
#[test]
fn dropped_message_times_out_with_a_typed_error() {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let h = harness_labeled("conf-drop", mesh, MEMBERS, 42, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members: MEMBERS,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(RADIUS),
    };
    let mut fcfg = FaultConfig::degraded(FaultPlan::new(4).with_msg_drop(0, 1));
    fcfg.recv_timeout = 0.2;
    assert!(
        LEnkf {
            nsdx: PENKF.0,
            nsdy: PENKF.1
        }
        .run_faulted(&setup, &fcfg)
        .is_err(),
        "L-EnKF with a dropped scatter message must error"
    );
    assert!(
        model_faulted(&model_cfg(), S_VARIANT, &fcfg).is_err(),
        "the model refuses a message-dropping plan"
    );
}
