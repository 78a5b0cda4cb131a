//! D-EnKF conformance: the distributed-array non-sequential executor
//! against its DES model, the fault plans, and the campaign supervisor.
//!
//! The same contract the other three executors carry:
//!
//! 1. **Digest identity** — on an empty fault plan the real executor and
//!    the DES model emit byte-identical operation digests (who reads which
//!    bytes with how many seeks, who sends how much to whom, who computes).
//! 2. **Fault conformance** — under a seeded degraded plan, both sides
//!    inject the same faults on the same schedule: equal trace digests and
//!    equal fault digests; the cycle completes on the N−1 survivors.
//! 3. **Typed failure** — crashes and exhausted retries surface as typed
//!    [`SubstrateError`] values, never panics or hangs.
//! 4. **Kill–resume bit-identity** — a D-EnKF campaign killed at a cycle
//!    boundary and resumed through `enkf-ckpt` reproduces the
//!    uninterrupted run bit for bit, and the real supervised campaign
//!    matches the campaign model's digest.

mod common;

use common::{harness_labeled, TenantMix};
use s_enkf::core::{BatchedKernel, EnkfError, LocalAnalysis};
use s_enkf::fault::{FaultConfig, FaultPlan, RetryPolicy, SubstrateError};
use s_enkf::grid::{LocalizationRadius, Mesh};
use s_enkf::parallel::{
    model_campaign_adaptive, model_cycle, run_campaign, AssimilationSetup, CampaignExecutor,
    CampaignModelPlan, DEnkf, ModelConfig, ModelVariant, SEnkfModelOptions,
};
use s_enkf::tuning::Workload;

const MEMBERS: usize = 4;
const H: u64 = 8;

fn model_cfg(mesh: Mesh, members: usize) -> ModelConfig {
    let mut cfg = ModelConfig::paper();
    cfg.workload = Workload {
        nx: mesh.nx(),
        ny: mesh.ny(),
        members,
        h: H,
        xi: 1,
        eta: 1,
    };
    cfg
}

fn denkf(shards: usize) -> DEnkf {
    DEnkf {
        shards,
        kernel: BatchedKernel::ShermanMorrison,
    }
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        base_backoff: 1e-6,
    }
}

/// Real-vs-model digest identity on an empty plan, across geometries and
/// shard counts.
#[test]
fn real_and_modeled_digests_are_byte_identical() {
    for (mesh, members, shards, seed) in [
        (Mesh::new(24, 12), 4usize, 3usize, 42u64),
        (Mesh::new(24, 12), 4, 6, 42),
        (Mesh::new(30, 18), 6, 2, 7),
    ] {
        let h = harness_labeled("denkf-conf", mesh, members, seed, 1);
        let setup = AssimilationSetup {
            store: &h.store,
            members,
            observations: &h.scenario.observations,
            analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
        };
        let (_, _, real) = denkf(shards).run_traced(&setup).unwrap();
        let (_, model) = model_cycle(
            &model_cfg(mesh, members),
            &ModelVariant::DEnkf { shards },
            SEnkfModelOptions::default(),
            &FaultConfig::none(),
            None,
        )
        .unwrap();
        assert_eq!(
            real.digest(),
            model.digest(),
            "D-EnKF real/model digests diverge ({shards} shards on {mesh:?})"
        );
        // The faulted entry point with an empty plan is the same program.
        let (_, report, faulted) = denkf(shards)
            .run_faulted(&setup, &FaultConfig::none())
            .unwrap();
        assert_eq!(real.digest(), faulted.digest(), "empty plan must be free");
        assert!(faulted.fault_events(&report.dropped_members).is_empty());
    }
}

/// A seeded degraded plan: read faults, a straggler, an OST slowdown and a
/// dropped member — both sides inject identically and complete on N−1.
#[test]
fn degraded_plan_conforms_and_completes_on_survivors() {
    let mesh = Mesh::new(24, 12);
    let h = harness_labeled("denkf-degraded", mesh, MEMBERS, 42, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members: MEMBERS,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
    };
    let fcfg = FaultConfig {
        plan: FaultPlan::new(42)
            .with_read_fault(1, 2)
            .with_ost_slowdown(1, 3.0)
            .with_straggler(0, 1.5)
            .with_unrecoverable_member(3),
        retry: fast_retry(),
        degraded: true,
        recv_timeout: 5.0,
    };
    let (analysis, report, real) = denkf(3).run_faulted(&setup, &fcfg).unwrap();
    assert_eq!(analysis.size(), MEMBERS - 1, "one member dropped");
    assert_eq!(report.dropped_members, vec![3]);
    let variant = ModelVariant::DEnkf { shards: 3 };
    let (out, model) = model_cycle(
        &model_cfg(mesh, MEMBERS),
        &variant,
        Default::default(),
        &fcfg,
        None,
    )
    .unwrap();
    assert_eq!(out.dropped_members, vec![3]);
    assert_eq!(
        real.digest(),
        model.digest(),
        "degraded trace digests diverge"
    );
    let real_faults = real.fault_digest(&report.dropped_members);
    assert!(real_faults.contains("event=injected") && real_faults.contains("event=dropped"));
    assert_eq!(
        real_faults,
        model.fault_digest(&out.dropped_members),
        "fault digests diverge"
    );
}

/// Failures are typed: an exhausted retry budget without degraded mode,
/// and a crashed rank whose peers time out.
#[test]
fn failures_surface_as_typed_errors() {
    let mesh = Mesh::new(24, 12);
    let h = harness_labeled("denkf-typed", mesh, MEMBERS, 42, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members: MEMBERS,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
    };

    let undegraded = FaultConfig {
        plan: FaultPlan::new(1).with_unrecoverable_member(2),
        retry: fast_retry(),
        degraded: false,
        recv_timeout: 5.0,
    };
    match denkf(2).run_faulted(&setup, &undegraded) {
        Err(EnkfError::Substrate(SubstrateError::Unrecoverable { members })) => {
            assert_eq!(members, vec![2])
        }
        other => panic!("expected typed Unrecoverable, got {other:?}"),
    }

    let crash = FaultConfig {
        plan: FaultPlan::new(2).with_crash(0, 0),
        retry: fast_retry(),
        degraded: false,
        recv_timeout: 0.2,
    };
    match denkf(2).run_faulted(&setup, &crash) {
        Err(EnkfError::Substrate(
            SubstrateError::RankCrashed { rank: 0, .. } | SubstrateError::RecvTimeout { .. },
        )) => {}
        other => panic!("expected typed crash/timeout, got {other:?}"),
    }
}

const CYCLES: usize = 3;

fn mix() -> TenantMix {
    TenantMix::small()
}

fn denkf_exec() -> CampaignExecutor {
    CampaignExecutor::DEnkf {
        shards: 4,
        kernel: BatchedKernel::ShermanMorrison,
    }
}

/// Kill–resume bit-identity through `enkf-ckpt`, on the D-EnKF executor.
#[test]
fn campaign_kill_resume_is_bit_identical() {
    let exec = denkf_exec();
    let (_s1, work1, ckpt1) = mix().stores("denkf-camp-full");
    let full = run_campaign(
        &work1,
        &ckpt1,
        &exec,
        &mix().campaign_cfg(CYCLES),
        &FaultConfig::none(),
    )
    .unwrap();
    assert_eq!(full.stats.len(), CYCLES);

    let (_s2, work2, ckpt2) = mix().stores("denkf-camp-killed");
    run_campaign(
        &work2,
        &ckpt2,
        &exec,
        &mix().campaign_cfg(2),
        &FaultConfig::none(),
    )
    .unwrap();
    let resumed = run_campaign(
        &work2,
        &ckpt2,
        &exec,
        &mix().campaign_cfg(CYCLES),
        &FaultConfig::none(),
    )
    .unwrap();
    assert_eq!(resumed.resumed_from, Some(2), "must resume, not restart");
    assert_eq!(resumed.stats, full.stats, "per-cycle statistics differ");
    assert_eq!(
        resumed.cycle_digests, full.cycle_digests,
        "per-cycle trace digests differ"
    );
    assert_eq!(
        resumed.final_analysis.states(),
        full.final_analysis.states(),
        "final ensembles differ"
    );
}

/// The real supervised D-EnKF campaign and the campaign DES model emit
/// byte-identical operation digests on an empty plan.
#[test]
fn campaign_real_and_model_digests_conform() {
    let exec = denkf_exec();
    let (_s, work, ckpt) = mix().stores("denkf-camp-conf");
    let real = run_campaign(
        &work,
        &ckpt,
        &exec,
        &mix().campaign_cfg(CYCLES),
        &FaultConfig::none(),
    )
    .unwrap();
    let plan = CampaignModelPlan {
        cycles: CYCLES,
        checkpoint: true,
        pipelined: false,
        restart: mix().campaign_cfg(CYCLES).restart,
    };
    let (_out, model_trace) = model_campaign_adaptive(
        &mix().model_cfg(),
        &ModelVariant::DEnkf { shards: 4 },
        &plan,
        &FaultConfig::none(),
        None,
    )
    .unwrap();
    assert_eq!(
        real.trace.digest(),
        model_trace.digest(),
        "real and modeled D-EnKF campaign digests must be byte-identical"
    );
}

/// A mid-campaign rank crash recovers through the checkpoint store and the
/// recovered campaign is bit-identical to a never-faulted one.
#[test]
fn campaign_crash_recovery_is_bit_identical() {
    let exec = denkf_exec();
    let (_s1, work1, ckpt1) = mix().stores("denkf-camp-clean");
    let clean = run_campaign(
        &work1,
        &ckpt1,
        &exec,
        &mix().campaign_cfg(CYCLES),
        &FaultConfig::none(),
    )
    .unwrap();

    let mut fault = FaultConfig::none();
    fault.plan = FaultPlan::new(7).with_crash_at_cycle(0, 1, 0);
    fault.recv_timeout = 0.3;
    let (_s2, work2, ckpt2) = mix().stores("denkf-camp-crash");
    let recovered =
        run_campaign(&work2, &ckpt2, &exec, &mix().campaign_cfg(CYCLES), &fault).unwrap();
    assert_eq!(recovered.recoveries.len(), 1);
    assert_eq!(recovered.recoveries[0].cycle, 1);
    assert_eq!(recovered.stats, clean.stats);
    assert_eq!(recovered.cycle_digests, clean.cycle_digests);
    assert_eq!(
        recovered.final_analysis.states(),
        clean.final_analysis.states()
    );
}
