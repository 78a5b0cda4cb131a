//! Chaos-soak conformance: multi-cycle seeded fault storms under online
//! health monitoring, on all four executors, real vs modeled.
//!
//! Each soak drives `CYCLES` assimilation cycles through a per-cycle storm
//! (rotating OST slowdown, recoverable read fault, straggler, and — from
//! cycle 1 — an unrecoverable member that forces the N−1 path) while two
//! *independent* [`HealthMonitor`]s watch the real executor and the DES
//! model. The invariants pinned here are the tentpole's contract:
//!
//! 1. **Digest identity** — per cycle, the real and modeled trace digests
//!    and fault digests (the fault-event projection of the same traces)
//!    are byte-identical, *including* the adaptive
//!    decisions (read reordering, speculation, retry schedules) the
//!    evolving route view injects.
//! 2. **Health conformance** — the per-cycle [`HealthSnapshot`]s (every
//!    verdict: blacklisted, probation and suspect OSTs, suspect ranks)
//!    agree between the two worlds: the detector is a pure function of the
//!    observed spans and the seed. The speculative reads the verdicts
//!    cause are `FaultKind::Cancelled` spans, inside the digests of (1).
//! 3. **Replay** — re-running the identical storm from scratch reproduces
//!    every artifact bit for bit (no wall-clock leaks into any decision).
//! 4. **No stalls, typed errors only** — every cycle completes; a storm
//!    cannot deadlock or panic an executor.
//!
//! Storms use slowdowns/read-faults/stragglers only: rank crashes and
//! message drops make a single-cycle run incompletable, which the models
//! reject by contract (`tests/fault_conformance.rs` covers those paths).
//! The whole suite is bounded — small mesh, microsecond backoffs — and is
//! wired into `scripts/check.sh` and CI as the chaos-soak smoke.

mod common;

use common::{harness_labeled, TenantMix, SENKF};
use s_enkf::core::{BatchedKernel, LocalAnalysis};
use s_enkf::fault::{seeded_unit, FaultConfig, FaultPlan, RetryPolicy};
use s_enkf::grid::{LocalizationRadius, Mesh};
use s_enkf::parallel::{
    model_campaign_adaptive, model_cycle, AssimilationSetup, CampaignCtx, CampaignExecutor,
    CampaignModelPlan, DEnkf, LEnkf, ModelConfig, ModelVariant, PEnkf, SEnkf,
};
use s_enkf::prelude::{HealthMonitor, HealthParams, HealthSnapshot};
use s_enkf::trace::{FaultKind, Trace};
use s_enkf::tuning::Workload;

const MESH: (usize, usize) = (24, 12);
const MEMBERS: usize = 4;
const H: u64 = 8;
const RADIUS: LocalizationRadius = LocalizationRadius { xi: 1, eta: 1 };
const CYCLES: usize = 3;
const STORM_SEED: u64 = 2026;

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

/// Three retries at microsecond backoffs: the soak stays fast while every
/// recoverable read fault still backs off and retries.
fn storm_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 3,
        base_backoff: 1e-6,
        multiplier: 2.0,
    }
}

/// The storm for one cycle of the soak: everything is a pure function of
/// `(STORM_SEED, cycle)`. A rotating OST degrades hard enough to trip the
/// suspicion threshold, one member's reads fail recoverably, one rank
/// straggles, and from cycle 1 a member is outright unrecoverable so the
/// degraded N−1 path stays under test while the route view evolves.
fn storm(cycle: usize) -> FaultPlan {
    let u = |i: u64| seeded_unit(STORM_SEED, cycle as u64 * 16 + i);
    let slow_ost = (u(0) * 6.0) as usize;
    let mut plan = FaultPlan::new(STORM_SEED)
        .with_ost_slowdown(slow_ost, 2.5 + 2.0 * u(1))
        .with_read_fault(cycle % MEMBERS, 1 + (u(2) * 2.0) as u32)
        .with_straggler(cycle % 4, 1.3 + 0.7 * u(3));
    if cycle >= 1 {
        plan = plan.with_unrecoverable_member(3);
    }
    plan
}

fn storm_cfg(cycle: usize) -> FaultConfig {
    FaultConfig::degraded(storm(cycle)).with_retry(storm_retry())
}

/// Artifacts one soak run produces, for the replay assertion.
#[derive(Debug, PartialEq)]
struct SoakArtifacts {
    cycle_trace_digests: Vec<String>,
    cycle_fault_digests: Vec<String>,
    snapshots: Vec<HealthSnapshot>,
}

/// Whether `trace` holds a speculative duplicate read's cancelled span.
fn has_cancelled_read(trace: &Trace) -> bool {
    trace
        .spans()
        .iter()
        .any(|s| s.fault == Some(FaultKind::Cancelled))
}

/// Run the multi-cycle storm on one executor, real vs model, with two
/// independent monitors stepped identically, asserting per-cycle digest
/// identity and health conformance. Each side hands back its trace and the
/// dropout set of its report. Returns the real-side artifacts.
fn soak<R, M>(label: &str, real: R, model: M) -> SoakArtifacts
where
    R: Fn(&AssimilationSetup<'_>, &FaultConfig, Option<&HealthMonitor>) -> (Trace, Vec<usize>),
    M: Fn(&ModelConfig, &FaultConfig, Option<&HealthMonitor>) -> (Trace, Vec<usize>),
{
    let mesh = Mesh::new(MESH.0, MESH.1);
    let h = harness_labeled(label, mesh, MEMBERS, 42, 1);
    let setup = AssimilationSetup {
        store: &h.store,
        members: MEMBERS,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(RADIUS),
    };
    let cfg = model_cfg();
    let mut real_mon = HealthMonitor::new(HealthParams::default());
    let mut model_mon = HealthMonitor::new(HealthParams::default());
    let mut arts = SoakArtifacts {
        cycle_trace_digests: Vec::new(),
        cycle_fault_digests: Vec::new(),
        snapshots: Vec::new(),
    };
    let (mut real_speculated, mut model_speculated) = (false, false);
    for cycle in 0..CYCLES {
        let fcfg = storm_cfg(cycle);
        let (rt, real_dropped) = real(&setup, &fcfg, Some(&real_mon));
        let (mt, model_dropped) = model(&cfg, &fcfg, Some(&model_mon));
        let (rl, ml) = (
            rt.fault_digest(&real_dropped),
            mt.fault_digest(&model_dropped),
        );
        assert_eq!(
            rt.digest(),
            mt.digest(),
            "{label}: cycle {cycle} trace digest diverged"
        );
        assert_eq!(rl, ml, "{label}: cycle {cycle} fault digest diverged");
        real_speculated |= has_cancelled_read(&rt);
        model_speculated |= has_cancelled_read(&mt);
        let rs = real_mon.end_cycle();
        let ms = model_mon.end_cycle();
        assert_eq!(rs, ms, "{label}: cycle {cycle} health snapshot diverged");
        arts.cycle_trace_digests.push(rt.digest());
        arts.cycle_fault_digests.push(rl);
        arts.snapshots.push(rs);
    }
    // The storm must actually have exercised the adaptive machinery.
    assert!(
        arts.snapshots.iter().any(|s| !s.is_clean()),
        "{label}: the storm never degraded anything — soak is vacuous"
    );
    assert!(
        real_speculated && model_speculated,
        "{label}: no speculative read on the real ({real_speculated}) or \
         model ({model_speculated}) side — soak is vacuous"
    );
    arts
}

fn assert_replays(label: &str, a: SoakArtifacts, b: SoakArtifacts) {
    assert_eq!(a, b, "{label}: same-seed replay is not bit-exact");
}

#[test]
fn chaos_soak_lenkf() {
    let run = |l: &str| {
        soak(
            l,
            |s, f, m| {
                let (_, rep, t) = LEnkf { nsdx: 2, nsdy: 2 }.run_adaptive(s, f, m).unwrap();
                (t, rep.dropped_members)
            },
            |c, f, m| {
                let variant = ModelVariant::LEnkf { nsdx: 2, nsdy: 2 };
                let (out, t) = model_cycle(c, &variant, Default::default(), f, m).unwrap();
                (t, out.dropped_members)
            },
        )
    };
    assert_replays("lenkf", run("soak-lenkf-a"), run("soak-lenkf-b"));
}

#[test]
fn chaos_soak_penkf() {
    let run = |l: &str| {
        soak(
            l,
            |s, f, m| {
                let (_, rep, t) = PEnkf { nsdx: 2, nsdy: 2 }.run_adaptive(s, f, m).unwrap();
                (t, rep.dropped_members)
            },
            |c, f, m| {
                let variant = ModelVariant::PEnkf { nsdx: 2, nsdy: 2 };
                let (out, t) = model_cycle(c, &variant, Default::default(), f, m).unwrap();
                (t, out.dropped_members)
            },
        )
    };
    assert_replays("penkf", run("soak-penkf-a"), run("soak-penkf-b"));
}

#[test]
fn chaos_soak_senkf() {
    let run = |l: &str| {
        soak(
            l,
            |s, f, m| {
                let (_, rep, t) = SEnkf::new(SENKF).run_adaptive(s, f, m).unwrap();
                (t, rep.dropped_members)
            },
            |c, f, m| {
                let variant = ModelVariant::SEnkf(SENKF);
                let (out, t) = model_cycle(c, &variant, Default::default(), f, m).unwrap();
                (t, out.dropped_members)
            },
        )
    };
    assert_replays("senkf", run("soak-senkf-a"), run("soak-senkf-b"));
}

#[test]
fn chaos_soak_denkf() {
    let run = |l: &str| {
        soak(
            l,
            |s, f, m| {
                let (_, rep, t) = DEnkf {
                    shards: 4,
                    kernel: BatchedKernel::Cholesky,
                }
                .run_adaptive(s, f, m)
                .unwrap();
                (t, rep.dropped_members)
            },
            |c, f, m| {
                let variant = ModelVariant::DEnkf { shards: 4 };
                let (out, t) = model_cycle(c, &variant, Default::default(), f, m).unwrap();
                (t, out.dropped_members)
            },
        )
    };
    assert_replays("denkf", run("soak-denkf-a"), run("soak-denkf-b"));
}

/// Campaign-level conformance: a supervised real campaign with
/// [`CampaignCtx::health`] against [`model_campaign_adaptive`] with its
/// own monitor, under one constant storm. Per-cycle executor-trace
/// digests and health snapshots must agree — the supervisor and the
/// campaign model weave the monitor into the cycle loop identically.
#[test]
fn chaos_soak_campaign_real_vs_model() {
    let mix = TenantMix::small();
    let campaign = mix.campaign_cfg(CYCLES);
    // One storm for the whole campaign (the campaign projects its plan per
    // cycle; without cycle crashes every projection is identical).
    let fcfg = storm_cfg(0);
    let (_scratch, work, ckpt) = mix.stores("soak-campaign");
    let ctx = CampaignCtx {
        health: Some(HealthParams::default()),
        ..CampaignCtx::default()
    };
    let exec = CampaignExecutor::SEnkf(SENKF);
    let report = s_enkf::parallel::run_campaign_ctx(&work, &ckpt, &exec, &campaign, &fcfg, &ctx)
        .expect("real adaptive campaign");

    let mut model_mon = HealthMonitor::new(HealthParams::default());
    let plan = CampaignModelPlan {
        cycles: CYCLES,
        checkpoint: true,
        pipelined: false,
        restart: campaign.restart,
    };
    let (out, model_trace) = model_campaign_adaptive(
        &mix.model_cfg(),
        &ModelVariant::SEnkf(SENKF),
        &plan,
        &fcfg,
        Some(&mut model_mon),
    )
    .expect("modeled adaptive campaign");

    assert_eq!(
        report.cycle_digests, out.cycle_digests,
        "per-cycle executor digests diverged between supervisor and model"
    );
    assert_eq!(
        report.health_snapshots, out.health_snapshots,
        "per-cycle health snapshots diverged"
    );
    assert!(
        report.health_snapshots.iter().any(|s| !s.is_clean()),
        "campaign storm never degraded anything — soak is vacuous"
    );
    assert!(
        has_cancelled_read(&report.trace) && has_cancelled_read(&model_trace),
        "campaign storm never speculated a read — soak is vacuous"
    );
}
