//! Scheduler-level conformance: multi-tenant isolation and deterministic
//! decisions.
//!
//! The headline invariant of the scheduler: campaigns that share the
//! machine are *isolated*. A campaign dispatched next to strangers — on
//! its own stores, under the fair-share scheduler — produces bit-identical
//! per-cycle statistics, cycle digests, final ensembles, and trace
//! digests to the same campaign run alone with an equivalent static
//! allocation. And scheduling itself is deterministic: reruns of the same
//! seeded mix produce bit-identical outcomes, and a real run takes
//! exactly the decisions the simulation of the same arrivals takes.

mod common;

use common::{TenantMix, SENKF};
use s_enkf::ckpt::CheckpointStore;
use s_enkf::fault::{FaultConfig, FaultPlan};
use s_enkf::parallel::{
    run_campaign, run_campaign_ctx, CampaignCtx, CampaignError, CampaignExecutor, CampaignReport,
    CkptMode,
};
use s_enkf::pfs::{FileStore, ScratchDir};
use s_enkf::sched::{
    run_real, simulate, ClusterCapacity, DesPlanner, JobId, JobSpec, MixOutcome, Quota,
    SchedConfig, SharePolicy, SubmitError, TenantId,
};
use std::cmp::Ordering;

const CYCLES: usize = 3;

type Stores = (ScratchDir, FileStore, CheckpointStore);
type Reports = Vec<(JobId, Result<CampaignReport, CampaignError>)>;

fn sched_cfg(ranks: usize, seed: u64) -> SchedConfig {
    SchedConfig {
        capacity: ClusterCapacity::tianhe2_like(ranks),
        policy: SharePolicy::FairShare,
        seed,
    }
}

/// `jobs` of `mix`, all arriving at t = 0, the i-th on `stores[i]`, run on
/// the real executors.
fn run_jobs(
    cfg: &SchedConfig,
    mix: &TenantMix,
    jobs: &[(TenantId, JobSpec)],
    stores: &[Stores],
) -> (MixOutcome, Reports) {
    let arrivals: Vec<_> = jobs
        .iter()
        .map(|(t, spec)| (0.0, *t, spec.clone()))
        .collect();
    let stores: Vec<_> = stores.iter().map(|(_, work, ckpt)| (work, ckpt)).collect();
    run_real(cfg, mix.tenants(), &arrivals, &stores, DesPlanner::new())
}

/// Fresh stores for every job of `mix`.
fn stores_for(mix: &TenantMix, label: &str) -> Vec<Stores> {
    (0..mix.jobs().len())
        .map(|i| mix.stores(&format!("{label}-{i}")))
        .collect()
}

/// The report of `tenant`'s (only) campaign.
fn report_of(reports: &Reports, tenant: TenantId) -> &CampaignReport {
    let (_, report) = reports
        .iter()
        .find(|(id, _)| id.tenant == tenant)
        .expect("tenant has a report");
    report.as_ref().expect("campaign must succeed")
}

/// Every `dispatch` and `complete`, in order. Each one changes the
/// running set by one job and is followed by a rebalance, whose snapshot
/// `share_checks` keeps — times alone cannot order them: a model-less job
/// is priced at zero, so its dispatch and completion share one instant.
fn dispatch_order(out: &MixOutcome) -> Vec<&'static str> {
    let mut running = 0;
    let mut order = Vec::new();
    for check in &out.share_checks {
        match check.entries.len().cmp(&running) {
            Ordering::Greater => order.push("dispatch"),
            Ordering::Less => order.push("complete"),
            Ordering::Equal => {}
        }
        running = check.entries.len();
    }
    order
}

fn assert_reports_identical(a: &CampaignReport, b: &CampaignReport, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: per-cycle statistics differ");
    assert_eq!(
        a.cycle_digests, b.cycle_digests,
        "{what}: per-cycle trace digests differ"
    );
    assert_eq!(
        a.final_analysis.states(),
        b.final_analysis.states(),
        "{what}: final ensembles differ"
    );
}

/// Full-trace comparison — valid only when both runs were uninterrupted
/// (a resumed run's trace covers just its post-resume cycles).
fn assert_traces_identical(a: &CampaignReport, b: &CampaignReport, what: &str) {
    assert_eq!(
        a.trace.digest(),
        b.trace.digest(),
        "{what}: trace digests differ"
    );
}

/// All four executors, one per tenant, scheduled concurrently: every
/// campaign's report is bit-identical to its solo run. Isolation holds on
/// the whole executor matrix, not just the modeled pair.
#[test]
fn concurrent_campaigns_match_solo_runs_on_all_executors() {
    let mix = TenantMix::small()
        .tenant(1.0)
        .job(CampaignExecutor::LEnkf { nsdx: 2, nsdy: 2 }, CYCLES)
        .tenant(2.0)
        .job(CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }, CYCLES)
        .tenant(1.0)
        .job(CampaignExecutor::SEnkf(SENKF), CYCLES)
        .tenant(1.0)
        .job(
            CampaignExecutor::DEnkf {
                shards: 4,
                kernel: s_enkf::core::BatchedKernel::ShermanMorrison,
            },
            CYCLES,
        );

    // Solo baselines: each campaign alone on the machine.
    let mut solo = Vec::new();
    for (i, (_tenant, spec)) in mix.jobs().iter().enumerate() {
        let (_s, work, ckpt) = mix.stores(&format!("sched-solo-{i}"));
        let report = run_campaign(&work, &ckpt, &spec.exec, &spec.campaign, &spec.fault).unwrap();
        solo.push(report);
    }

    // The same four campaigns, admitted and run concurrently.
    let stores = stores_for(&mix, "sched-conc");
    let (out, reports) = run_jobs(&sched_cfg(64, 42), &mix, mix.jobs(), &stores);
    assert!(out.rejected.is_empty(), "all four must be admitted");
    assert!(out.unscheduled.is_empty());
    assert_eq!(reports.len(), 4);
    assert_eq!(
        dispatch_order(&out)[..4],
        ["dispatch"; 4],
        "64 ranks fit all four before the first completion"
    );

    for (id, report) in &reports {
        let idx = mix
            .jobs()
            .iter()
            .position(|(t, _)| *t == id.tenant)
            .unwrap();
        let report = report.as_ref().expect("campaign must succeed");
        let what = format!("tenant {}", id.tenant);
        assert_reports_identical(&solo[idx], report, &what);
        assert_traces_identical(&solo[idx], report, &what);
    }
}

/// Kill–resume of one tenant's campaign — while another tenant shares the
/// machine, including a faulted cycle of its own — leaves both tenants
/// bit-identical: the killed campaign resumes to exactly its solo result,
/// and the neighbour never notices.
#[test]
fn kill_resume_of_one_tenant_leaves_the_other_bit_identical() {
    let mut fault_b = FaultConfig::none();
    fault_b.plan = FaultPlan::new(7).with_crash_at_cycle(0, 1, 0);
    fault_b.recv_timeout = 0.3;

    let mix = TenantMix::small()
        .tenant(1.0)
        .job(CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }, CYCLES)
        .tenant(1.0)
        .job(CampaignExecutor::SEnkf(SENKF), CYCLES)
        .fault(fault_b.clone());

    // Baseline: the concurrent pair, uninterrupted.
    let (ta, spec_a) = mix.jobs()[0].clone();
    let (tb, spec_b) = mix.jobs()[1].clone();
    let base = run_jobs(
        &sched_cfg(64, 7),
        &mix,
        mix.jobs(),
        &stores_for(&mix, "sched-kill-base"),
    )
    .1;
    let base_a = report_of(&base, ta);
    let base_b = report_of(&base, tb);
    assert_eq!(
        base_b.recoveries.len(),
        1,
        "tenant B's injected crash recovers under the scheduler too"
    );

    // Tenant A is killed after 2 cycles (all that survives is its
    // checkpoint directory); tenant B runs to completion beside it.
    let killed_stores = stores_for(&mix, "sched-kill-killed");
    let mut short_a = spec_a.clone();
    short_a.campaign.cycles = 2;
    let killed_jobs = [(ta, short_a), (tb, spec_b)];
    let killed = run_jobs(&sched_cfg(64, 7), &mix, &killed_jobs, &killed_stores).1;
    let killed_b = report_of(&killed, tb);
    assert_reports_identical(base_b, killed_b, "tenant B beside the killed tenant");
    assert_traces_identical(base_b, killed_b, "tenant B beside the killed tenant");

    // Resume tenant A from its surviving checkpoints, again under the
    // scheduler: bit-identical to the uninterrupted concurrent run.
    let resumed = run_jobs(&sched_cfg(64, 7), &mix, &[(ta, spec_a)], &killed_stores).1;
    let resumed_a = report_of(&resumed, ta);
    assert_eq!(resumed_a.resumed_from, Some(2), "must resume, not restart");
    assert_reports_identical(base_a, resumed_a, "tenant A after kill-resume");
}

/// A pipelined tenant beside a synchronous one: the scheduler passes each
/// job's [`JobSpec::ckpt_mode`] through to the dispatched campaign, both
/// tenants stay bit-identical to their solo runs in the matching mode,
/// and (pipelining being a scheduling change only) the pipelined tenant
/// also matches the *synchronous* solo result.
#[test]
fn pipelined_tenant_is_isolated_and_matches_its_solo_run() {
    let mix = TenantMix::small()
        .tenant(1.0)
        .job(CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }, CYCLES)
        .tenant(1.0)
        .job(CampaignExecutor::SEnkf(SENKF), CYCLES);
    let (ta, spec_a) = mix.jobs()[0].clone();
    let (tb, spec_b) = mix.jobs()[1].clone();
    let spec_a = spec_a.pipelined();

    // Solo baselines, each in its own commit mode.
    let solo_mode = |label: &str, spec: &s_enkf::sched::JobSpec| {
        let (_s, work, ckpt) = mix.stores(label);
        run_campaign_ctx(
            &work,
            &ckpt,
            &spec.exec,
            &spec.campaign,
            &spec.fault,
            &CampaignCtx {
                tenant: None,
                backoff: Default::default(),
                ckpt_mode: spec.ckpt_mode,
                health: None,
            },
        )
        .unwrap()
    };
    let solo_a = solo_mode("sched-pipe-solo-a", &spec_a);
    let solo_b = solo_mode("sched-pipe-solo-b", &spec_b);
    assert_eq!(spec_a.ckpt_mode, CkptMode::Pipelined);
    assert_eq!(spec_b.ckpt_mode, CkptMode::Sync);

    let jobs = [(ta, spec_a.clone()), (tb, spec_b)];
    let stores = stores_for(&mix, "sched-pipe-conc");
    let (out, reports) = run_jobs(&sched_cfg(64, 21), &mix, &jobs, &stores);
    assert!(out.rejected.is_empty() && out.unscheduled.is_empty());
    for (id, report) in &reports {
        let (solo, what) = if id.tenant == ta {
            (&solo_a, "pipelined tenant")
        } else {
            (&solo_b, "synchronous tenant")
        };
        let report = report.as_ref().expect("campaign must succeed");
        assert_reports_identical(solo, report, what);
        assert_traces_identical(solo, report, what);
    }

    // And the pipelined solo run is itself bit-identical to a synchronous
    // one — the mode changes the schedule, never the science.
    let mut sync_a = spec_a;
    sync_a.ckpt_mode = CkptMode::Sync;
    let solo_sync_a = solo_mode("sched-pipe-solo-a-sync", &sync_a);
    assert_reports_identical(&solo_sync_a, &solo_a, "pipelined vs sync solo");
    assert_traces_identical(&solo_sync_a, &solo_a, "pipelined vs sync solo");
}

/// Scheduling decisions are deterministic: the same seeded mix produces
/// a bit-identical outcome on every rerun.
#[test]
fn real_dispatch_decisions_are_bit_identical_across_reruns() {
    let mix = TenantMix::small()
        .tenant(2.0)
        .job(CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }, 1)
        .tenant(1.0)
        .job(CampaignExecutor::SEnkf(SENKF), 1);

    let run = |label: &str| {
        let stores = stores_for(&mix, label);
        run_jobs(&sched_cfg(16, 99), &mix, mix.jobs(), &stores).0
    };
    let first = run("sched-det-1");
    let second = run("sched-det-2");
    assert_eq!(first, second);
}

/// A real run follows the simulated schedule: for staggered arrivals
/// under a rank budget that queues, `run_real` returns exactly the
/// `MixOutcome` `simulate` does, so a deadline unattainable even solo is
/// refused on both sides, and every admitted campaign succeeds.
#[test]
fn real_runs_take_the_simulated_decisions_including_sla_refusals() {
    let mix = TenantMix::small()
        .tenant(2.0)
        .job(CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }, 2)
        .sla(1e9)
        .job(CampaignExecutor::SEnkf(SENKF), 1)
        .sla(1e9)
        .tenant(1.0)
        .job(CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }, 2)
        .sla(1e9)
        .job(CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }, 1)
        .sla(1e-9);
    let arrivals: Vec<_> = mix
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, (t, spec))| (0.5 * i as f64, *t, spec.clone()))
        .collect();
    let cfg = sched_cfg(8, 13);
    let stores = stores_for(&mix, "sched-sla");
    let stores: Vec<_> = stores.iter().map(|(_, work, ckpt)| (work, ckpt)).collect();

    let simulated = simulate(&cfg, mix.tenants(), &arrivals, DesPlanner::new());
    let (real, reports) = run_real(&cfg, mix.tenants(), &arrivals, &stores, DesPlanner::new());
    assert_eq!(
        real, simulated,
        "the real run must take the simulated decisions"
    );

    assert_eq!(real.rejected.len(), 1, "{:?}", real.rejected);
    let (_, tenant, why) = &real.rejected[0];
    assert_eq!(*tenant, TenantId(1));
    assert!(
        matches!(why, SubmitError::SlaUnattainable { sla, .. } if *sla == 1e-9),
        "{why:?}"
    );
    assert!(
        real.records.iter().any(|r| r.dispatch > r.submit),
        "the rank budget must queue a job"
    );
    let completed: Vec<JobId> = real.records.iter().map(|r| r.id).collect();
    let reported: Vec<JobId> = reports.iter().map(|(id, _)| *id).collect();
    assert_eq!(reported, completed, "one report per completion, in order");
    for (id, report) in &reports {
        assert!(report.is_ok(), "job {id}: {report:?}");
    }
}

/// Admission control end to end: queue quotas backpressure a greedy
/// tenant, oversized jobs are refused outright, and a rank budget smaller
/// than the mix runs the admitted jobs one after the other — all
/// deterministic.
#[test]
fn admission_quotas_and_rank_budget_shape_the_schedule() {
    let mix = TenantMix::small()
        .tenant(1.0)
        .quota(Quota {
            max_running: 1,
            max_queued: 2,
            min_submit_gap: 0.0,
        })
        .job(CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }, 1)
        .job(CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }, 1)
        .job(CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }, 1);

    // 4-rank machine, 4-rank jobs, max_running 1, max_queued 2: all
    // submits land before the first dispatch, so the first two jobs queue
    // (and run one after the other) and the third submit is backpressured.
    let stores = stores_for(&mix, "sched-adm");
    let (out, reports) = run_jobs(&sched_cfg(4, 5), &mix, mix.jobs(), &stores);
    assert_eq!(out.rejected.len(), 1);
    assert!(matches!(
        out.rejected[0].2,
        SubmitError::Backpressure {
            queued: 2,
            max_queued: 2
        }
    ));
    assert_eq!(reports.len(), 2);
    assert_eq!(
        dispatch_order(&out),
        ["dispatch", "complete", "dispatch", "complete"]
    );
    assert!(reports.iter().all(|(_, r)| r.is_ok()));

    // A job wider than the machine is refused at submit.
    let wide = TenantMix::small()
        .tenant(1.0)
        .job(CampaignExecutor::SEnkf(SENKF), 1);
    let stores = stores_for(&wide, "sched-adm-wide");
    let (out, reports) = run_jobs(&sched_cfg(2, 5), &wide, wide.jobs(), &stores);
    assert_eq!(out.rejected.len(), 1);
    assert!(matches!(out.rejected[0].2, SubmitError::TooLarge { .. }));
    assert!(reports.is_empty());

    // An admitted job given no stores is scheduled as usual and fails typed.
    let (out, reports) = run_jobs(&sched_cfg(8, 5), &wide, wide.jobs(), &[]);
    assert_eq!(out.records.len(), 1);
    assert!(matches!(reports[..], [(_, Err(CampaignError::Io(_)))]));
}
