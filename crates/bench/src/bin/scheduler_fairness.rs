//! **Scheduler fairness sweep** — aggregate throughput and p99 campaign
//! latency versus tenant count, with fair-share admission on and off.
//!
//! Every tenant submits two S-EnKF campaigns at t=0, each carrying an SLA
//! of **2× its solo DES prediction**. Under `FairShare` the scheduler
//! gates admission on guaranteed min-share floors, so every admitted
//! campaign completes within its deadline by construction; under
//! `EqualSplit` (the fair-share-off baseline) everything rank-fitting is
//! packed immediately and the machine is split evenly, so deadlines blow
//! up as tenants pile in. The sweep quantifies that contrast.
//!
//! Emits one machine-readable line per sweep point (checked by `tests/smoke.rs`):
//!
//! ```text
//! SCHED tenants=4 policy=fair jobs=8 completed=8 rejected=0 queued_rejects=0 \
//!       makespan_s=... throughput_cph=... p99_service_s=... p99_over_solo=...
//! ```
//!
//! Flags: `--tiny` shrinks the workload for smoke runs.

use enkf_bench::{has_flag, print_table, secs, tiny_workload};
use enkf_core::LocalAnalysis;
use enkf_data::CycleConfig;
use enkf_fault::RetryPolicy;
use enkf_grid::{LocalizationRadius, Mesh};
use enkf_parallel::{CampaignConfig, CampaignExecutor, ModelConfig};
use enkf_sched::{
    simulate, ClusterCapacity, DesPlanner, JobModel, JobSpec, MixOutcome, SchedConfig, SharePolicy,
    TenantSpec,
};
use enkf_tuning::Params;

const CYCLES: usize = 4;
const JOBS_PER_TENANT: usize = 2;
const SLA_FACTOR: f64 = 2.0;

fn job_spec(cfg: &ModelConfig, params: Params) -> (JobSpec, f64) {
    let w = cfg.workload;
    let campaign = CampaignConfig {
        mesh: Mesh::new(w.nx, w.ny),
        cycles: CYCLES,
        members: w.members,
        cycle: CycleConfig::default(),
        seed: 29,
        analysis: LocalAnalysis::new(LocalizationRadius {
            xi: w.xi,
            eta: w.eta,
        }),
        inflation: 1.0,
        restart: RetryPolicy::none(),
    };
    let mut spec = JobSpec::best_effort(CampaignExecutor::SEnkf(params), campaign);
    spec.model = Some(JobModel {
        cfg: *cfg,
        variant: spec.exec.variant(),
        checkpoint: true,
    });
    let step = DesPlanner::price(&spec, 1.0);
    let solo = step.init + CYCLES as f64 * step.cycle;
    spec.sla = Some(solo * SLA_FACTOR);
    (spec, solo)
}

fn p99(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((values.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
    values[idx]
}

fn run_mix(
    ranks: usize,
    policy: SharePolicy,
    tenants: usize,
    spec: &JobSpec,
    solo: f64,
) -> (MixOutcome, f64, f64) {
    let tenant_specs: Vec<TenantSpec> = (0..tenants as u32)
        .map(|i| TenantSpec::new(i, 1.0))
        .collect();
    let mut arrivals = Vec::new();
    for t in &tenant_specs {
        for _ in 0..JOBS_PER_TENANT {
            arrivals.push((0.0, t.id, spec.clone()));
        }
    }
    let cfg = SchedConfig {
        capacity: ClusterCapacity::tianhe2_like(ranks),
        policy,
        seed: 23,
    };
    let out = simulate(&cfg, &tenant_specs, &arrivals, DesPlanner::new());
    let mut services: Vec<f64> = out.records.iter().map(|r| r.service).collect();
    let p99_service = p99(&mut services);
    (out, p99_service, p99_service / solo)
}

fn main() {
    let mut cfg = ModelConfig::paper();
    // Paper-scale autotuned campaigns are the interesting regime: at ~8000
    // processors per campaign the cycle is I/O-heavy enough that the
    // bandwidth share a campaign holds visibly reshapes its cycle time
    // (quarter share ≈ 1.8x, eighth share ≈ 3.5x the solo cycle).
    let params = if has_flag("--tiny") {
        cfg.workload = tiny_workload();
        Params {
            nsdx: 6,
            nsdy: 4,
            layers: 2,
            ncg: 2,
        }
    } else {
        enkf_tuning::autotune(&cfg.cost_params(), 8000, 2e-2)
            .expect("tunable")
            .params
    };
    // The machine fits eight campaigns side by side: the equal-split
    // baseline happily packs all eight at an eighth of the bandwidth
    // each, while fair-share admission queues what would break SLAs.
    let ranks = 8 * (params.c2() + params.c1());
    let (spec, solo) = job_spec(&cfg, params);
    let sla = spec.sla.expect("spec carries an SLA");

    let mut rows = Vec::new();
    for tenants in [1usize, 2, 4, 8] {
        for (policy, label) in [
            (SharePolicy::FairShare, "fair"),
            (SharePolicy::EqualSplit, "equal"),
        ] {
            let (out, p99_service, p99_ratio) = run_mix(ranks, policy, tenants, &spec, solo);
            let jobs = tenants * JOBS_PER_TENANT;
            let throughput_cph = if out.makespan > 0.0 {
                out.records.len() as f64 * 3600.0 / out.makespan
            } else {
                0.0
            };
            if policy == SharePolicy::FairShare {
                // The acceptance invariant: fair-share admission gates on
                // guaranteed floors, so no admitted campaign's completion
                // may exceed its SLA of 2x the solo prediction.
                for r in &out.records {
                    assert!(
                        r.service <= sla + 1e-6,
                        "fair-share SLA violated: job {} took {} > {}",
                        r.id,
                        r.service,
                        sla
                    );
                }
            }
            println!(
                "SCHED tenants={tenants} policy={label} jobs={jobs} completed={} \
                 rejected={} makespan_s={:.3} throughput_cph={:.4} \
                 p99_service_s={:.3} p99_over_solo={:.4}",
                out.records.len(),
                out.rejected.len(),
                out.makespan,
                throughput_cph,
                p99_service,
                p99_ratio,
            );
            rows.push(vec![
                tenants.to_string(),
                label.to_string(),
                format!("{}/{jobs}", out.records.len()),
                secs(out.makespan),
                format!("{throughput_cph:.2}"),
                secs(p99_service),
                format!("{p99_ratio:.2}x"),
            ]);
        }
    }

    let header = [
        "tenants", "policy", "done", "makespan", "camp/h", "p99 svc", "p99/solo",
    ];
    print_table(
        &format!(
            "Scheduler fairness sweep: {CYCLES}-cycle S-EnKF campaigns, \
             {JOBS_PER_TENANT}/tenant, {ranks}-rank machine, solo={} sla={}",
            secs(solo),
            secs(sla)
        ),
        &header,
        &rows,
    );
    println!(
        "\nShape: fair-share admission keeps every admitted campaign within\n\
         2x its solo prediction (it queues rather than overcommit); the\n\
         equal-split baseline packs the machine and lets p99 latency blow\n\
         past the deadline as tenants pile in."
    );
}
