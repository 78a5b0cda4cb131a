//! `enkf-sim`, `enkf-tuning`, `enkf-sched` and the modelled result: the
//! discrete-event engine on a synthetic fan-out and on this workload's four
//! modelled cycles, the auto-tuner at paper scale, and the capacity planner
//! that prices admission by running the campaign model.

use super::Ctx;
use crate::stats::{median, quantile};
use crate::workload::{Exec, Ranks, Workload};
use enkf_parallel::{CampaignExecutor, CkptMode};
use enkf_sched::{
    simulate, ClusterCapacity, DesPlanner, JobId, JobModel, JobSpec, Planner, SchedConfig,
    SharePolicy, TenantId, TenantSpec,
};
use enkf_sim::{Kind, Simulation, Task};
use enkf_trace::Op;
use enkf_tuning::{autotune, CostParams};
use std::hint::black_box;
use std::time::Instant;

const FAN_OUT_AGENTS: usize = 100;
const FAN_OUT_TASKS_PER_AGENT: usize = 100;

pub fn sim(ctx: &mut Ctx<'_>, w: &Workload) -> Result<(), String> {
    // Synthetic: 100 agents × 100 reads contending for one 4-slot resource.
    let samples = ctx.heavy().min_samples;
    let id = ctx.spans.begin("sim.fan_out");
    let (mut add, mut events) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        let mut sim = Simulation::new();
        let disk = sim.add_resource(4);
        let t = Instant::now();
        for _ in 0..FAN_OUT_AGENTS {
            let agent = sim.add_agent();
            for _ in 0..FAN_OUT_TASKS_PER_AGENT {
                sim.add_task(Task::new(agent, Kind::Read, 0.001).with_resources(vec![disk]))
                    .map_err(|e| format!("{e:?}"))?;
            }
        }
        add.push(t.elapsed().as_secs_f64() / sim.num_tasks() as f64);
        let t = Instant::now();
        let report = sim.run().map_err(|e| format!("{e:?}"))?;
        events.push(report.tasks_executed as f64 / t.elapsed().as_secs_f64());
    }
    ctx.spans.end(id);
    ctx.set("sim.add_task_us", median(&add) * 1e6);
    ctx.set("sim.run_events_per_s", median(&events));

    // This workload's four modelled cycles: tasks built and host time each.
    for exec in Exec::ALL {
        let e = exec.name();
        let id = ctx.spans.begin(&format!("sim.model.{e}"));
        let mut host = Vec::new();
        let mut tasks = 0;
        for _ in 0..samples {
            let t = Instant::now();
            let (_, trace) = w.model.run(exec, true)?;
            host.push(t.elapsed().as_secs_f64());
            let trace = trace.expect("a traced model call returns its trace");
            tasks = trace.spans().iter().filter(|s| s.op != Op::Wait).count();
        }
        ctx.spans.end(id);
        ctx.set(&format!("sim.tasks.{e}"), tasks as f64);
        ctx.set(
            &format!("sim.host_us_per_task.{e}"),
            median(&host) * 1e6 / tasks as f64,
        );
    }
    ctx.set("model.senkf_virtual_s", w.senkf_virtual_s()?);
    Ok(())
}

pub fn tuning(ctx: &mut Ctx<'_>) -> Result<(), String> {
    let cost = CostParams::paper();
    let budget = ctx.light();
    ctx.time_s("tuning.autotune_s", budget, || {
        black_box(autotune(black_box(&cost), 12_000, 1e-3));
    });
    let tuned = autotune(&cost, 12_000, 1e-3).ok_or("autotune found nothing at 12,000 ranks")?;
    ctx.set("tuning.t_total_s", tuned.t_total);
    Ok(())
}

pub fn sched(ctx: &mut Ctx<'_>, w: &Workload) -> Result<(), String> {
    const CYCLES: usize = 4;
    const TENANTS: u32 = 8;
    const SLA_FACTOR: f64 = 2.0;
    let ranks: Ranks = w.sched_model.ranks;
    let mut spec = JobSpec::best_effort(
        CampaignExecutor::SEnkf(ranks.senkf),
        w.campaign_config(CYCLES),
    );
    spec.ckpt_mode = CkptMode::Sync;
    spec.model = Some(JobModel {
        cfg: w.sched_model.cfg,
        variant: ranks.model_variant(Exec::Senkf),
        checkpoint: true,
    });
    let id = JobId {
        tenant: TenantId(0),
        seq: 0,
    };

    // Admission prices a job by running its campaign model; a repeat at the
    // same share is a cache hit.
    let heavy = ctx.heavy();
    ctx.time_us("sched.admission_us", heavy, || {
        black_box(DesPlanner::new().step(id, &spec, 1.0));
    });
    let mut planner = DesPlanner::new();
    let step = planner.step(id, &spec, 1.0);
    let light = ctx.light();
    ctx.time_us("sched.admission_cached_us", light, || {
        black_box(planner.step(id, black_box(&spec), 1.0));
    });

    // Eight tenants, one SLA-carrying campaign each, on a machine that fits
    // them side by side.
    let solo = step.init + CYCLES as f64 * step.cycle;
    spec.sla = Some(SLA_FACTOR * solo);
    let tenants: Vec<TenantSpec> = (0..TENANTS).map(|i| TenantSpec::new(i, 1.0)).collect();
    let arrivals: Vec<(f64, TenantId, JobSpec)> =
        tenants.iter().map(|t| (0.0, t.id, spec.clone())).collect();
    let cfg = SchedConfig {
        capacity: ClusterCapacity::tianhe2_like(TENANTS as usize * spec.ranks()),
        policy: SharePolicy::FairShare,
        seed: 23,
    };
    let span = ctx.spans.begin("sched.simulate_s");
    let t = Instant::now();
    let outcome = simulate(&cfg, &tenants, &arrivals, DesPlanner::new());
    ctx.set("sched.simulate_s", t.elapsed().as_secs_f64());
    ctx.spans.end(span);
    let services: Vec<f64> = outcome.records.iter().map(|r| r.service).collect();
    if services.is_empty() {
        return Err("the scheduler completed no campaign".into());
    }
    ctx.set("sched.fair_p99_over_solo", quantile(&services, 0.99) / solo);
    Ok(())
}
