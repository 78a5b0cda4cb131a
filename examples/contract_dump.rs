//! The contract dump: every artifact the refactoring PRs promise not to
//! move, one text line each — digests as FNV-64 hashes, every `f64` as its
//! bit pattern. `scripts/contract-diff.sh <base-ref>` runs this file on
//! `<base-ref>` and on the working tree and `diff`s the two outputs, so it
//! uses only public API that exists on both sides.
//!
//! ```text
//! cargo run --release --example contract_dump
//! ```
//!
//! * `cycle` rows — four variants × {no plan, seeded degraded plan, cycle
//!   crash (inert below a campaign)} × {no monitor, warmed monitor}: the
//!   real and modeled trace digests, fault digests and every
//!   [`ModelOutcome`] field; with the monitor, both monitors' snapshots
//!   at the cycle's close.
//! * `real` rows — supervised campaigns of the four executors ×
//!   {sync, pipelined} × a table of fault plans (plus one monitored storm):
//!   cycle digests, statistics, recoveries, the campaign trace digest,
//!   the health snapshots.
//! * `model` rows — the campaign model of the same table × {sync,
//!   pipelined, no checkpoints}: every `CampaignModelOutcome` field.
//! * `paper` rows — the claimed scale, where thousands of tasks queue ready
//!   at once: the four `des_paper_scale` cycles of the perf ledger at 1,200
//!   ranks and Fig. 13's 12,000-rank P-/S-EnKF point, S-EnKF autotuned as
//!   each of them tunes it; the same fields as a `cycle` model row. The
//!   `paper untraced` rows price the same points through the untraced
//!   forwards (`model_senkf` & co.): every outcome field, no trace.
//! * `sched` rows — one small mix of modelled campaigns with staggered
//!   arrivals, an unattainable SLA and a rank budget that queues, scheduled
//!   by `simulate` and executed by `run_real`: every share check, every
//!   record's f64 bits, the refusals, and each real campaign's cycle
//!   digests.

use s_enkf::ckpt::fnv64;
use s_enkf::core::BatchedKernel;
use s_enkf::parallel::{
    model_denkf, model_lenkf, model_penkf, model_senkf, BackoffClock, CkptMode,
};
use s_enkf::prelude::*;
use s_enkf::sched::{run_real, MixOutcome};
use s_enkf::trace::Trace;

const MEMBERS: usize = 4;
const CYCLES: usize = 3;
const RADIUS: LocalizationRadius = LocalizationRadius { xi: 1, eta: 1 };
const SENKF: Params = Params {
    nsdx: 2,
    nsdy: 2,
    layers: 2,
    ncg: 2,
};

fn mesh() -> Mesh {
    Mesh::new(24, 12)
}

fn executors() -> [(&'static str, CampaignExecutor); 4] {
    let kernel = BatchedKernel::Cholesky;
    [
        ("lenkf", CampaignExecutor::LEnkf { nsdx: 2, nsdy: 2 }),
        ("penkf", CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 }),
        ("senkf", CampaignExecutor::SEnkf(SENKF)),
        ("denkf", CampaignExecutor::DEnkf { shards: 4, kernel }),
    ]
}

fn model_cfg(obs_stride: usize) -> ModelConfig {
    let mut cfg = ModelConfig::paper();
    cfg.workload = Workload {
        nx: mesh().nx(),
        ny: mesh().ny(),
        members: MEMBERS,
        h: 8,
        xi: RADIUS.xi,
        eta: RADIUS.eta,
    };
    cfg.obs_stride = obs_stride;
    cfg
}

fn quick_retry(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base_backoff: 1e-6,
    }
}

/// A slowed OST, a recoverable read fault and a straggler: enough to move
/// a monitor's routing view without losing a member.
fn storm() -> FaultPlan {
    FaultPlan::new(2026)
        .with_ost_slowdown(2, 3.5)
        .with_read_fault(0, 2)
        .with_straggler(1, 1.8)
}

fn hash(text: &str) -> String {
    format!("{:016x}", fnv64(text.as_bytes()))
}

fn bits(values: &[f64]) -> String {
    let hex: Vec<String> = values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
    hex.join(",")
}

fn phases(p: &PhaseBreakdown) -> String {
    bits(&[p.read, p.comm, p.compute, p.wait, p.fault])
}

/// A modeled cycle's trace and fault digests and every [`ModelOutcome`]
/// field.
fn outcome(out: &ModelOutcome, trace: &Trace) -> String {
    format!(
        "trace={} faults={} {}",
        hash(&trace.digest()),
        hash(&trace.fault_digest(&out.dropped_members)),
        fields(out),
    )
}

/// Every [`ModelOutcome`] field.
fn fields(out: &ModelOutcome) -> String {
    format!(
        "dropped={:?} ranks={}+{} makespan={} first_compute={} compute=[{}] io=[{}]",
        out.dropped_members,
        out.num_compute_ranks,
        out.num_io_ranks,
        bits(&[out.makespan]),
        bits(&[out.first_compute_start]),
        phases(&out.compute_mean),
        phases(&out.io_mean),
    )
}

/// A monitor that has folded one cycle of the storm (through the model, so
/// both sides' monitors warm identically).
fn warmed(variant: &ModelVariant) -> HealthMonitor {
    let mut mon = HealthMonitor::new(HealthParams::default());
    let fcfg = FaultConfig::degraded(storm());
    model_cycle(
        &model_cfg(3),
        variant,
        Default::default(),
        &fcfg,
        Some(&mon),
    )
    .expect("warm-up");
    mon.end_cycle();
    mon
}

fn dump_cycles() {
    let scenario = ScenarioBuilder::new(mesh())
        .members(MEMBERS)
        .seed(42)
        .build();
    let scratch = ScratchDir::new("contract-dump-cycle").expect("scratch");
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh(), 8)).expect("store");
    write_ensemble(&store, &scenario.ensemble).expect("write ensemble");
    let setup = AssimilationSetup {
        store: &store,
        members: MEMBERS,
        observations: &scenario.observations,
        analysis: LocalAnalysis::new(RADIUS),
    };
    let plans = [
        ("none", FaultConfig::none()),
        (
            "degraded",
            FaultConfig::degraded(storm().with_unrecoverable_member(3)),
        ),
        (
            "cycle-crash",
            FaultConfig::degraded(FaultPlan::new(7).with_crash_at_cycle(0, 1, 0)),
        ),
    ];
    for (name, exec) in executors() {
        let variant = exec.variant();
        for (plan, fcfg) in &plans {
            for monitored in [false, true] {
                let tag = format!("cycle {name} {plan} monitor={monitored}");
                let (mut real_mon, mut model_mon) = (warmed(&variant), warmed(&variant));
                match run_cycle(&setup, exec, fcfg, monitored.then_some(&real_mon)) {
                    Ok((analysis, report, trace)) => println!(
                        "{tag} real trace={} faults={} dropped={:?} members={}",
                        hash(&trace.digest()),
                        hash(&trace.fault_digest(&report.dropped_members)),
                        report.dropped_members,
                        analysis.size(),
                    ),
                    Err(e) => println!("{tag} real error={e}"),
                }
                let modeled = model_cycle(
                    &model_cfg(3),
                    &variant,
                    Default::default(),
                    fcfg,
                    monitored.then_some(&model_mon),
                );
                match modeled {
                    Ok((out, trace)) => println!("{tag} model {}", outcome(&out, &trace)),
                    Err(e) => println!("{tag} model error={e}"),
                }
                if monitored {
                    println!(
                        "{tag} snapshots real={:?} model={:?}",
                        real_mon.end_cycle(),
                        model_mon.end_cycle()
                    );
                }
            }
        }
    }
}

/// One campaign-layer case: a fault configuration, the restart budget and
/// whether a health monitor rides along.
struct Case {
    name: &'static str,
    fault: FaultConfig,
    restart: RetryPolicy,
    monitored: bool,
}

fn cases() -> Vec<Case> {
    let crash = FaultConfig {
        plan: FaultPlan::new(7).with_crash_at_cycle(0, 1, 0),
        recv_timeout: 0.3,
        ..FaultConfig::none()
    };
    let lost = |member: usize, degraded: bool| FaultConfig {
        plan: FaultPlan::new(3).with_unrecoverable_member(member),
        retry: quick_retry(1),
        degraded,
        ..FaultConfig::none()
    };
    let case = |name, fault, max_retries, monitored| Case {
        name,
        fault,
        restart: quick_retry(max_retries),
        monitored,
    };
    vec![
        case("none", FaultConfig::none(), 3, false),
        case("crash", crash.clone(), 3, false),
        case(
            "storm-monitored",
            FaultConfig::degraded(storm()).with_retry(quick_retry(3)),
            3,
            true,
        ),
        // The four cases where supervisor and model disagreed before they
        // shared one state machine.
        case("fixed:budget0-crash", crash, 0, false),
        case("fixed:lost-last-degraded-off", lost(3, false), 3, false),
        case("fixed:lost-last-degraded-on", lost(3, true), 3, false),
        case("fixed:lost-first-degraded-off", lost(0, false), 3, false),
    ]
}

fn dump_real_campaign(name: &str, exec: &CampaignExecutor, case: &Case, mode: CkptMode) {
    let tag = format!("real {name} {} {mode:?}", case.name);
    let scratch = ScratchDir::new("contract-dump-campaign").expect("scratch");
    let work_dir = scratch.path().join("work");
    std::fs::create_dir_all(&work_dir).expect("work dir");
    let work = FileStore::open(&work_dir, FileLayout::new(mesh(), 8)).expect("work store");
    let ckpt = CheckpointStore::create(scratch.path().join("ckpt")).expect("ckpt store");
    let cfg = CampaignConfig {
        mesh: mesh(),
        cycles: CYCLES,
        members: MEMBERS,
        cycle: CycleConfig::default(),
        seed: 17,
        analysis: LocalAnalysis::new(RADIUS),
        inflation: 1.05,
        restart: case.restart,
    };
    let ctx = CampaignCtx {
        tenant: None,
        backoff: BackoffClock::Virtual,
        ckpt_mode: mode,
        health: case.monitored.then(HealthParams::default),
    };
    match run_campaign_ctx(&work, &ckpt, exec, &cfg, &case.fault, &ctx) {
        Ok(r) => {
            let digests: Vec<String> = r
                .cycle_digests
                .iter()
                .map(|d| format!("{d:016x}"))
                .collect();
            let stats: Vec<String> = r
                .stats
                .iter()
                .map(|s| bits(&[s.forecast_rmse, s.analysis_rmse, s.free_run_rmse]))
                .collect();
            let recoveries: Vec<String> = r
                .recoveries
                .iter()
                .map(|e| {
                    format!(
                        "c{}a{}{}<-{}",
                        e.cycle,
                        e.attempt,
                        if e.degraded { "d" } else { "r" },
                        e.restored_from
                    )
                })
                .collect();
            println!(
                "{tag} digests={digests:?} stats={stats:?} recoveries={recoveries:?} \
                 trace={} final={}x{} backoff={} snapshots={:?}",
                hash(&r.trace.digest()),
                r.final_analysis.size(),
                hash(&format!("{:?}", r.final_analysis.states())),
                bits(&[r.virtual_backoff]),
                r.health_snapshots,
            );
        }
        Err(CampaignError::RestartBudgetExhausted {
            cycle, attempts, ..
        }) => println!("{tag} gave-up cycle={cycle} attempts={attempts}"),
        Err(e) => println!("{tag} error={e}"),
    }
}

fn dump_model_campaign(name: &str, variant: &ModelVariant, case: &Case) {
    let stride = CycleConfig::default().obs_stride;
    for (mode, checkpoint, pipelined) in [
        ("sync", true, false),
        ("pipelined", true, true),
        ("no-ckpt", false, false),
    ] {
        let tag = format!("model {name} {} {mode}", case.name);
        let plan = CampaignModelPlan {
            cycles: CYCLES,
            checkpoint,
            pipelined,
            restart: case.restart,
        };
        let mut mon = HealthMonitor::new(HealthParams::default());
        let monitor = case.monitored.then_some(&mut mon);
        match model_campaign_adaptive(&model_cfg(stride), variant, &plan, &case.fault, monitor) {
            Ok((o, trace)) => {
                let digests: Vec<String> = o
                    .cycle_digests
                    .iter()
                    .map(|d| format!("{d:016x}"))
                    .collect();
                println!(
                    "{tag} digests={digests:?} restarts={} trace={} f64=[{}] cycle=[{}] \
                     snapshots={:?}",
                    o.restarts,
                    hash(&trace.digest()),
                    bits(&[
                        o.makespan,
                        o.cycle_makespan,
                        o.checkpoint_time,
                        o.restore_time,
                        o.lost_time,
                        o.ckpt_exposed,
                        o.ckpt_hidden,
                    ]),
                    bits(&[o.cycle.makespan, o.cycle.first_compute_start]),
                    o.health_snapshots,
                );
            }
            Err(e) => println!("{tag} error={e}"),
        }
    }
}

/// The paper points: `(np, variant)` on the paper-scale configuration;
/// the perf ledger tunes with `ε = 1e-3`, the Fig. 13 sweep with `2e-2`.
fn paper_points(cfg: &ModelConfig) -> [(usize, ModelVariant); 6] {
    let tuned = |np, eps| {
        let tuned = autotune(&cfg.cost_params(), np, eps).expect("autotune");
        ModelVariant::SEnkf(tuned.params)
    };
    [
        (1_200, tuned(1_200, 1e-3)),
        (1_200, ModelVariant::PEnkf { nsdx: 30, nsdy: 40 }),
        (1_200, ModelVariant::LEnkf { nsdx: 30, nsdy: 40 }),
        (1_200, ModelVariant::DEnkf { shards: 120 }),
        (
            12_000,
            ModelVariant::PEnkf {
                nsdx: 120,
                nsdy: 100,
            },
        ),
        (12_000, tuned(12_000, 2e-2)),
    ]
}

/// The `paper` rows: every paper point through `model_cycle`.
fn dump_paper() {
    let cfg = ModelConfig::paper();
    for (np, variant) in paper_points(&cfg) {
        let tag = format!("paper {np} {variant:?}");
        let none = FaultConfig::none();
        match model_cycle(&cfg, &variant, Default::default(), &none, None) {
            Ok((out, trace)) => println!("{tag} {}", outcome(&out, &trace)),
            Err(e) => println!("{tag} error={e}"),
        }
    }
}

/// The `paper untraced` rows: the paper points through the untraced
/// forwards (`model_senkf` & co.), which build no trace — every outcome
/// field, to compare with the `paper` row of the same point.
fn dump_paper_untraced() {
    let cfg = ModelConfig::paper();
    for (np, variant) in paper_points(&cfg) {
        let tag = format!("paper untraced {np} {variant:?}");
        let out = match variant {
            ModelVariant::SEnkf(params) => model_senkf(&cfg, params),
            ModelVariant::PEnkf { nsdx, nsdy } => model_penkf(&cfg, nsdx, nsdy),
            ModelVariant::LEnkf { nsdx, nsdy } => model_lenkf(&cfg, nsdx, nsdy),
            ModelVariant::DEnkf { shards } => model_denkf(&cfg, shards),
        };
        match out {
            Ok(out) => println!("{tag} {}", fields(&out)),
            Err(e) => println!("{tag} error={e}"),
        }
    }
}

fn mix_rows(tag: &str, out: &MixOutcome) {
    println!(
        "{tag} shares={} rejected={:?} unscheduled={:?} makespan={}",
        hash(&format!("{:?}", out.share_checks)),
        out.rejected,
        out.unscheduled,
        bits(&[out.makespan]),
    );
    for r in &out.records {
        println!(
            "{tag} record job={} f64=[{}] solo={:?} cycles={} ranks={} shares=[{}]",
            r.id,
            bits(&[r.submit, r.dispatch, r.completion, r.service]),
            r.solo_prediction.map(|s| bits(&[s])),
            r.cycles,
            r.ranks,
            bits(&r.shares_seen),
        );
    }
}

fn dump_sched() {
    let tenants = [TenantSpec::new(0, 2.0), TenantSpec::new(1, 1.0)];
    let penkf = CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 };
    let job = |exec: CampaignExecutor, cycles, sla| {
        let campaign = CampaignConfig {
            mesh: mesh(),
            cycles,
            members: MEMBERS,
            cycle: CycleConfig::default(),
            seed: 17,
            analysis: LocalAnalysis::new(RADIUS),
            inflation: 1.05,
            restart: quick_retry(3),
        };
        let mut spec = JobSpec::best_effort(exec, campaign);
        spec.model = Some(JobModel {
            cfg: model_cfg(CycleConfig::default().obs_stride),
            variant: exec.variant(),
            checkpoint: true,
        });
        spec.sla = Some(sla);
        spec
    };
    let (t0, t1) = (tenants[0].id, tenants[1].id);
    let arrivals = [
        (0.0, t0, job(penkf, 2, 1e9)),
        (0.5, t0, job(CampaignExecutor::SEnkf(SENKF), 1, 1e9)),
        (1.0, t1, job(penkf, 2, 1e9)),
        (1.5, t1, job(penkf, 1, 1e-9)),
    ];
    let cfg = SchedConfig {
        capacity: ClusterCapacity::tianhe2_like(8),
        policy: SharePolicy::FairShare,
        seed: 13,
    };
    mix_rows(
        "sched simulate",
        &simulate(&cfg, &tenants, &arrivals, DesPlanner::new()),
    );

    let scratch = ScratchDir::new("contract-dump-sched").expect("scratch");
    let stores: Vec<(FileStore, CheckpointStore)> = (0..arrivals.len())
        .map(|i| {
            let dir = scratch.path().join(format!("job-{i}"));
            std::fs::create_dir_all(dir.join("work")).expect("work dir");
            let work = FileStore::open(dir.join("work"), FileLayout::new(mesh(), 8));
            let ckpt = CheckpointStore::create(dir.join("ckpt")).expect("ckpt store");
            (work.expect("work store"), ckpt)
        })
        .collect();
    let stores: Vec<_> = stores.iter().map(|(work, ckpt)| (work, ckpt)).collect();
    let (real, reports) = run_real(&cfg, &tenants, &arrivals, &stores, DesPlanner::new());
    mix_rows("sched real", &real);
    for (id, report) in reports {
        match report {
            Ok(r) => println!(
                "sched real campaign job={id} digests={}",
                hash(&format!("{:?}", r.cycle_digests))
            ),
            Err(e) => println!("sched real campaign job={id} error={e}"),
        }
    }
}

fn main() {
    dump_cycles();
    dump_paper();
    dump_paper_untraced();
    for case in cases() {
        for (name, exec) in executors() {
            for mode in [CkptMode::Sync, CkptMode::Pipelined] {
                dump_real_campaign(name, &exec, &case, mode);
            }
            dump_model_campaign(name, &exec.variant(), &case);
        }
    }
    dump_sched();
}
