//! `enkf-parallel`, `enkf-trace`, `enkf-fault` and `enkf-health`: the traced
//! pass. Executors run through their `*_traced` entry points, the returned
//! traces are projected into the paper's read / comm / compute / wait budget
//! (Fig. 9), and the same loop times the entry points that are documented
//! as free — tracing, an empty fault plan, a health monitor at severity 0 —
//! against the plain one.

use super::{Ctx, Pacing};
use crate::stats::{median, overhead_frac, quantile};
use crate::workload::{Exec, ModelPlan, Ranks, Real, Workload};
use crate::Tally;
use enkf_core::Ensemble;
use enkf_fault::FaultConfig;
use enkf_health::{HealthMonitor, HealthParams};
use enkf_net::NetParams;
use enkf_parallel::{parallel_write_back, ModelConfig, PhaseBreakdown, SEnkf};
use enkf_pfs::{FileStore, PfsParams};
use enkf_trace::{Op, Role, Span, Trace};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// What the traced pass learned about one executor.
#[derive(Default)]
pub struct ExecPass {
    /// Host seconds per cycle, one per successful operation.
    pub cycle_s: Vec<f64>,
    /// The last operation's trace and the cycles it covers.
    pub trace: Trace,
    pub cycles: usize,
}

/// The workload's own operations (cycles, campaigns or model calls) through
/// their traced entry points.
pub fn workload_pass(
    ctx: &mut Ctx<'_>,
    w: &mut Workload,
    pacing: Pacing,
    tally: &mut Tally,
) -> [ExecPass; 4] {
    let mut passes: [ExecPass; 4] = Default::default();
    let started = Instant::now();
    let mut round = 0;
    while pacing.more(round, started) {
        ctx.spans.set_round(Some(round));
        for exec in Exec::ALL {
            let id = ctx.spans.begin(&format!("traced.{}", exec.name()));
            let outcome = w.run_op(exec, true);
            ctx.spans.end(id);
            tally.record(exec.name(), outcome.failure.as_deref());
            if outcome.failure.is_none() {
                let pass = &mut passes[exec.index()];
                pass.cycle_s.push(outcome.cycle_s);
                pass.trace = outcome.trace.expect("a traced operation returns its trace");
                pass.cycles = w.cycles_per_op();
            }
        }
        round += 1;
    }
    ctx.spans.set_round(None);
    passes
}

/// Real two-rank cycles on the workload's member files.
pub struct RealPass {
    pub execs: [ExecPass; 4],
    /// S-EnKF through `run`, `run_faulted(FaultConfig::none())` and
    /// `run_adaptive(Some(monitor))`, interleaved with the traced runs.
    untraced: Vec<f64>,
    faulted: Vec<f64>,
    adaptive: Vec<f64>,
    end_cycle: Vec<f64>,
}

/// One S-EnKF cycle through `call`, timed from outside and checked against
/// the serial reference like every other operation.
fn senkf_arm(
    ctx: &mut Ctx<'_>,
    real: &Real,
    tally: &mut Tally,
    name: &str,
    samples: &mut Vec<f64>,
    call: impl FnOnce() -> enkf_core::Result<Ensemble>,
) {
    let id = ctx.spans.begin(name);
    let t = Instant::now();
    let result = call();
    let seconds = t.elapsed().as_secs_f64();
    ctx.spans.end(id);
    let failure = match &result {
        Ok(analysis) => real.check(Exec::Senkf, analysis),
        Err(e) => Some(e.to_string()),
    };
    tally.record(name, failure.as_deref());
    if failure.is_none() {
        samples.push(seconds);
    }
}

pub fn real_pass(ctx: &mut Ctx<'_>, real: &Real, pacing: Pacing, tally: &mut Tally) -> RealPass {
    let mut pass = RealPass {
        execs: Default::default(),
        untraced: Vec::new(),
        faulted: Vec::new(),
        adaptive: Vec::new(),
        end_cycle: Vec::new(),
    };
    let senkf = SEnkf::new(Ranks::TWO.senkf);
    let setup = real.setup();
    let none = FaultConfig::none();
    let mut monitor = HealthMonitor::new(HealthParams::default());
    let started = Instant::now();
    let mut round = 0;
    while pacing.more(round, started) {
        ctx.spans.set_round(Some(round));
        senkf_arm(ctx, real, tally, "senkf.run", &mut pass.untraced, || {
            senkf.run(&setup).map(|r| r.0)
        });
        for exec in Exec::ALL {
            let id = ctx.spans.begin(&format!("{}.run_traced", exec.name()));
            let t = Instant::now();
            let result = real.run(exec, true);
            let seconds = t.elapsed().as_secs_f64();
            ctx.spans.end(id);
            let (failure, trace) = match result {
                Ok((analysis, trace)) => (real.check(exec, &analysis), trace),
                Err(e) => (Some(e), None),
            };
            tally.record(exec.name(), failure.as_deref());
            if failure.is_none() {
                let slot = &mut pass.execs[exec.index()];
                slot.cycle_s.push(seconds);
                slot.trace = trace.expect("a traced cycle returns its trace");
                slot.cycles = 1;
            }
        }
        senkf_arm(
            ctx,
            real,
            tally,
            "senkf.run_faulted",
            &mut pass.faulted,
            || senkf.run_faulted(&setup, &none).map(|r| r.0),
        );
        senkf_arm(
            ctx,
            real,
            tally,
            "senkf.run_adaptive",
            &mut pass.adaptive,
            || {
                senkf
                    .run_adaptive(&setup, &none, Some(&monitor))
                    .map(|r| r.0)
            },
        );
        let id = ctx.spans.begin("health.end_cycle_us");
        let t = Instant::now();
        black_box(monitor.end_cycle());
        pass.end_cycle.push(t.elapsed().as_secs_f64());
        ctx.spans.end(id);
        round += 1;
    }
    ctx.spans.set_round(None);
    pass
}

/// Spans of the executor's own ranks: checkpoint, restore and recovery
/// spans belong to the campaign supervisor and are `enkf-ckpt`'s numbers.
fn executor_spans(trace: &Trace) -> impl Iterator<Item = &Span> {
    trace
        .spans()
        .iter()
        .filter(|s| !matches!(s.op, Op::Ckpt | Op::Restore | Op::Recovery))
}

/// Per-rank, per-cycle mean phases of the ranks with `role`.
fn mean_phases(pass: &ExecPass, role: Role) -> PhaseBreakdown {
    let spans = || executor_spans(&pass.trace).filter(move |s| s.role == role);
    let ranks: BTreeSet<usize> = spans().map(|s| s.rank).collect();
    if ranks.is_empty() || pass.cycles == 0 {
        return PhaseBreakdown::default();
    }
    PhaseBreakdown::from_spans(spans()).scaled(1.0 / (ranks.len() * pass.cycles) as f64)
}

/// Fig. 9 for one executor, plus its message and read counts per cycle.
pub fn project(ctx: &mut Ctx<'_>, exec: Exec, pass: &ExecPass) {
    let e = exec.name();
    if pass.cycle_s.is_empty() {
        // Every operation failed; the tally already says so and the ledger
        // will report the metrics below as unset.
        return;
    }
    let compute = mean_phases(pass, Role::Compute);
    ctx.set(&format!("parallel.{e}.read_s"), compute.read);
    ctx.set(&format!("parallel.{e}.comm_s"), compute.comm);
    ctx.set(&format!("parallel.{e}.compute_s"), compute.compute);
    ctx.set(&format!("parallel.{e}.wait_s"), compute.wait);
    ctx.set(
        &format!("parallel.{e}.cycle_p90_s"),
        quantile(&pass.cycle_s, 0.9),
    );
    let cycles = pass.cycles as f64;
    let (mut seeks, mut bytes_read, mut msgs, mut msg_bytes) = (0u64, 0u64, 0u64, 0u64);
    for s in executor_spans(&pass.trace) {
        match s.op {
            Op::Read => {
                seeks += s.seeks;
                bytes_read += s.bytes;
            }
            Op::Send => {
                msgs += 1;
                msg_bytes += s.bytes;
            }
            _ => {}
        }
    }
    ctx.set(&format!("parallel.{e}.seeks"), seeks as f64 / cycles);
    ctx.set(
        &format!("parallel.{e}.bytes_read"),
        bytes_read as f64 / cycles,
    );
    ctx.set(&format!("net.msgs_per_cycle.{e}"), msgs as f64 / cycles);
    ctx.set(
        &format!("net.bytes_per_cycle.{e}"),
        msg_bytes as f64 / cycles,
    );
    if exec == Exec::Senkf {
        let io = mean_phases(pass, Role::Io);
        ctx.set("parallel.senkf.io_read_s", io.read);
        ctx.set("parallel.senkf.io_wait_s", io.wait);
        // The share of the cycle after the first local analysis started:
        // only the first stage's acquisition is exposed (§5.4), the same
        // definition as `ModelOutcome::overlapped_fraction`.
        let first_compute = executor_spans(&pass.trace)
            .filter(|s| s.op == Op::Compute)
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        let end = executor_spans(&pass.trace)
            .map(|s| s.start + s.dur)
            .fold(0.0, f64::max);
        let overlap = if end > 0.0 && first_compute.is_finite() {
            (1.0 - first_compute / end).clamp(0.0, 1.0)
        } else {
            0.0
        };
        ctx.set("parallel.senkf.overlap_frac", overlap);
    }
}

/// `enkf-trace`'s own costs on the S-EnKF trace of the workload.
pub fn trace_layer(ctx: &mut Ctx<'_>, pass: &ExecPass) {
    let budget = ctx.light();
    ctx.set(
        "trace.spans_per_cycle",
        pass.trace.spans().len() as f64 / pass.cycles.max(1) as f64,
    );
    ctx.time_us("trace.digest_us", budget, || {
        black_box(pass.trace.digest());
    });
    ctx.time_s("trace.chrome_json_s", budget, || {
        black_box(pass.trace.to_chrome_json());
    });
}

/// The entry points documented as free, as a fraction of the plain one;
/// every executor's speed-up over the serial run of the same problem; and
/// how far a DES fitted to this run's own layer numbers lands from the
/// measured cycle.
pub fn ratios(ctx: &mut Ctx<'_>, real: &Real, pass: &RealPass) {
    let all_measured = [&pass.untraced, &pass.faulted, &pass.adaptive]
        .iter()
        .all(|s| !s.is_empty())
        && pass.execs.iter().all(|p| !p.cycle_s.is_empty());
    if !all_measured {
        return;
    }
    let untraced = median(&pass.untraced);
    let faulted = median(&pass.faulted);
    let traced = median(&pass.execs[Exec::Senkf.index()].cycle_s);
    ctx.set("trace.overhead_frac", overhead_frac(traced, untraced));
    ctx.set(
        "fault.empty_plan_overhead_frac",
        overhead_frac(faulted, untraced),
    );
    ctx.set(
        "health.monitor_overhead_frac",
        overhead_frac(median(&pass.adaptive), faulted),
    );
    ctx.set("health.end_cycle_us", median(&pass.end_cycle) * 1e6);

    let g = real.geometry;
    let serial = ctx.ledger.get("core.serial_enkf_s");
    // Machine constants from this run: θ from the full-file read rate, the
    // seek cost from what a block read takes beyond its bytes, a from half
    // a ping-pong, b from what a fan-out send costs beyond a, c from the
    // local analysis per point.
    let get = |name: &str| ctx.ledger.get(name);
    let theta = 1.0 / (get("pfs.read_gbps") * 1e9);
    let seek = ((get("pfs.read_block_s") - get("pfs.read_block_bytes") * theta)
        / get("pfs.read_block_seeks"))
    .max(0.0);
    let alpha = get("net.pingpong_us") * 1e-6 / 2.0;
    let block_bytes = get("pfs.read_bar_bytes") / g.members as f64 / 2.0;
    let beta = ((get("net.bar_fanout_us") * 1e-6 / 2.0 - alpha) / block_bytes).max(0.0);
    let fitted = ModelPlan {
        cfg: ModelConfig {
            workload: g.tuning_workload(),
            pfs: PfsParams {
                seek_time: seek,
                byte_time: theta,
                ..PfsParams::tianhe2_like()
            },
            net: NetParams { alpha, beta },
            compute_cost_per_point: 1.0 / get("core.points_per_s"),
            obs_stride: g.obs_stride,
        },
        ranks: Ranks::TWO,
    };
    for exec in Exec::ALL {
        let e = exec.name();
        let measured = median(&pass.execs[exec.index()].cycle_s);
        ctx.set(
            &format!("parallel.{e}.speedup_vs_serial"),
            serial / measured,
        );
        // A model that cannot be built leaves the metric unset, which the
        // ledger reports.
        if let Ok((predicted, _)) = fitted.run(exec, false) {
            ctx.set(
                &format!("parallel.model_residual.{e}"),
                (predicted.makespan - measured).abs() / measured,
            );
        }
    }
}

pub fn writeback(ctx: &mut Ctx<'_>, real: &Real, writes: &FileStore) {
    let heavy = ctx.heavy();
    ctx.time_s("parallel.writeback_s", heavy, || {
        parallel_write_back(writes, &real.reference_enkf, 2)
            .expect("two writers divide every workload's mesh");
    });
}
