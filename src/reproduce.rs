//! The paper's evaluation as one table of rows.
//!
//! Each [`Figure`] pairs a figure of the paper's evaluation, an ablation of
//! its co-designs or an extension sweep with the claim made about it, the
//! sweep that regenerates its table on the modeled Tianhe-2-like cluster,
//! and a *verdict*: a pure predicate over that table that returns
//! `Err(why)` when the claim does not hold. Figures 1, 9, 11 and 13 and
//! Algorithm 2's check are projections of one sweep — P-EnKF and
//! auto-tuned S-EnKF at six processor counts — priced once per [`Sweeps`].
//! Every figure is priced by `model_cycle` on the executors' own cycle
//! programs — the reading figures (5, 10 and the reading ablation) too,
//! with everything but the reads made free — and every campaign by
//! `model_campaign_adaptive`.
//!
//! `examples/reproduce.rs` prints the tables as markdown (the blocks
//! EXPERIMENTS.md carries) and fails when a verdict does;
//! `tests/reproduce.rs` asserts the verdicts.

use crate::core::LocalAnalysis;
use crate::data::CycleConfig;
use crate::fault::{FaultConfig, FaultPlan, RetryPolicy, OSTS};
use crate::grid::{LocalizationRadius, Mesh};
use crate::health::{HealthMonitor, HealthParams};
use crate::net::NetParams;
use crate::parallel::{model_campaign_adaptive, model_cycle, CampaignConfig, CampaignExecutor};
use crate::parallel::{CampaignModelPlan, Emitter, ModelConfig, ModelOutcome, ModelVariant};
use crate::parallel::{PhaseBreakdown, SEnkfModelOptions};
use crate::pfs::STREAMS_PER_OST;
use crate::sched::{simulate, ClusterCapacity, DesPlanner, JobModel, JobSpec, SchedConfig};
use crate::sched::{SharePolicy, TenantSpec};
use crate::trace::Trace;
use crate::tuning::Workload;
use crate::tuning::{autotune, candidates, economic_choice, min_t1_curve};
use crate::tuning::{CurvePoint, Params, TunedParams};
use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;

type Res<T> = Result<T, String>;

/// One row of the reproduction.
pub struct Figure {
    /// The name the driver selects the row by (`fig13`, `mttr`, …).
    pub name: &'static str,
    /// The claim the verdict checks.
    pub claim: &'static str,
    /// Regenerates the table.
    pub sweep: fn(&Sweeps) -> Result<Table, String>,
    /// The claim as a pure predicate over the table.
    pub verdict: fn(&Table) -> Result<(), String>,
}

macro_rules! figures {
    ($($name:ident / $verdict:ident: $claim:literal,)*) => {
        /// Every figure of the paper's evaluation, the ablations of its
        /// co-designs and the extension sweeps, in EXPERIMENTS.md's order.
        pub const FIGURES: &[Figure] = &[$(Figure {
            name: stringify!($name),
            claim: $claim,
            sweep: $name,
            verdict: $verdict,
        }),*];
    };
}

figures! {
    fig01 / fig01_holds: "Fig. 1: P-EnKF's I/O share grows with n_p until it dominates",
    fig05 / fig05_holds: "Fig. 5: block-reading time grows almost linearly with n_sdx",
    fig09 / fig09_holds: "Fig. 9: P-EnKF waits longer with n_p, S-EnKF hides I/O and waits less",
    fig10 / fig10_holds: "Fig. 10: reading speeds up with n_cg to the OST count, then flattens",
    fig11 / fig11_holds: "Fig. 11: only the first stage is exposed; the overlap stays high",
    fig12 / fig12_holds: "Fig. 12: model and test data make the same economic C₁ (Eq. 14)",
    fig13 / fig13_holds: "Fig. 13: P-EnKF stops scaling near 8k; S-EnKF is near-ideal and ~3x",
    alg2 / alg2_holds: "Algorithm 2: T_total predicts the DES within 1% at 12,000 processors",
    ablation_reading / reading_holds: "Ablation: bar reading beats block reading",
    ablation_layers / layers_hold: "Ablation: more layers shrink the exposed stage and runtime",
    ablation_groups / groups_hold: "Ablation: concurrent groups help until the OSTs saturate",
    ablation_helper / helper_holds: "Ablation: the helper thread offloads communication (Fig. 8)",
    fig14 / fig14_holds: "Extension (Fig. 14): S-EnKF degrades less than P-EnKF under faults",
    mttr / mttr_holds: "Extension: a recovery line bounds crash loss, pipelined or not",
    fairness / fairness_holds: "Extension: fair-share keeps every campaign within its SLA",
    adaptive / adaptive_holds: "Extension: a clean monitor is free; adaptation wins storms",
    batched / batched_holds: "Extension: the batched D-EnKF update loses to P-EnKF's analysis",
}

/// One table cell: the exact value a verdict reads and the text printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The value at full precision (`NaN` in a text cell).
    pub value: f64,
    /// What the markdown table shows.
    pub shown: String,
}

/// A row's table; `Display` prints it as markdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// `(name, cells)` per column, cells top to bottom.
    pub columns: Vec<(&'static str, Vec<Cell>)>,
}

impl Table {
    /// Column `name`'s values, top to bottom.
    fn col(&self, name: &str) -> Res<Vec<f64>> {
        let col = self.columns.iter().find(|(n, _)| *n == name);
        let (_, cells) = col.ok_or_else(|| format!("no column {name:?}"))?;
        Ok(cells.iter().map(|c| c.value).collect())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.columns.iter().map(|(name, _)| *name).collect();
        writeln!(f, "| {} |", names.join(" | "))?;
        writeln!(f, "|{}", "---|".repeat(names.len()))?;
        for i in 0..self.columns.first().map_or(0, |(_, cells)| cells.len()) {
            let row: Vec<&str> = self.columns.iter().map(|c| c.1[i].shown.as_str()).collect();
            writeln!(f, "| {} |", row.join(" | "))?;
        }
        Ok(())
    }
}

/// A table under construction: each column's cells computed from the items.
struct Columns<'a, T>(&'a [T], Table);

impl<T> Columns<'_, T> {
    fn col(mut self, name: &'static str, cell: impl Fn(&T) -> Cell) -> Self {
        let cells = self.0.iter().map(cell).collect();
        self.1.columns.push((name, cells));
        self
    }

    fn done(self) -> Res<Table> {
        Ok(self.1)
    }
}

fn table<T>(items: &[T]) -> Columns<'_, T> {
    Columns(items, Table::default())
}

/// `f` over `xs`, up to the first error.
fn each<X, Y>(xs: impl IntoIterator<Item = X>, f: impl FnMut(X) -> Res<Y>) -> Res<Vec<Y>> {
    xs.into_iter().map(f).collect()
}

fn cell(value: f64, shown: String) -> Cell {
    Cell { value, shown }
}

fn secs(v: f64) -> Cell {
    cell(v, format!("{v:.3}"))
}

fn pct(v: f64) -> Cell {
    cell(v, format!("{:.1}%", v * 100.0))
}

fn times(v: f64) -> Cell {
    cell(v, format!("{v:.2}x"))
}

fn int(n: usize) -> Cell {
    cell(n as f64, n.to_string())
}

fn text(s: impl fmt::Display) -> Cell {
    cell(f64::NAN, s.to_string())
}

/// A text cell a verdict reads as 1 when `on`, else 0.
fn flag(on: bool, shown: &str) -> Cell {
    cell(f64::from(u8::from(on)), shown.to_string())
}

/// A verdict's check: `Err(why)` unless `ok`.
fn ensure(ok: bool, why: &str) -> Res<()> {
    ok.then_some(()).ok_or_else(|| why.to_string())
}

/// `v[i]`, or `NaN` (which fails every comparison) past the end.
fn at(v: &[f64], i: usize) -> f64 {
    v.get(i).copied().unwrap_or(f64::NAN)
}

fn last(v: &[f64]) -> f64 {
    at(v, v.len().wrapping_sub(1))
}

/// Whether `v` is non-empty and every step `(a, b)` of it passes `step`.
fn steps(v: &[f64], step: fn(f64, f64) -> bool) -> bool {
    !v.is_empty() && v.windows(2).all(|w| step(w[0], w[1]))
}

/// The `--tiny` workload: a 240 × 120 mesh with 8 members.
const TINY: Workload = Workload {
    nx: 240,
    ny: 120,
    members: 8,
    h: 80,
    xi: 2,
    eta: 2,
};

/// Figures 1, 9, 11 and 13's processor counts `n_p`, with the P-EnKF
/// `n_sdx × n_sdy` decomposition at each (divisors of the 3600 × 1800 mesh).
const SCALING: [(usize, usize, usize); 6] = [
    (2000, 50, 40),
    (4000, 100, 40),
    (6000, 100, 60),
    (8000, 80, 100),
    (10000, 100, 100),
    (12000, 120, 100),
];

/// One point of the scaling sweep: P-EnKF and auto-tuned S-EnKF at `np`.
struct Point {
    np: usize,
    p: ModelOutcome,
    s: ModelOutcome,
    tuned: TunedParams,
}

/// How the sweeps run, and the scaling sweep once it has.
pub struct Sweeps {
    tiny: bool,
    traces: Option<PathBuf>,
    scaling: OnceLock<Res<Vec<Point>>>,
}

impl Sweeps {
    /// `tiny` runs Fig. 12 and the campaign, scheduler and batched sweeps —
    /// up to minutes each at paper scale — on a 240 × 120, 8-member
    /// workload; every other row states a claim that needs paper scale and
    /// always runs there. With `traces`, each run of the scaling sweep
    /// writes its Chrome trace into that directory.
    pub fn new(tiny: bool, traces: Option<PathBuf>) -> Self {
        Sweeps {
            tiny,
            traces,
            scaling: OnceLock::new(),
        }
    }

    fn scaling(&self) -> Res<&[Point]> {
        let points = self.scaling.get_or_init(|| {
            let cfg = ModelConfig::paper();
            let run = |v: ModelVariant, np: usize| -> Res<ModelOutcome> {
                let (out, mut trace) = cycle(&cfg, v, &FaultConfig::none())?;
                if let Some(dir) = &self.traces {
                    trace.set_label(format!("scaling-{}-{np}", v.name()));
                    trace.write_chrome_json(dir).map_err(|e| e.to_string())?;
                }
                Ok(out)
            };
            each(SCALING, |(np, nsdx, nsdy)| {
                let tuned = tune(&cfg, np)?;
                let p = run(ModelVariant::PEnkf { nsdx, nsdy }, np)?;
                let s = run(ModelVariant::SEnkf(tuned.params), np)?;
                Ok(Point { np, p, s, tuned })
            })
        });
        points.as_deref().map_err(Clone::clone)
    }

    /// The tiny configuration, or the paper's.
    fn cfg(&self) -> ModelConfig {
        let paper = ModelConfig::paper();
        let workload = if self.tiny { TINY } else { paper.workload };
        ModelConfig { workload, ..paper }
    }

    /// The campaign sweeps' configuration and S-EnKF: the tiny workload's
    /// 24 compute ranks, or auto-tuned at 8,000 processors.
    fn senkf(&self) -> Res<(ModelConfig, Params)> {
        let cfg = self.cfg();
        match self.tiny {
            true => Ok((cfg, params(6, 4, 2, 2))),
            false => Ok((cfg, tune(&cfg, 8000)?.params)),
        }
    }
}

fn params(nsdx: usize, nsdy: usize, layers: usize, ncg: usize) -> Params {
    Params {
        nsdx,
        nsdy,
        layers,
        ncg,
    }
}

/// Algorithm 2 at `np` processors, with the earnings-rate threshold every
/// row uses.
fn tune(cfg: &ModelConfig, np: usize) -> Res<TunedParams> {
    autotune(&cfg.cost_params(), np, 2e-2).ok_or_else(|| format!("nothing to tune at {np}"))
}

/// One modeled cycle of the paper's design (helper thread on).
fn cycle(cfg: &ModelConfig, v: ModelVariant, f: &FaultConfig) -> Res<(ModelOutcome, Trace)> {
    model_cycle(cfg, &v, SEnkfModelOptions::default(), f, None)
}

fn makespan(cfg: &ModelConfig, v: ModelVariant, f: &FaultConfig) -> Res<f64> {
    cycle(cfg, v, f).map(|(out, _)| out.makespan)
}

/// P-EnKF's I/O and compute shares of a rank's time. Obtaining data is the
/// read service plus the disk-queue waiting it induces: in P-EnKF every
/// wait is a disk wait.
fn shares(m: &PhaseBreakdown) -> (f64, f64) {
    let io = m.read + m.comm + m.wait;
    let total = io + m.compute;
    (io / total, m.compute / total)
}

fn fig01(s: &Sweeps) -> Res<Table> {
    table(s.scaling()?)
        .col("processors", |p| int(p.np))
        .col("io_share", |p| pct(shares(&p.p.compute_mean).0))
        .col("compute_share", |p| pct(shares(&p.p.compute_mean).1))
        .col("runtime_s", |p| secs(p.p.makespan))
        .done()
}

fn fig01_holds(t: &Table) -> Res<()> {
    let io = t.col("io_share")?;
    ensure(steps(&io, |a, b| b >= a), "the I/O share falls")?;
    ensure(last(&io) > 0.5, "the I/O share ends at most 50%")
}

/// Reading `files` member files through `variant`'s cycle program on the
/// paper's substrate with compute and communication free, so the makespan
/// is the reads': `(makespan, mean OST utilisation)`, the OSTs' busy
/// seconds over their streams' capacity. Block reading (Fig. 3) is
/// P-EnKF's program, each rank reading its expansion of every file.
/// Concurrent access (§4.1.3) is one-layer S-EnKF over `1 × n_sdy` bars;
/// its readers read whole bars, so the radii are zeroed to drop the halo
/// rows a bar of the S-EnKF program would add.
fn reading(variant: ModelVariant, files: usize) -> Res<(f64, f64)> {
    let paper = ModelConfig::paper();
    let (xi, eta) = match variant {
        ModelVariant::SEnkf(_) => (0, 0),
        _ => (paper.workload.xi, paper.workload.eta),
    };
    let workload = Workload {
        members: files,
        xi,
        eta,
        ..paper.workload
    };
    let net = NetParams {
        alpha: 0.0,
        beta: 0.0,
    };
    let cfg = ModelConfig {
        workload,
        net,
        compute_cost_per_point: 0.0,
        ..paper
    };
    let (out, _) = cycle(&cfg, variant, &FaultConfig::none())?;
    let (compute, io) = (out.num_compute_ranks as f64, out.num_io_ranks as f64);
    let busy = out.compute_mean.read * compute + out.io_mean.read * io;
    let streams = (OSTS * STREAMS_PER_OST) as f64;
    Ok((out.makespan, busy / (streams * out.makespan)))
}

/// One-layer S-EnKF reading with `ncg` groups of `nsdy` bar readers.
fn bars(nsdy: usize, ncg: usize) -> ModelVariant {
    ModelVariant::SEnkf(params(1, nsdy, 1, ncg))
}

fn fig05(_: &Sweeps) -> Res<Table> {
    // n_sdy = 10, 100 members; the divisors of 3600 in the paper's 100..500.
    let runs = each([100, 150, 200, 240, 300, 360, 400, 450], |nsdx| {
        Ok((
            nsdx,
            reading(ModelVariant::PEnkf { nsdx, nsdy: 10 }, 100)?.0,
        ))
    })?;
    table(&runs)
        .col("nsdx", |r| int(r.0))
        .col("processors", |r| int(r.0 * 10))
        .col("read_time_s", |r| secs(r.1))
        .done()
}

fn fig05_holds(t: &Table) -> Res<()> {
    let (nsdx, read) = (t.col("nsdx")?, t.col("read_time_s")?);
    ensure(steps(&read, |a, b| b > a), "reads do not slow")?;
    let linear = last(&nsdx) / at(&nsdx, 0);
    let growth = last(&read) / at(&read, 0);
    ensure(growth >= 0.8 * linear, "below 0.8x linear")
}

/// Fig. 9's rows: per `n_p`, P-EnKF, then S-EnKF's compute and I/O ranks.
/// An S-EnKF rank's waiting is its idle time: on a compute rank the
/// exposed first stage and any stage stall.
fn fig09(s: &Sweeps) -> Res<Table> {
    let mut rows = Vec::new();
    for Point { np, p, s, tuned } in s.scaling()? {
        let (pm, sm, io) = (p.compute_mean, s.compute_mean, s.io_mean);
        let (c1, c2) = (tuned.params.c1(), tuned.params.c2());
        let idle = (s.makespan - sm.total()).max(0.0);
        let io_wait = io.wait + (s.makespan - io.total() - io.wait).max(0.0);
        rows.push((np, "P", "compute".into(), pm, pm.wait, p.makespan));
        let class = format!("compute(C2={c2})");
        rows.push((np, "S", class, sm, idle, s.makespan));
        rows.push((np, "S", format!("io(C1={c1})"), io, io_wait, s.makespan));
    }
    table(&rows)
        .col("config", |r| text(format!("{}-EnKF@{}", r.1, r.0)))
        .col("rank class", |r| text(&r.2))
        .col("read_s", |r| secs(r.3.read))
        .col("comm_s", |r| secs(r.3.comm))
        .col("compute_s", |r| secs(r.3.compute))
        .col("wait_s", |r| secs(r.4))
        .col("runtime_s", |r| secs(r.5))
        .done()
}

fn fig09_holds(t: &Table) -> Res<()> {
    let (wait, run) = (t.col("wait_s")?, t.col("runtime_s")?);
    let class = |k| -> Vec<f64> { wait.iter().skip(k).step_by(3).copied().collect() };
    let (p, io) = (class(0), class(2));
    ensure(last(&p) > at(&p, 0), "P-EnKF waits no longer")?;
    ensure(steps(&io, |a, b| b < a), "S-EnKF's I/O waits grow")?;
    let mut idle = class(1).into_iter().zip(run.iter().skip(1).step_by(3));
    ensure(idle.all(|(w, r)| w / r < 0.05), "S-EnKF idles 5%+")
}

fn fig10(_: &Sweeps) -> Res<Table> {
    let runs = each([1, 2, 3, 4, 6, 8, 10, 12], |ncg| {
        let ((narrow, util), (wide, _)) =
            (reading(bars(10, ncg), 120)?, reading(bars(20, ncg), 120)?);
        Ok((ncg, narrow, wide, util))
    })?;
    let util = |r: &(usize, f64, f64, f64)| cell(r.3, format!("{:.0}%", r.3 * 100.0));
    table(&runs)
        .col("ncg", |r| int(r.0))
        .col("read_s (nsdy=10)", |r| secs(r.1))
        .col("read_s (nsdy=20)", |r| secs(r.2))
        .col("OST util (nsdy=10)", util)
        .done()
}

fn fig10_holds(t: &Table) -> Res<()> {
    let ncg = t.col("ncg")?;
    let osts = OSTS as f64;
    for name in ["read_s (nsdy=10)", "read_s (nsdy=20)"] {
        let read = t.col(name)?;
        let pos = |g| ncg.iter().position(|&n| n == g).unwrap_or(usize::MAX);
        let (one, knee) = (at(&read, pos(1.0)), at(&read, pos(osts)));
        for (&n, &r) in ncg.iter().zip(&read) {
            let flat = (r / knee - 1.0).abs() <= 0.15;
            ensure(n <= 1.0 || n > osts || r < one, "no speed-up")?;
            ensure(n < osts || flat, "not flat past the OSTs")?;
        }
    }
    Ok(())
}

fn fig11(s: &Sweeps) -> Res<Table> {
    table(s.scaling()?)
        .col("processors", |p| int(p.np))
        .col("tuned params", |p| text(format!("{:?}", p.tuned.params)))
        .col("overlapped", |p| pct(p.s.overlapped_fraction()))
        .col("exposed_s", |p| secs(p.s.first_compute_start))
        .col("runtime_s", |p| secs(p.s.makespan))
        .done()
}

fn fig11_holds(t: &Table) -> Res<()> {
    let overlapped = t.col("overlapped")?;
    let high = overlapped.iter().all(|&o| o >= 0.92);
    ensure(high && !overlapped.is_empty(), "overlap under 92%")
}

fn fig12(s: &Sweeps) -> Res<Table> {
    let cfg = s.cfg();
    let cost = cfg.cost_params();
    // C₂ = n_sdx·n_sdy; the C₁ = n_cg·n_sdy candidates have n_cg | N.
    let (c2, c1s): (usize, &[usize]) = match s.tiny {
        true => (24, &[2, 4, 8, 16, 32]),
        false => (2000, &[5, 10, 15, 20, 30, 40, 60, 120, 200, 300, 600]),
    };
    let model = min_t1_curve(&cost, c2, c1s.iter().copied());
    // Test data: the DES at every candidate of each (C₁, C₂) with one of
    // eight representative layer counts, timing the exposed first-stage
    // acquisition that T₁ models.
    let test = each(&model, |m| {
        let layers = [1, 2, 3, 5, 6, 9, 10, 15];
        let at_c1 = |p: &Params| p.c1() == m.c1 && layers.contains(&p.layers);
        let mut best: Option<CurvePoint> = None;
        for params in candidates(&cost.workload, c2).filter(at_c1) {
            let (out, _) = cycle(&cfg, ModelVariant::SEnkf(params), &FaultConfig::none())?;
            let t1 = out.first_compute_start;
            if best.is_none_or(|b| t1 < b.t1) {
                best = Some(CurvePoint { t1, params, ..*m });
            }
        }
        best.ok_or_else(|| format!("no combination at C1 = {}", m.c1))
    })?;
    let pick = |curve: &[CurvePoint]| economic_choice(curve, 5e-2).map(|p| p.c1);
    let (model_pick, test_pick) = (pick(&model), pick(&test));
    let mark = |on| flag(on, if on { "yes" } else { "" });
    let rows: Vec<_> = model.iter().zip(&test).collect();
    table(&rows)
        .col("C1", |r| int(r.0.c1))
        .col("model_minT1_s", |r| secs(r.0.t1))
        .col("test_min_s", |r| secs(r.1.t1))
        .col("model params", |r| text(format!("{:?}", r.0.params)))
        .col("model pick", |r| mark(model_pick == Some(r.0.c1)))
        .col("test pick", |r| mark(test_pick == Some(r.0.c1)))
        .done()
}

fn fig12_holds(t: &Table) -> Res<()> {
    let c1 = t.col("C1")?;
    let pick = |col| -> Res<Option<f64>> {
        Ok(t.col(col)?.iter().position(|&on| on == 1.0).map(|i| c1[i]))
    };
    let (model, test) = (pick("model pick")?, pick("test pick")?);
    ensure(model.is_some() && model == test, "the C1s differ")
}

fn fig13(s: &Sweeps) -> Res<Table> {
    let points = s.scaling()?;
    let first = points
        .first()
        .map_or(f64::NAN, |p| p.s.makespan * p.np as f64);
    let params = |p: &Point| {
        let (params, np) = (p.tuned.params, p.np);
        let used = params.total_processors();
        text(format!("{params:?} (uses {used} of {np})"))
    };
    table(points)
        .col("processors", |p| int(p.np))
        .col("P-EnKF_s", |p| secs(p.p.makespan))
        .col("S-EnKF_s", |p| secs(p.s.makespan))
        .col("S ideal_s", |p| secs(first / p.np as f64))
        .col("speedup", |p| times(p.p.makespan / p.s.makespan))
        .col("tuned params", params)
        .done()
}

fn fig13_holds(t: &Table) -> Res<()> {
    let (np, p, s) = (t.col("processors")?, t.col("P-EnKF_s")?, t.col("S-EnKF_s")?);
    let min = (0..p.len()).min_by(|&a, &b| p[a].total_cmp(&p[b]));
    let min = min.unwrap_or(0);
    ensure(min > 0 && last(&p) > at(&p, min), "P-EnKF keeps scaling")?;
    let ideal = at(&s, 0) * at(&np, 0) / last(&np);
    ensure(last(&s) <= 1.06 * ideal, "S-EnKF 6%+ off ideal")?;
    ensure(last(&p) >= 3.0 * last(&s), "P/S below 3")
}

fn alg2(s: &Sweeps) -> Res<Table> {
    let error = |p: &Point| {
        let e = (p.tuned.t_total - p.s.makespan) / p.s.makespan;
        cell(e, format!("{:+.2}%", e * 100.0))
    };
    table(s.scaling()?)
        .col("processors", |p| int(p.np))
        .col("tuned params", |p| text(format!("{:?}", p.tuned.params)))
        .col("T_total_s", |p| secs(p.tuned.t_total))
        .col("DES_s", |p| secs(p.s.makespan))
        .col("error", error)
        .done()
}

fn alg2_holds(t: &Table) -> Res<()> {
    let error = last(&t.col("error")?);
    ensure(error.abs() <= 0.01, "T_total 1%+ off the DES")
}

/// The ablations' S-EnKF at `C₂ = 7,500`: `n_sdx = 300`, `n_sdy = 25`.
fn ablated(layers: usize, ncg: usize) -> ModelVariant {
    ModelVariant::SEnkf(params(300, 25, layers, ncg))
}

fn ablation_reading(_: &Sweeps) -> Res<Table> {
    let read = |v| -> Res<f64> { Ok(reading(v, 120)?.0) };
    // 120 members, 100 readers each way.
    let runs = [
        (
            "block (10x10 ranks)",
            read(ModelVariant::PEnkf { nsdx: 10, nsdy: 10 })?,
        ),
        ("bar (1 group x 100)", read(bars(100, 1))?),
        ("concurrent (5 groups x 20)", read(bars(20, 5))?),
    ];
    table(&runs)
        .col("strategy", |r| text(r.0))
        .col("read_s", |r| secs(r.1))
        .done()
}

fn reading_holds(t: &Table) -> Res<()> {
    let read = t.col("read_s")?;
    ensure(at(&read, 1) < at(&read, 0), "bars lose to blocks")
}

/// An S-EnKF knob swept at `C₂ = 7,500`: each run's exposed first stage,
/// makespan and overlapped share.
fn ablation(knob: &'static str, values: &[usize], v: fn(usize) -> ModelVariant) -> Res<Table> {
    let cfg = ModelConfig::paper();
    let none = FaultConfig::none();
    let runs = each(values, |&k| Ok((k, cycle(&cfg, v(k), &none)?.0)))?;
    table(&runs)
        .col(knob, |r| int(r.0))
        .col("exposed_s", |r| secs(r.1.first_compute_start))
        .col("makespan_s", |r| secs(r.1.makespan))
        .col("overlapped", |r| pct(r.1.overlapped_fraction()))
        .done()
}

fn ablation_layers(_: &Sweeps) -> Res<Table> {
    ablation("L", &[1, 2, 3, 6, 9, 18], |layers| ablated(layers, 5))
}

fn layers_hold(t: &Table) -> Res<()> {
    let (exposed, runtime) = (t.col("exposed_s")?, t.col("makespan_s")?);
    ensure(steps(&exposed, |a, b| b < a), "exposure grows")?;
    ensure(last(&runtime) < at(&runtime, 0), "no faster than L = 1")
}

fn ablation_groups(_: &Sweeps) -> Res<Table> {
    ablation("ncg", &[1, 2, 3, 5, 6, 10], |ncg| ablated(6, ncg))
}

fn groups_hold(t: &Table) -> Res<()> {
    let (ncg, runtime) = (t.col("ncg")?, t.col("makespan_s")?);
    let osts = OSTS as f64;
    let upto = ncg.iter().take_while(|&&n| n <= osts).count();
    let falls = upto > 1 && steps(&runtime[..upto], |a, b| b <= a);
    ensure(falls, "a group more slows the cycle")
}

fn ablation_helper(_: &Sweeps) -> Res<Table> {
    let (cfg, v, none) = (ModelConfig::paper(), ablated(6, 5), FaultConfig::none());
    let arms = [("helper thread (paper)", true), ("no helper thread", false)];
    let runs = each(arms, |(name, helper_thread)| {
        let opts = SEnkfModelOptions { helper_thread };
        Ok((name, model_cycle(&cfg, &v, opts, &none, None)?.0))
    })?;
    table(&runs)
        .col("variant", |r| text(r.0))
        .col("compute-rank comm_s", |r| secs(r.1.compute_mean.comm))
        .col("makespan_s", |r| secs(r.1.makespan))
        .col("overlapped", |r| pct(r.1.overlapped_fraction()))
        .done()
}

fn helper_holds(t: &Table) -> Res<()> {
    let comm = t.col("compute-rank comm_s")?;
    let moved = at(&comm, 0) == 0.0 && at(&comm, 1) > 0.0;
    ensure(moved, "comm not moved off the compute ranks")
}

/// Always at paper scale: the claim needs reading on the critical path, and
/// the tiny workload is compute-bound (P-EnKF's I/O share there is 0.03%).
fn fig14(_: &Sweeps) -> Res<Table> {
    let cfg = ModelConfig::paper();
    let params = tune(&cfg, 8000)?.params;
    let (nsdx, nsdy) = (80, 100);
    let (p, s) = (
        ModelVariant::PEnkf { nsdx, nsdy },
        ModelVariant::SEnkf(params),
    );
    let clean = FaultConfig::none();
    let (p0, s0) = (makespan(&cfg, p, &clean)?, makespan(&cfg, s, &clean)?);
    let runs = each([1.0, 1.25, 1.5, 2.0, 3.0], |severity| {
        // Every OST slowed by `severity`, every rank's compute dilated by a
        // seeded factor in [1, 1 + (severity − 1)/4].
        let ranks = params.total_processors().max(8000);
        let mut plan = FaultPlan::jitter(14, ranks, 1.0 + (severity - 1.0) / 4.0);
        for ost in 0..OSTS {
            plan = plan.with_ost_slowdown(ost, severity);
        }
        let fcfg = FaultConfig::degraded(plan).with_retry(RetryPolicy::none());
        let degraded = [makespan(&cfg, p, &fcfg)?, makespan(&cfg, s, &fcfg)?];
        Ok((severity, degraded))
    })?;
    table(&runs)
        .col("severity", |r| cell(r.0, format!("{:.2}", r.0)))
        .col("P-EnKF_s", |r| secs(r.1[0]))
        .col("P degr.", |r| times(r.1[0] / p0))
        .col("S-EnKF_s", |r| secs(r.1[1]))
        .col("S degr.", |r| times(r.1[1] / s0))
        .col("S advantage", |r| times(r.1[0] / r.1[1]))
        .done()
}

fn fig14_holds(t: &Table) -> Res<()> {
    let (sev, p, s) = (t.col("severity")?, t.col("P degr.")?, t.col("S degr.")?);
    let less = (0..sev.len()).all(|i| sev[i] <= 1.0 || s[i] < p[i]);
    ensure(less, "S-EnKF degrades as much")
}

fn mttr(s: &Sweeps) -> Res<Table> {
    const CYCLES: usize = 16;
    let (cfg, params) = s.senkf()?;
    let restart = RetryPolicy {
        base_backoff: 0.5,
        ..RetryPolicy::default()
    };
    let plan = |checkpoint, pipelined| CampaignModelPlan {
        cycles: CYCLES,
        checkpoint,
        pipelined,
        restart,
    };
    let arms = [plan(true, false), plan(true, true), plan(false, false)];
    let runs = each([0, 1, 2, 4, 8], |crashes| {
        // Crash j lands in cycle (2j+1)·K/(2m) at a seeded stage, so later
        // crashes cost the arm without a recovery line more.
        let mut plan = FaultPlan::new(15);
        for j in 0..crashes {
            let stage = (15 + 3 * j) % params.layers;
            plan = plan.with_crash_at_cycle(0, (2 * j + 1) * CYCLES / (2 * crashes), stage);
        }
        let fcfg = FaultConfig {
            plan,
            recv_timeout: 1.0,
            ..FaultConfig::none()
        };
        let v = ModelVariant::SEnkf(params);
        let run = |a| Ok(model_campaign_adaptive(&cfg, &v, a, &fcfg, None)?.0);
        Ok((crashes, each(&arms, run)?))
    })?;
    let [sync, pipe, none] = [0, 1, 2];
    table(&runs)
        .col("crashes", |r| int(r.0))
        .col("sync_s", |r| secs(r.1[sync].makespan))
        .col("pipe_s", |r| secs(r.1[pipe].makespan))
        .col("no-ckpt_s", |r| secs(r.1[none].makespan))
        .col("sync ovh_s", |r| secs(r.1[sync].ckpt_exposed))
        .col("pipe ovh_s", |r| secs(r.1[pipe].ckpt_exposed))
        .col("pipe hidden_s", |r| secs(r.1[pipe].ckpt_hidden))
        .col("sync lost_s", |r| secs(r.1[sync].lost_time))
        .col("pipe lost_s", |r| secs(r.1[pipe].lost_time))
        .col("no-ckpt lost_s", |r| secs(r.1[none].lost_time))
        .done()
}

fn mttr_holds(t: &Table) -> Res<()> {
    let crashes = t.col("crashes")?;
    let (sync, pipe) = (t.col("sync lost_s")?, t.col("pipe lost_s")?);
    let none = t.col("no-ckpt lost_s")?;
    for i in (0..crashes.len()).filter(|&i| crashes[i] >= 1.0) {
        ensure(sync[i].max(pipe[i]) < none[i], "no time saved")?;
        ensure(sync[i] == pipe[i], "pipelined loses differently")?;
    }
    Ok(())
}

fn fairness(s: &Sweeps) -> Res<Table> {
    const CYCLES: usize = 4;
    let (cfg, params) = s.senkf()?;
    let (w, xi, eta) = (cfg.workload, cfg.workload.xi, cfg.workload.eta);
    let campaign = CampaignConfig {
        mesh: Mesh::new(w.nx, w.ny),
        cycles: CYCLES,
        members: w.members,
        cycle: CycleConfig::default(),
        seed: 29,
        analysis: LocalAnalysis::new(LocalizationRadius { xi, eta }),
        inflation: 1.0,
        restart: RetryPolicy::none(),
    };
    let mut spec = JobSpec::best_effort(CampaignExecutor::SEnkf(params), campaign);
    spec.model = Some(JobModel {
        cfg,
        variant: spec.exec.variant(),
        checkpoint: true,
    });
    let step = DesPlanner::price(&spec, 1.0);
    let solo = step.init + CYCLES as f64 * step.cycle;
    spec.sla = Some(2.0 * solo);
    // The machine fits eight campaigns side by side: equal-split packs all
    // eight at an eighth of the bandwidth each, while fair-share admission
    // queues what would break an SLA.
    let capacity = ClusterCapacity::tianhe2_like(8 * params.total_processors());
    let mut runs = Vec::new();
    for tenants in [1, 2, 4, 8] {
        for policy in [SharePolicy::FairShare, SharePolicy::EqualSplit] {
            let specs: Vec<TenantSpec> = (0..tenants).map(|i| TenantSpec::new(i, 1.0)).collect();
            // Two campaigns per tenant, all at t = 0.
            let job = |t: &TenantSpec| [(0.0, t.id, spec.clone()), (0.0, t.id, spec.clone())];
            let arrivals: Vec<_> = specs.iter().flat_map(job).collect();
            let sched = SchedConfig {
                capacity,
                policy,
                seed: 23,
            };
            let out = simulate(&sched, &specs, &arrivals, DesPlanner::new());
            let mut svc: Vec<f64> = out.records.iter().map(|r| r.service).collect();
            svc.sort_by(f64::total_cmp);
            let p99 = at(&svc, ((svc.len() as f64 * 0.99).ceil() as usize).max(1) - 1);
            let fair = policy == SharePolicy::FairShare;
            runs.push((tenants as usize, fair, out, [p99, last(&svc)]));
        }
    }
    table(&runs)
        .col("tenants", |r| int(r.0))
        .col("policy", |r| flag(r.1, if r.1 { "fair" } else { "equal" }))
        .col("completed", |r| int(r.2.records.len()))
        .col("makespan_s", |r| secs(r.2.makespan))
        .col("p99 svc_s", |r| secs(r.3[0]))
        .col("p99/solo", |r| times(r.3[0] / solo))
        .col("max svc_s", |r| secs(r.3[1]))
        .col("SLA_s", |_| secs(2.0 * solo))
        .done()
}

fn fairness_holds(t: &Table) -> Res<()> {
    let (fair, worst, sla) = (t.col("policy")?, t.col("max svc_s")?, t.col("SLA_s")?);
    let within = (0..fair.len()).all(|i| fair[i] == 0.0 || worst[i] <= sla[i] + 1e-6);
    ensure(within, "a fair-share campaign broke its SLA")
}

/// Six cycles of S-EnKF, each priced under `monitor`'s current view: the
/// total, first and last cycle, and the most OSTs blacklisted at once.
fn campaign(
    cfg: &ModelConfig,
    v: &ModelVariant,
    fcfg: &FaultConfig,
    mut monitor: Option<&mut HealthMonitor>,
) -> Res<([f64; 3], usize)> {
    let (mut cycles, mut blacklisted) = (Vec::new(), 0);
    for _ in 0..6 {
        let opts = SEnkfModelOptions::default();
        let (out, _) = model_cycle(cfg, v, opts, fcfg, monitor.as_deref())?;
        cycles.push(out.makespan);
        if let Some(mon) = monitor.as_deref_mut() {
            blacklisted = blacklisted.max(mon.end_cycle().blacklisted_osts.len());
        }
    }
    let total = cycles.iter().fold(0.0, |t, c| t + c);
    Ok(([total, at(&cycles, 0), last(&cycles)], blacklisted))
}

fn adaptive(s: &Sweeps) -> Res<Table> {
    let (cfg, params) = s.senkf()?;
    let v = ModelVariant::SEnkf(params);
    let runs = each([0.0f64, 1.0, 2.0, 3.0], |severity| {
        // Two of the six OSTs slowed by 1 + severity; their replicas (OSTs
        // 2 and 5) stay healthy, so a reroute has somewhere to go.
        let mut plan = FaultPlan::new(10);
        for ost in [1, 4].into_iter().filter(|_| severity > 0.0) {
            plan = plan.with_ost_slowdown(ost, 1.0 + severity);
        }
        let retry = RetryPolicy {
            base_backoff: 1e-6,
            ..RetryPolicy::default()
        };
        let fcfg = FaultConfig::degraded(plan).with_retry(retry);
        let ([stat, ..], _) = campaign(&cfg, &v, &fcfg, None)?;
        let mut mon = HealthMonitor::new(HealthParams::default());
        let ([adap, first, steady], black) = campaign(&cfg, &v, &fcfg, Some(&mut mon))?;
        Ok((severity, [stat, adap, first, steady], black))
    })?;
    table(&runs)
        .col("severity", |r| cell(r.0, format!("{:.0}", r.0)))
        .col("static_s", |r| secs(r.1[0]))
        .col("adaptive_s", |r| secs(r.1[1]))
        .col("speedup", |r| times(r.1[0] / r.1[1]))
        .col("adapt cycle0_s", |r| secs(r.1[2]))
        .col("adapt steady_s", |r| secs(r.1[3]))
        .col("blacklisted", |r| int(r.2))
        .done()
}

fn adaptive_holds(t: &Table) -> Res<()> {
    let (sev, stat, adap) = (t.col("severity")?, t.col("static_s")?, t.col("adaptive_s")?);
    let black = t.col("blacklisted")?;
    for i in 0..sev.len() {
        let same = stat[i].to_bits() == adap[i].to_bits() && black[i] == 0.0;
        ensure(sev[i] != 0.0 || same, "a clean monitor perturbs")?;
        ensure(sev[i] < 2.0 || adap[i] < stat[i], "adaptation loses")?;
    }
    Ok(())
}

fn batched(s: &Sweeps) -> Res<Table> {
    // (shards, the P-EnKF decomposition of as many ranks): shard counts
    // divide n_y, so every shard is a full-width bar.
    let points = match s.tiny {
        true => [(8, 4, 2), (12, 4, 3), (24, 6, 4)],
        false => [(40, 8, 5), (90, 10, 9), (180, 15, 12)],
    };
    let mut runs = Vec::new();
    for obs_stride in [24, 6, 2] {
        let cfg = ModelConfig {
            obs_stride,
            ..s.cfg()
        };
        let (w, none) = (cfg.workload, FaultConfig::none());
        let obs = w.nx.div_ceil(obs_stride) * w.ny.div_ceil(obs_stride);
        for (shards, nsdx, nsdy) in points {
            let b = makespan(&cfg, ModelVariant::DEnkf { shards }, &none)?;
            let p = makespan(&cfg, ModelVariant::PEnkf { nsdx, nsdy }, &none)?;
            runs.push(([obs_stride, obs, shards], [b, p]));
        }
    }
    let ratio =
        |r: &([usize; 3], [f64; 2])| cell(r.1[0] / r.1[1], format!("{:.3}", r.1[0] / r.1[1]));
    table(&runs)
        .col("stride", |r| int(r.0[0]))
        .col("obs", |r| int(r.0[1]))
        .col("shards", |r| int(r.0[2]))
        .col("batched_s", |r| secs(r.1[0]))
        .col("sequential_s", |r| secs(r.1[1]))
        .col("batched/sequential", ratio)
        .done()
}

fn batched_holds(t: &Table) -> Res<()> {
    let ratio = t.col("batched/sequential")?;
    let slower = ratio.iter().all(|&r| r > 1.0);
    ensure(slower && !ratio.is_empty(), "batched wins somewhere")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table of the given columns.
    fn literal(columns: &[(&'static str, &[f64])]) -> Table {
        let cells = |v: &[f64]| v.iter().map(|&x| secs(x)).collect();
        let columns = columns.iter().map(|(n, v)| (*n, cells(v))).collect();
        Table { columns }
    }

    /// Fig. 13's table as EXPERIMENTS.md publishes it, with `p` and `s` as
    /// the P- and S-EnKF runtimes.
    fn fig13_of(p: &[f64], s: &[f64]) -> Table {
        let np = [2000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0];
        literal(&[("processors", &np), ("P-EnKF_s", p), ("S-EnKF_s", s)])
    }

    #[test]
    fn swapping_p_and_s_fails_fig13() {
        let p = [775.568, 550.925, 452.187, 372.108, 384.330, 407.352];
        let s = [676.600, 349.267, 226.862, 176.589, 138.970, 119.111];
        assert_eq!(fig13_holds(&fig13_of(&p, &s)), Ok(()));
        assert!(fig13_holds(&fig13_of(&s, &p)).is_err());
    }

    #[test]
    fn helper_off_in_both_arms_fails_the_helper_ablation() {
        let comm = |with_helper: f64| literal(&[("compute-rank comm_s", &[with_helper, 0.153])]);
        assert_eq!(helper_holds(&comm(0.0)), Ok(()));
        assert!(helper_holds(&comm(0.153)).is_err());
    }

    /// The scaling sweep's S-EnKF re-priced at `L = 1`: the first stage is
    /// then all of the reading, and nothing overlaps it.
    #[test]
    fn one_layer_everywhere_fails_fig11() {
        let cfg = ModelConfig::paper();
        let overlapped = each(SCALING, |(np, ..)| {
            let one_layer = Params {
                layers: 1,
                ..tune(&cfg, np)?.params
            };
            let (out, _) = cycle(&cfg, ModelVariant::SEnkf(one_layer), &FaultConfig::none())?;
            Ok(out.overlapped_fraction())
        });
        let fig11 = literal(&[("overlapped", &overlapped.unwrap())]);
        assert!(fig11_holds(&fig11).is_err());
    }
}
