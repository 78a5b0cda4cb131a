//! The layer pass (`--trace 1`): after the workload's operations have run
//! through their traced entry points, every crate is driven directly
//! through its public functions on this workload's own shapes. Each call is
//! wrapped in a harness span; nothing inside the crates is instrumented.

mod des;
mod exec;
mod kernels;
mod substrate;

use crate::metrics::Ledger;
use crate::spans::SpanLog;
use crate::stats::{time_median, Budget};
use crate::workload::{Exec, Kind, Workload};
use crate::Tally;
use enkf_data::write_ensemble;
use enkf_pfs::FileStore;
use std::time::Instant;

/// What every layer function needs: where numbers go, where spans go, and
/// how long it may sample.
pub struct Ctx<'a> {
    pub ledger: &'a mut Ledger,
    pub spans: &'a mut SpanLog,
    pub smoke: bool,
}

impl Ctx<'_> {
    pub fn light(&self) -> Budget {
        if self.smoke {
            Budget::SMOKE
        } else {
            Budget::LAYER
        }
    }

    pub fn heavy(&self) -> Budget {
        if self.smoke {
            Budget::SMOKE
        } else {
            Budget::HEAVY
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.ledger.set(name, value);
    }

    /// Median seconds of `f`, inside a harness span called `name`.
    pub fn time(&mut self, name: &str, budget: Budget, f: impl FnMut()) -> f64 {
        let id = self.spans.begin(name);
        let seconds = time_median(budget, f);
        self.spans.end(id);
        seconds
    }

    /// [`Ctx::time`], recorded as metric `name` in seconds.
    pub fn time_s(&mut self, name: &str, budget: Budget, f: impl FnMut()) -> f64 {
        let seconds = self.time(name, budget, f);
        self.set(name, seconds);
        seconds
    }

    /// [`Ctx::time`], recorded as metric `name` in microseconds.
    pub fn time_us(&mut self, name: &str, budget: Budget, f: impl FnMut()) {
        let seconds = self.time(name, budget, f);
        self.set(name, seconds * 1e6);
    }
}

/// How many rounds a traced pass runs: at least `min`, then until its share
/// of `--seconds` is spent.
#[derive(Debug, Clone, Copy)]
pub struct Pacing {
    pub min_rounds: usize,
    pub seconds: f64,
}

impl Pacing {
    pub fn more(&self, rounds: usize, started: Instant) -> bool {
        rounds < self.min_rounds || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// Run the whole layer pass. Returns the bytes the memory-bandwidth
/// measurement streamed (for the `env` block).
pub fn run(
    ctx: &mut Ctx<'_>,
    w: &mut Workload,
    seconds: f64,
    tally: &mut Tally,
) -> Result<usize, String> {
    let min_rounds = if ctx.smoke { 2 } else { 10 };
    // Half of `--seconds` goes to traced rounds; for workloads whose own
    // operations are not plain cycles, most of that to those operations.
    let own_share = match w.spec.kind {
        Kind::Cycle => 0.0,
        Kind::Campaign { .. } | Kind::Des { .. } => 0.35,
    };
    let pass = ctx.spans.begin("pass.real_cycles");
    let real = exec::real_pass(
        ctx,
        w.real(),
        Pacing {
            min_rounds,
            seconds: seconds * (0.5 - own_share),
        },
        tally,
    );
    ctx.spans.end(pass);
    let own = if own_share > 0.0 {
        let pass = ctx.spans.begin("pass.workload_ops");
        let own = exec::workload_pass(
            ctx,
            w,
            Pacing {
                min_rounds,
                seconds: seconds * own_share,
            },
            tally,
        );
        ctx.spans.end(pass);
        Some(own)
    } else {
        None
    };
    // The paper's phase budget comes from the workload's own operations.
    let own = own.as_ref().unwrap_or(&real.execs);
    for exec in Exec::ALL {
        exec::project(ctx, exec, &own[exec.index()]);
    }
    exec::trace_layer(ctx, &own[Exec::Senkf.index()]);

    let layers = ctx.spans.begin("pass.layers");
    let result = direct_calls(ctx, w, &real);
    ctx.spans.end(layers);
    result
}

/// One layer's direct calls.
type Layer<'a> = &'a dyn Fn(&mut Ctx<'_>) -> Result<(), String>;

fn direct_calls(ctx: &mut Ctx<'_>, w: &Workload, real: &exec::RealPass) -> Result<usize, String> {
    let inputs = w.real();
    // A second store for everything that writes, seeded with the ensemble.
    let writes = FileStore::open(w.dir().join("layer-writes"), inputs.geometry.layout())
        .map_err(|e| e.to_string())?;
    write_ensemble(&writes, &inputs.scenario.ensemble).map_err(|e| e.to_string())?;

    let span = ctx.spans.begin("layer.linalg");
    let bandwidth_bytes = kernels::linalg(ctx, inputs);
    ctx.spans.end(span);
    let bandwidth_bytes = bandwidth_bytes?;
    let layers: [(&str, Layer<'_>); 8] = [
        ("layer.core", &|ctx| kernels::core(ctx, inputs)),
        ("layer.pfs", &|ctx| substrate::pfs(ctx, inputs, &writes)),
        ("layer.net", &|ctx| substrate::net(ctx, inputs)),
        ("layer.data", &|ctx| substrate::data(ctx, w, &writes)),
        ("layer.ckpt", &|ctx| substrate::ckpt(ctx, w)),
        ("layer.sim", &|ctx| des::sim(ctx, w)),
        ("layer.tuning", &|ctx| des::tuning(ctx)),
        ("layer.sched", &|ctx| des::sched(ctx, w)),
    ];
    for (name, layer) in layers {
        let span = ctx.spans.begin(name);
        let result = layer(ctx);
        ctx.spans.end(span);
        result?;
    }
    let span = ctx.spans.begin("layer.parallel");
    exec::writeback(ctx, inputs, &writes);
    exec::ratios(ctx, inputs, real);
    ctx.spans.end(span);
    Ok(bandwidth_bytes)
}
