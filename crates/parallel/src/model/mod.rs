//! Modeled (discrete-event) executors for paper-scale experiments.

pub(crate) mod campaign;
pub(crate) mod denkf;
pub(crate) mod lenkf;
pub(crate) mod penkf;
pub(crate) mod senkf;

use crate::exec::{compute_dilation, resolve_dropout};
use crate::program::{Checker, CycleOp, Emitter, Geometry, ModelVariant, ObservedPoints};
use crate::report::PhaseBreakdown;
use enkf_fault::{FaultConfig, FaultInjector};
use enkf_grid::{FileLayout, LocalizationRadius, Mesh};
use enkf_health::HealthMonitor;
use enkf_net::{ModeledNet, NetParams};
use enkf_pfs::{ModeledPfs, PfsParams};
use enkf_sim::engine::SimError;
use enkf_sim::{Kind, Simulation, TaskId};
use enkf_trace::{OpTag, Trace};
use enkf_tuning::Workload;
use senkf::SEnkfModelOptions;
use std::cell::Cell;

/// The sends addressed to one `(rank, stage)`, collected until the rank's
/// `Await` consumes them: a list threaded through [`Arena::sends`].
#[derive(Clone, Copy)]
struct Mailbox {
    /// The entry of the latest send in [`Arena::sends`] ([`END`]: none).
    latest: u32,
    /// Bytes of the latest send (every bundle of a fault-free stage is the
    /// same size) — what a helper-less rank ingests per message.
    bundle_bytes: u64,
}

/// The end of a list in [`Arena::sends`].
const END: u32 = u32::MAX;

/// A mailbox no send has reached.
const EMPTY: Mailbox = Mailbox {
    latest: END,
    bundle_bytes: 0,
};

/// Everything a priced cycle builds, kept by the thread between calls so
/// that a call reuses the buffers of the largest cycle priced before it.
#[derive(Default)]
struct Arena {
    sim: Simulation,
    /// The program's rules, stepped before each op is priced.
    rules: Checker,
    /// Every send addressed to a mailbox (and every ingestion task of a
    /// rank without the helper thread): its task and the entry of the
    /// list's previous one ([`END`]: none).
    sends: Vec<(u32, u32)>,
    /// One mailbox per `(rank, stage)`.
    mailboxes: Vec<Mailbox>,
    /// Per rank: the list that gates its next `Compute` ([`END`]: none).
    gate: Vec<u32>,
    /// Per rank: its straggler factor, once the first `Compute` asked.
    dilations: Vec<Option<f64>>,
    /// The dependencies of the task being added.
    deps: Vec<TaskId>,
}

impl Arena {
    /// Collect the list ending at entry `latest` into `deps`, in the order
    /// it was added.
    fn collect(&mut self, mut latest: u32) {
        self.deps.clear();
        while latest != END {
            let (task, previous) = self.sends[latest as usize];
            self.deps.push(task as TaskId);
            latest = previous;
        }
        self.deps.reverse();
    }
}

/// Price one cycle of `variant` on the DES backend — the modeled twin of
/// [`crate::exec::run_cycle`]: the same program,
/// each op turned into tasks as documented on `price_cycle`. Returns the
/// outcome and the virtual-time trace: the trace is the run's span stream
/// collected, the outcome a fold of that stream
/// ([`enkf_trace::class_phases`]). Under
/// a common seeded plan and monitor view all three digests (the trace's
/// operations and fault events, the monitor's health decisions) equal the
/// real executor's. `opts` are the S-EnKF ablation switches (`Default::default()` is the paper's
/// design). Plans the real executor cannot complete — a crashed rank, a
/// dropped message in a program that sends any — are rejected.
pub fn model_cycle(
    cfg: &ModelConfig,
    variant: &ModelVariant,
    opts: SEnkfModelOptions,
    fcfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
) -> Result<(ModelOutcome, Trace), String> {
    price_variant(cfg, variant, opts, fcfg, monitor, collect)
}

/// [`model_cycle`]'s outcome alone, bit for bit: the same emission and run,
/// the outcome folded straight off the span stream, no trace built.
pub(crate) fn model_outcome(
    cfg: &ModelConfig,
    variant: &ModelVariant,
    opts: SEnkfModelOptions,
    fcfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
) -> Result<ModelOutcome, String> {
    price_variant(cfg, variant, opts, fcfg, monitor, fold).map(|(out, ())| out)
}

/// [`model_cycle`] on a healthy substrate — what every `model_*_traced`
/// forward is.
fn model_traced(cfg: &ModelConfig, variant: ModelVariant) -> Result<(ModelOutcome, Trace), String> {
    model_cycle(
        cfg,
        &variant,
        Default::default(),
        &FaultConfig::none(),
        None,
    )
}

/// [`model_outcome`] on a healthy substrate — what every untraced `model_*`
/// forward is.
fn model_untraced(cfg: &ModelConfig, variant: ModelVariant) -> Result<ModelOutcome, String> {
    model_outcome(
        cfg,
        &variant,
        Default::default(),
        &FaultConfig::none(),
        None,
    )
}

/// The class-phase fold of a run: `(compute, io, first_compute)`, see
/// [`enkf_trace::class_phases`].
type Classes = (PhaseBreakdown, PhaseBreakdown, f64);

/// How a priced run ends, given the finished simulation, the program's name
/// and its compute-rank count: the fold of the run's spans, and what is
/// kept beside it.
type Tail<T> = fn(&Simulation, &str, usize) -> (Classes, T);

/// The traced tail: the span stream collected into the trace, the outcome
/// folded off the collected spans.
pub(crate) fn collect(sim: &Simulation, name: &str, compute_ranks: usize) -> (Classes, Trace) {
    let trace = sim.export_trace(&format!("{name}-model"));
    (
        enkf_trace::class_phases(trace.spans(), compute_ranks),
        trace,
    )
}

/// The untraced tail: the outcome folded off the span stream as the
/// simulation generates it; nothing is kept.
fn fold(sim: &Simulation, _: &str, compute_ranks: usize) -> (Classes, ()) {
    (enkf_trace::class_phases(sim.spans(), compute_ranks), ())
}

/// [`model_cycle`] with its tail chosen: the DES-size guard, D-EnKF's
/// observation network, then [`price_cycle`].
fn price_variant<T>(
    cfg: &ModelConfig,
    variant: &ModelVariant,
    opts: SEnkfModelOptions,
    fcfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
    tail: Tail<T>,
) -> Result<(ModelOutcome, T), String> {
    let w = &cfg.workload;
    let mesh = Mesh::new(w.nx, w.ny);
    if let ModelVariant::SEnkf(p) = *variant {
        // Guard the DES against degenerate parameterizations: the program
        // has roughly ncg·C2·L sends plus the reads and computes.
        let (c2, c1) = variant.ranks(mesh, w.members)?;
        let est_tasks = p.layers * (p.ncg * c2 + c1 * (w.members / p.ncg) + c2);
        const MAX_TASKS: usize = 30_000_000;
        if est_tasks > MAX_TASKS {
            return Err(format!(
                "parameterization would create ~{est_tasks} DES tasks (> {MAX_TASKS}); \
                 choose smaller L / n_cg"
            ));
        }
    }
    // Only D-EnKF's exchanged blocks are sized by the observation network
    // (`ScenarioBuilder`'s uniform one), counted without building it.
    let network = matches!(variant, ModelVariant::DEnkf { .. })
        .then_some(ObservedPoints::Uniform(cfg.obs_stride));
    price_cycle(cfg, variant, network, opts, fcfg, monitor, tail)
}

/// The DES interpreter of a cycle program — the only code that adds cycle
/// tasks. Agent ids coincide with the real executor's rank numbering
/// (compute ranks, then I/O ranks), so span and fault-event rank fields
/// compare across executors; one NIC per rank is its ingestion port. Each
/// op is priced as it is emitted, in emission order, without a heap
/// allocation per task. Each op is first held to [`crate::program::check`]'s
/// rules, stepped as the threaded interpreter steps them, and the whole
/// program is judged before the run: the pricer refuses what `run_cycle`
/// refuses, with the same message, and relies on every rule:
///
/// * `Read` — the retry/reroute weave of [`ModeledPfs::add_member_read`],
///   charged the layout's seeks and bytes for the region;
/// * `Send` — one `Comm` task on the sender holding the receiver's NIC for
///   `a + b·bytes` (a plan that drops messages is
///   refused here: the receiver would time out);
/// * `Await` — moves the collected sends to the rank's next `Compute` as
///   dependencies (receivers' blocked waits surface as DES wait time, not
///   tasks, matching the real wait spans' exclusion from the digest);
///   without the helper thread an explicit ingestion task on the rank
///   serializes the communication with the computation;
/// * `Compute` — `c · work`, dilated by the rank's straggler factor, which
///   is reported to the monitor once per rank.
///
/// Every task carries an [`OpTag`], so the run's spans — and with them,
/// under a seeded plan, the fault digest and the monitor's observations —
/// equal the real executor's. The outcome is a fold of those spans
/// ([`enkf_trace::class_phases`]); `tail` decides whether they are also
/// collected into the trace.
///
/// The graph, the rules' state, the mailboxes (one list of sends for all of
/// them) and the per-rank gates are built in this thread's `ARENA`,
/// cleared rather than freed between calls.
pub(crate) fn price_cycle<T>(
    cfg: &ModelConfig,
    program: &impl Emitter,
    network: Option<ObservedPoints<'_>>,
    opts: SEnkfModelOptions,
    fcfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
    tail: Tail<T>,
) -> Result<(ModelOutcome, T), String> {
    // A nested call would find the cell empty and price in a fresh arena.
    let mut arena = ARENA.take();
    arena.sim.clear();
    let priced = price_in(&mut arena, cfg, program, network, opts, fcfg, monitor, tail);
    ARENA.set(arena);
    priced
}

thread_local! {
    /// The arena every cycle on this thread is priced in. It keeps the
    /// capacity of the largest graph the thread has priced, so repeated
    /// calls — sweeps, campaign replays, admission pricing — stop paying
    /// for allocation and page faults after the first.
    static ARENA: Cell<Arena> = Cell::new(Arena::default());
}

/// [`price_cycle`]'s body, in an arena whose simulation is empty.
#[allow(clippy::too_many_arguments)]
fn price_in<T>(
    arena: &mut Arena,
    cfg: &ModelConfig,
    program: &impl Emitter,
    network: Option<ObservedPoints<'_>>,
    opts: SEnkfModelOptions,
    fcfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
    tail: Tail<T>,
) -> Result<(ModelOutcome, T), String> {
    let w = &cfg.workload;
    let mesh = Mesh::new(w.nx, w.ny);
    let layout = FileLayout::new(mesh, w.h);
    let (c2, c1) = program.ranks(mesh, w.members)?;
    // Resolve the fault plan before building the graph: the dropout set is
    // decided by the same `resolve_dropout` the threaded backend calls, and
    // a plan that crashes a rank is rejected — the real executor cannot
    // complete it, and a "completed" model must never lie.
    let injector = FaultInjector::new(fcfg.clone());
    if injector.has_crashes() {
        return Err("the modeled run cannot complete: the plan crashes a rank".into());
    }
    let dropped = resolve_dropout(&injector, w.members).map_err(|e| e.to_string())?;
    let drops_messages = !fcfg.plan.msg_faults.is_empty();

    let ranks = c2 + c1;
    let pfs = ModeledPfs::register(&mut arena.sim, cfg.pfs);
    // The I/O ranks' NICs follow the compute ranks', so no OST or compute
    // NIC changes its resource id.
    let net = ModeledNet::register(&mut arena.sim, ranks);
    let agents = arena.sim.add_agents(ranks);
    // One mailbox per (rank, stage).
    let layers = program.layers();
    let slot = |rank: usize, stage: Option<usize>| rank * layers + stage.unwrap_or(0);
    arena.sends.clear();
    arena.mailboxes.clear();
    arena.mailboxes.resize(ranks * layers, EMPTY);
    arena.gate.clear();
    arena.gate.resize(ranks, END);
    arena.dilations.clear();
    arena.dilations.resize(ranks, None);
    let sim_err = |e: SimError| e.to_string();

    let geo = Geometry {
        layout,
        members: w.members,
        radius: LocalizationRadius {
            xi: w.xi,
            eta: w.eta,
        },
        dropped: &dropped,
        view: monitor.map(|mon| mon.view()),
        network,
    };
    arena.rules.reset(&geo, ranks, layers);
    program.emit(&geo, &mut |rank, op| {
        arena.rules.step(rank, &op)?;
        let agent = agents[rank];
        let io = rank >= c2;
        let sim = &mut arena.sim;
        match op {
            CycleOp::Read {
                stage,
                member,
                region,
            } => pfs
                .add_member_read(
                    sim,
                    agent,
                    &injector,
                    monitor,
                    io,
                    stage,
                    member,
                    layout.seek_count(&region) as u64,
                    layout.region_bytes(&region),
                )
                .map_err(sim_err)?,
            CycleOp::Send { stage, to, payload } => {
                if drops_messages {
                    return Err("the modeled run cannot complete: the plan drops a message".into());
                }
                let bytes = payload.bytes(&layout);
                let tag = OpTag {
                    io,
                    stage,
                    bytes,
                    peer: Some(to),
                    ..OpTag::default()
                };
                let nic = [net.nic(to)];
                let service = cfg.net.p2p(bytes);
                let send = sim
                    .add_task_parts(agent, Kind::Comm, service, &nic, &[], tag)
                    .map_err(sim_err)?;
                let mail = &mut arena.mailboxes[slot(to, stage)];
                // Task ids and entries stay below `u32::MAX`, as the
                // simulation's own records do.
                arena.sends.push((send as u32, mail.latest));
                mail.latest = (arena.sends.len() - 1) as u32;
                mail.bundle_bytes = bytes;
            }
            CycleOp::Await { stage, sends } => {
                let mail = std::mem::replace(&mut arena.mailboxes[slot(rank, stage)], EMPTY);
                let gate = if opts.helper_thread {
                    mail.latest
                } else {
                    let ingest = sends as f64 * cfg.net.p2p(mail.bundle_bytes);
                    let tag = OpTag {
                        io,
                        stage,
                        bytes: mail.bundle_bytes,
                        ..OpTag::default()
                    };
                    arena.collect(mail.latest);
                    let ingestion = arena
                        .sim
                        .add_task_parts(agent, Kind::Comm, ingest, &[], &arena.deps, tag)
                        .map_err(sim_err)?;
                    arena.sends.push((ingestion as u32, END));
                    (arena.sends.len() - 1) as u32
                };
                arena.gate[rank] = gate;
            }
            CycleOp::Compute { stage, work, .. } => {
                let dilation = *arena.dilations[rank]
                    .get_or_insert_with(|| compute_dilation(&injector, monitor, rank));
                let service = cfg.compute_cost_per_point * work as f64 * dilation;
                let tag = OpTag {
                    io,
                    stage,
                    ..OpTag::default()
                };
                let gate = std::mem::replace(&mut arena.gate[rank], END);
                arena.collect(gate);
                arena
                    .sim
                    .add_task_parts(agent, Kind::Compute, service, &[], &arena.deps, tag)
                    .map_err(sim_err)?;
            }
        }
        Ok(())
    })?;
    arena.rules.finish()?;

    let sim = &mut arena.sim;
    let report = sim.run().map_err(sim_err)?;
    let ((compute, io, first_compute_start), kept) = tail(sim, program.name(), c2);
    let io_mean = if c1 == 0 {
        PhaseBreakdown::default()
    } else {
        io.scaled(1.0 / c1 as f64)
    };
    let outcome = ModelOutcome {
        makespan: report.makespan,
        compute_mean: compute.scaled(1.0 / c2 as f64),
        io_mean,
        num_compute_ranks: c2,
        num_io_ranks: c1,
        // The earliest local-analysis start is the exposed read+comm prefix.
        first_compute_start,
        dropped_members: dropped,
    };
    Ok((outcome, kept))
}

/// Configuration of a modeled run: workload geometry plus substrate
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Problem geometry (mesh, members, bytes per point, radii).
    pub workload: Workload,
    /// The modeled parallel file system.
    pub pfs: PfsParams,
    /// The modeled interconnect.
    pub net: NetParams,
    /// Local-analysis cost per grid point, seconds (`c` in Table 1).
    pub compute_cost_per_point: f64,
    /// Observation network stride (every `obs_stride`-th point in each
    /// direction is observed — `ScenarioBuilder`'s uniform network). The
    /// batched D-EnKF model needs it to recompute each shard's observed
    /// row count, which sizes the exchanged observation blocks.
    pub obs_stride: usize,
}

impl ModelConfig {
    /// The paper-scale configuration: 0.1° ocean workload on the
    /// Tianhe-2-like substrate.
    pub fn paper() -> Self {
        let machine = enkf_tuning::MachineParams::tianhe2_like();
        ModelConfig {
            workload: Workload::paper_ocean(),
            pfs: PfsParams::tianhe2_like(),
            net: NetParams {
                alpha: machine.a,
                beta: machine.b,
            },
            compute_cost_per_point: machine.c,
            obs_stride: 3,
        }
    }

    /// This configuration as seen by a campaign granted a fair-share slice
    /// of the machine: the PFS and interconnect both deliver `share` of
    /// their bandwidth (seek cost and message startup unchanged). The
    /// multi-tenant scheduler re-models a campaign's cycles through this
    /// whenever its allocation changes, so contention shows up as a
    /// reshaped DES — different overlap, different queueing — rather than
    /// a scalar correction.
    pub fn with_bandwidth_share(&self, share: f64) -> ModelConfig {
        ModelConfig {
            pfs: self.pfs.with_bandwidth_share(share),
            net: self.net.with_bandwidth_share(share),
            ..*self
        }
    }

    /// The equivalent closed-form cost parameters (for model-vs-DES
    /// comparisons like Figure 12).
    pub fn cost_params(&self) -> enkf_tuning::CostParams {
        enkf_tuning::CostParams {
            workload: self.workload,
            machine: enkf_tuning::MachineParams {
                a: self.net.alpha,
                b: self.net.beta,
                c: self.compute_cost_per_point,
                theta: self.pfs.byte_time,
            },
        }
    }
}

/// The result of one modeled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOutcome {
    /// Virtual end-to-end runtime, seconds.
    pub makespan: f64,
    /// Mean phases per compute rank.
    pub compute_mean: PhaseBreakdown,
    /// Mean phases per I/O rank (zero for variants without I/O ranks).
    pub io_mean: PhaseBreakdown,
    /// Number of compute ranks.
    pub num_compute_ranks: usize,
    /// Number of dedicated I/O ranks.
    pub num_io_ranks: usize,
    /// Virtual time at which the first local-analysis task started — the
    /// exposed (un-overlapped) read+comm prefix of Fig. 9/13's discussion.
    pub first_compute_start: f64,
    /// Ensemble members dropped by degraded-mode execution (ascending;
    /// empty on a fault-free run).
    pub dropped_members: Vec<usize>,
}

impl ModelOutcome {
    /// The fraction of the runtime during which data obtaining (reads,
    /// communication, and the I/O side's waiting) is hidden behind local
    /// computation — Figure 11's overlapped-time share. Only the first
    /// stage's acquisition is exposed ("the only part in the algorithm that
    /// could not be overlapped is the first file reading and data
    /// communication", §5.4), so the share is
    /// `1 − first_compute_start / makespan`.
    pub fn overlapped_fraction(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        (1.0 - self.first_compute_start / self.makespan).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::senkf::model_senkf;
    use crate::model::{denkf::model_denkf, lenkf::model_lenkf, penkf::model_penkf};
    use enkf_fault::{FaultPlan, RetryPolicy};
    use enkf_health::HealthParams;
    use enkf_tuning::Params;
    use proptest::prelude::*;

    /// Every field of an outcome, every `f64` as its bit pattern.
    fn bits(out: &ModelOutcome) -> (Vec<u64>, usize, usize, Vec<usize>) {
        let (c, i) = (&out.compute_mean, &out.io_mean);
        let values = [
            out.makespan,
            out.first_compute_start,
            c.read,
            c.comm,
            c.compute,
            c.wait,
            c.fault,
            i.read,
            i.comm,
            i.compute,
            i.wait,
            i.fault,
        ];
        (
            values.map(f64::to_bits).to_vec(),
            out.num_compute_ranks,
            out.num_io_ranks,
            out.dropped_members.clone(),
        )
    }

    /// Everything a priced cycle yields: the outcome's bits, the trace's
    /// digest and every span.
    fn priced(cfg: &ModelConfig, variant: ModelVariant) -> (Vec<u64>, String, String) {
        let (out, trace) = model_traced(cfg, variant).unwrap();
        (bits(&out).0, trace.digest(), format!("{:?}", trace.spans()))
    }

    /// The thread's arena carries nothing from one call into the next:
    /// pricing A, then a larger B, then A again gives A to the bit.
    #[test]
    fn the_arena_carries_nothing_between_calls() {
        let cfg = ModelConfig {
            workload: Workload {
                nx: 240,
                ny: 120,
                members: 8,
                h: 80,
                xi: 2,
                eta: 2,
            },
            ..ModelConfig::paper()
        };
        let a = ModelVariant::SEnkf(Params {
            nsdx: 6,
            nsdy: 4,
            layers: 2,
            ncg: 2,
        });
        let first = priced(&cfg, a);
        priced(&cfg, ModelVariant::PEnkf { nsdx: 24, nsdy: 12 });
        assert_eq!(priced(&cfg, a), first);
    }

    /// The untraced forward of `variant`, as its public caller names it.
    fn forward(cfg: &ModelConfig, variant: ModelVariant) -> Result<ModelOutcome, String> {
        match variant {
            ModelVariant::SEnkf(params) => model_senkf(cfg, params),
            ModelVariant::PEnkf { nsdx, nsdy } => model_penkf(cfg, nsdx, nsdy),
            ModelVariant::LEnkf { nsdx, nsdy } => model_lenkf(cfg, nsdx, nsdy),
            ModelVariant::DEnkf { shards } => model_denkf(cfg, shards),
        }
    }

    /// The bit-identity oracle of the two tails at the claimed scale: the
    /// four `des_paper_scale` cycles at 1,200 ranks (S-EnKF autotuned as
    /// the perf ledger tunes it). The untraced forward folds the run's
    /// spans as they are generated; `model_cycle` folds the collected
    /// trace. Every outcome field must agree to the bit.
    #[test]
    fn untraced_forwards_equal_model_cycle_at_paper_scale() {
        let cfg = ModelConfig::paper();
        let tuned = enkf_tuning::autotune(&cfg.cost_params(), 1_200, 1e-3).unwrap();
        for variant in [
            ModelVariant::SEnkf(tuned.params),
            ModelVariant::PEnkf { nsdx: 30, nsdy: 40 },
            ModelVariant::LEnkf { nsdx: 30, nsdy: 40 },
            ModelVariant::DEnkf { shards: 120 },
        ] {
            let (traced, _) = model_traced(&cfg, variant).unwrap();
            let untraced = forward(&cfg, variant).unwrap();
            assert_eq!(bits(&untraced), bits(&traced), "{variant:?}");
        }
    }

    /// `variant`'s reads of the 360 × 180, 12-member workload with compute
    /// and communication free: `(makespan, mean OST utilisation)`. Bar
    /// readers (S-EnKF) read whole bars, without halo rows.
    fn reads_only(variant: ModelVariant) -> Result<(f64, f64), String> {
        let halo = if matches!(variant, ModelVariant::SEnkf(_)) {
            0
        } else {
            2
        };
        let cfg = ModelConfig {
            workload: Workload {
                nx: 360,
                ny: 180,
                members: 12,
                h: 80,
                xi: halo,
                eta: halo,
            },
            net: NetParams {
                alpha: 0.0,
                beta: 0.0,
            },
            compute_cost_per_point: 0.0,
            ..ModelConfig::paper()
        };
        let (out, _) = model_traced(&cfg, variant)?;
        let busy = out.compute_mean.read * out.num_compute_ranks as f64
            + out.io_mean.read * out.num_io_ranks as f64;
        let streams = (enkf_fault::OSTS * enkf_pfs::STREAMS_PER_OST) as f64;
        Ok((out.makespan, busy / (streams * out.makespan)))
    }

    fn bars(nsdy: usize, ncg: usize) -> Result<(f64, f64), String> {
        reads_only(ModelVariant::SEnkf(Params {
            nsdx: 1,
            nsdy,
            layers: 1,
            ncg,
        }))
    }

    #[test]
    fn concurrent_groups_speed_up_until_saturation() {
        // Figure 10's shape: adding groups helps while they map to idle
        // OSTs, then flattens.
        let t = |ncg| bars(6, ncg).unwrap().0;
        let (t1, t2, t4, t12) = (t(1), t(2), t(4), t(12));
        assert!(t2 < t1, "{t2} < {t1}");
        assert!(t4 < t2, "{t4} < {t2}");
        // Beyond the OST count (6), the gain collapses.
        assert!(t12 > t4 * 0.5, "saturation: t12 {t12} vs t4 {t4}");
    }

    #[test]
    fn bar_reading_beats_block_reading() {
        // Same total data, same number of readers: bars are single-seek,
        // blocks are one seek per row.
        let block = reads_only(ModelVariant::PEnkf { nsdx: 10, nsdy: 6 });
        let (block, bar) = (block.unwrap().0, bars(6, 1).unwrap().0);
        assert!(bar < block, "bar {bar} vs block {block}");
    }

    #[test]
    fn utilization_rises_toward_saturation() {
        let (low, high) = (bars(6, 1).unwrap().1, bars(6, 6).unwrap().1);
        assert!(high > low, "{high} > {low}");
        assert!(high <= 1.0 + 1e-9, "{high}");
    }

    /// A random small case (the shape of `equivalence_prop`'s): a mesh
    /// with guaranteed divisors for `(n_sdx, n_sdy, L)`, an ensemble, radii
    /// and whether S-EnKF keeps its helper thread.
    fn case_strategy() -> impl Strategy<Value = (ModelConfig, Params, bool)> {
        (
            2usize..=4,
            2usize..=3,
            1usize..=2,
            1usize..=2,
            0usize..=2,
            0usize..=2,
            3usize..=6,
            any::<bool>(),
        )
            .prop_map(|(nsdx, nsdy, layers, cells, xi, eta, members, helper)| {
                let cfg = ModelConfig {
                    workload: Workload {
                        nx: nsdx * 3,
                        ny: nsdy * layers * cells,
                        members,
                        h: 8,
                        xi,
                        eta,
                    },
                    obs_stride: 2,
                    ..ModelConfig::paper()
                };
                // n_cg must divide members.
                let ncg = if members % 2 == 0 { 2 } else { 1 };
                let params = Params {
                    nsdx,
                    nsdy,
                    layers,
                    ncg,
                };
                (cfg, params, helper)
            })
    }

    /// A random seeded storm (the shape of `equivalence_prop`'s): two read
    /// faults within or beyond a retry budget of 3, an OST slowdown, a
    /// straggler, and whether a monitor warmed on the slow OST routes the
    /// reads.
    fn storm_strategy() -> impl Strategy<Value = (FaultConfig, Option<(usize, f64)>)> {
        (
            (0usize..6, 1u32..=5),
            1u32..=5,
            0usize..3,
            2.5f64..4.0,
            (0usize..4, 1.0f64..1.5),
            any::<bool>(),
        )
            .prop_map(
                |((member, fails), more, slow_ost, slowdown, straggler, monitored)| {
                    let plan = FaultPlan::new(17)
                        .with_ost_slowdown(slow_ost, slowdown)
                        .with_straggler(straggler.0, straggler.1)
                        .with_read_fault(member, fails)
                        .with_read_fault(member + 1, more);
                    let retry = RetryPolicy {
                        max_retries: 3,
                        base_backoff: 1e-6,
                    };
                    let fcfg = FaultConfig::degraded(plan).with_retry(retry);
                    (fcfg, monitored.then_some((slow_ost, slowdown)))
                },
            )
    }

    /// A monitor that has seen `(ost, slowdown)` misbehave for a cycle.
    fn warmed((ost, slowdown): (usize, f64)) -> HealthMonitor {
        let mut mon = HealthMonitor::new(HealthParams::default());
        mon.observe_read(ost, ost, slowdown);
        mon.end_cycle();
        mon
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The bit-identity oracle of the two tails under seeded fault plans
        /// and a monitor view: for all four variants the untraced
        /// `model_outcome` equals `model_cycle(..).0` to the bit — or both
        /// fail alike — and both feed their (independent, equally warmed)
        /// monitors the same observations.
        #[test]
        fn untraced_outcome_equals_model_cycle_under_storms(
            (cfg, params, helper) in case_strategy(),
            (fcfg, watch) in storm_strategy(),
        ) {
            let opts = SEnkfModelOptions { helper_thread: helper };
            let (nsdx, nsdy) = (params.nsdx, params.nsdy);
            for variant in [
                ModelVariant::LEnkf { nsdx, nsdy },
                ModelVariant::PEnkf { nsdx, nsdy },
                ModelVariant::SEnkf(params),
                ModelVariant::DEnkf { shards: nsdy },
            ] {
                let mut mons = (watch.map(warmed), watch.map(warmed));
                let traced = model_cycle(&cfg, &variant, opts, &fcfg, mons.0.as_ref());
                let untraced = model_outcome(&cfg, &variant, opts, &fcfg, mons.1.as_ref());
                match (traced, untraced) {
                    (Ok((traced, _)), Ok(untraced)) => {
                        prop_assert_eq!(bits(&untraced), bits(&traced), "{:?}", variant);
                    }
                    (traced, untraced) => {
                        prop_assert_eq!(traced.err(), untraced.err(), "{:?}", variant);
                    }
                }
                if let (Some(a), Some(b)) = (&mut mons.0, &mut mons.1) {
                    prop_assert_eq!(a.end_cycle(), b.end_cycle(), "{:?}", variant);
                }
            }
        }
    }
}
