//! Property tests over *random* meshes, ensemble sizes, localization radii
//! and S-EnKF parameterizations: every executor's analysis through
//! `run_cycle` is identical to its serial reference, every variant's cycle
//! program passes the library's static check and is what both execution
//! paths trace, and under random seeded fault plans every fault fact is in
//! the trace exactly once.

use enkf_core::{serial_denkf, serial_enkf, BatchedKernel, LocalAnalysis};
use enkf_data::{write_ensemble, ScenarioBuilder};
use enkf_fault::{FaultConfig, FaultPlan, RetryPolicy};
use enkf_grid::{FileLayout, LocalizationRadius, Mesh, ObservationNetwork};
use enkf_health::{HealthMonitor, HealthParams, RouteView};
use enkf_parallel::program::check;
use enkf_parallel::{
    model_cycle, run_cycle, AssimilationSetup, CampaignExecutor, CycleOp, Emitter, Geometry,
    ModelConfig, ModelVariant,
};
use enkf_pfs::{FileStore, ScratchDir};
use enkf_trace::{FaultKind, Op, OpTag, Role, Span, Trace};
use enkf_tuning::{Params, Workload};
use proptest::prelude::*;

/// Bytes per grid point of every store and model in this file.
const LEVEL_BYTES: u64 = 8;
/// Observation stride of every scenario and model in this file.
const OBS_STRIDE: usize = 2;

#[derive(Debug, Clone)]
struct Case {
    mesh: Mesh,
    members: usize,
    radius: LocalizationRadius,
    params: Params,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    // Mesh extents chosen with guaranteed divisors for (nsdx, nsdy, L).
    (
        2usize..=4,
        2usize..=3,
        1usize..=2,
        1usize..=2,
        0usize..=2,
        0usize..=2,
        3usize..=6,
        any::<u64>(),
    )
        .prop_map(|(nsdx, nsdy, layers, cells, xi, eta, members, seed)| {
            let mesh = Mesh::new(nsdx * 3, nsdy * layers * cells);
            // n_cg must divide members.
            let ncg = if members % 2 == 0 { 2 } else { 1 };
            Case {
                mesh,
                members,
                radius: LocalizationRadius { xi, eta },
                params: Params {
                    nsdx,
                    nsdy,
                    layers,
                    ncg,
                },
                seed,
            }
        })
}

impl Case {
    /// The four executors at this case's decomposition (D-EnKF shards are
    /// the latitude blocks), D-EnKF with `kernel`.
    fn executors(&self, kernel: BatchedKernel) -> [CampaignExecutor; 4] {
        let Params { nsdx, nsdy, .. } = self.params;
        [
            CampaignExecutor::LEnkf { nsdx, nsdy },
            CampaignExecutor::PEnkf { nsdx, nsdy },
            CampaignExecutor::SEnkf(self.params),
            CampaignExecutor::DEnkf {
                shards: nsdy,
                kernel,
            },
        ]
    }

    /// The four variants at this case's decomposition.
    fn variants(&self) -> [ModelVariant; 4] {
        self.executors(BatchedKernel::Cholesky)
            .map(|exec| exec.variant())
    }

    fn layout(&self) -> FileLayout {
        FileLayout::new(self.mesh, LEVEL_BYTES)
    }

    /// The modeled twin of this case's real store and scenario.
    fn model_cfg(&self) -> ModelConfig {
        ModelConfig {
            workload: Workload {
                nx: self.mesh.nx(),
                ny: self.mesh.ny(),
                members: self.members,
                h: LEVEL_BYTES,
                xi: self.radius.xi,
                eta: self.radius.eta,
            },
            obs_stride: OBS_STRIDE,
            ..ModelConfig::paper()
        }
    }
}

/// A random seeded fault plan: two read faults (each within or beyond the
/// retry budget of 3), an OST slowdown, a straggler — and whether a health
/// monitor, warmed so the slow OST is blacklisted, routes the reads.
#[derive(Debug, Clone)]
struct Storm {
    read_faults: [(usize, u32); 2],
    slow_ost: usize,
    slowdown: f64,
    straggler: (usize, f64),
    monitored: bool,
}

fn storm_strategy() -> impl Strategy<Value = Storm> {
    (
        (0usize..6, 1u32..=5),
        1u32..=5,
        0usize..3,
        2.5f64..4.0,
        (0usize..4, 1.0f64..1.5),
        any::<bool>(),
    )
        .prop_map(
            |((member, fails), more_fails, slow_ost, slowdown, straggler, monitored)| Storm {
                read_faults: [(member, fails), (member + 1, more_fails)],
                slow_ost,
                slowdown,
                straggler,
                monitored,
            },
        )
}

impl Storm {
    const MAX_RETRIES: u32 = 3;

    /// The plan for an ensemble of `members` (member indices wrap; at most
    /// `members − 2` reads are left beyond the budget, so two survive).
    fn config(&self, members: usize) -> FaultConfig {
        let mut plan = FaultPlan::new(17)
            .with_ost_slowdown(self.slow_ost, self.slowdown)
            .with_straggler(self.straggler.0, self.straggler.1);
        let mut droppable = members - 2;
        for (member, fails) in self.read_faults {
            let beyond = fails > Self::MAX_RETRIES && droppable > 0;
            droppable -= usize::from(beyond);
            let fails = if beyond {
                fails
            } else {
                fails.min(Self::MAX_RETRIES)
            };
            plan = plan.with_read_fault(member % members, fails);
        }
        FaultConfig::degraded(plan).with_retry(RetryPolicy {
            max_retries: Self::MAX_RETRIES,
            base_backoff: 1e-6,
            multiplier: 2.0,
        })
    }

    /// A monitor that has already seen the slow OST misbehave for a cycle
    /// (so it is blacklisted and reads of its members speculate), or none.
    fn monitor(&self) -> Option<HealthMonitor> {
        self.monitored.then(|| {
            let mut mon = HealthMonitor::new(HealthParams::default());
            mon.observe_read(self.slow_ost, self.slow_ost, self.slowdown);
            mon.end_cycle();
            mon
        })
    }
}

/// Materialise a variant's program.
fn program(variant: &ModelVariant, geo: &Geometry<'_>) -> Vec<(usize, CycleOp)> {
    let mut ops = Vec::new();
    variant
        .emit(geo, &mut |rank, op| {
            ops.push((rank, op));
            Ok(())
        })
        .unwrap();
    ops
}

/// The operation digest of a program: every `Read`, `Send` and `Compute`
/// as the span both execution paths record for it.
fn projected_digest(ops: &[(usize, CycleOp)], layout: &FileLayout, compute_ranks: usize) -> String {
    let mut trace = Trace::new("program");
    for &(rank, op) in ops {
        let (op, stage, bytes, seeks, peer, member) = match op {
            CycleOp::Read {
                stage,
                member,
                region,
            } => (
                Op::Read,
                stage,
                layout.region_bytes(&region),
                layout.seek_count(&region) as u64,
                None,
                Some(member),
            ),
            CycleOp::Send { stage, to, payload } => {
                (Op::Send, stage, payload.bytes(layout), 0, Some(to), None)
            }
            CycleOp::Compute { stage, .. } => (Op::Compute, stage, 0, 0, None, None),
            CycleOp::Await { .. } => continue,
        };
        let role = if rank < compute_ranks {
            Role::Compute
        } else {
            Role::Io
        };
        let tag = OpTag {
            stage,
            bytes,
            seeks,
            peer,
            member,
            ..OpTag::default()
        };
        trace.push(Span::new(rank, role, op, 0.0, 0.0, tag));
    }
    trace.digest()
}

proptest! {
    // Each case spins up real threads and writes real files; keep the case
    // count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every executor through the one entry point: L-, P- and S-EnKF equal
    /// the serial point-wise reference, D-EnKF the serial batched reference
    /// under both kernels.
    #[test]
    fn parallel_variants_equal_serial_reference(case in case_strategy()) {
        let scenario = ScenarioBuilder::new(case.mesh)
            .members(case.members)
            .observation_stride(2)
            .seed(case.seed)
            .build();
        let scratch = ScratchDir::new("equiv-prop").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(case.mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        let setup = AssimilationSetup {
            store: &store,
            members: case.members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(case.radius),
        };
        let local = serial_enkf(&scenario.ensemble, &scenario.observations, case.radius).unwrap();
        for kernel in [BatchedKernel::Cholesky, BatchedKernel::ShermanMorrison] {
            for exec in case.executors(kernel) {
                let reference = match exec {
                    CampaignExecutor::DEnkf { .. } => {
                        serial_denkf(&scenario.ensemble, &scenario.observations, kernel).unwrap()
                    }
                    // The local analyses do not depend on the kernel.
                    _ if kernel != BatchedKernel::Cholesky => continue,
                    _ => local.clone(),
                };
                let (analysis, report, _) =
                    run_cycle(&setup, exec, &FaultConfig::none(), None).unwrap();
                prop_assert!(
                    analysis.states().approx_eq(reference.states(), 1e-12),
                    "{:?} diverged for {:?}", exec, case
                );
                let ranks = exec.variant().rank_counts();
                prop_assert_eq!((report.num_compute_ranks, report.num_io_ranks), ranks);
            }
        }
    }

    /// The static rules of the program alone, under a random dropout set
    /// and a random blacklist: the library's [`check`] — balance (every
    /// `Await` fed by exactly the earlier `Send`s to its `(rank, stage)`,
    /// none unawaited), the block-table rule for blocks and observed rows,
    /// all-or-none staged `Await`s per rank, and `Compute` targets tiling
    /// the mesh once — the rules `run_cycle` enforces before any thread
    /// starts.
    #[test]
    fn programs_are_balanced_and_cover_the_mesh(
        case in case_strategy(),
        drop_mask in 0usize..64,
        hot_mask in 0usize..16,
    ) {
        let mut dropped: Vec<usize> =
            (0..case.members).filter(|k| drop_mask >> k & 1 == 1).collect();
        dropped.truncate(case.members - 2);
        let view = RouteView {
            num_osts: 4,
            replica_shift: 1,
            blacklisted: (0..4).filter(|o| hot_mask >> o & 1 == 1).collect(),
        };
        let network = ObservationNetwork::uniform(case.mesh, OBS_STRIDE);
        let geo = Geometry {
            layout: case.layout(),
            members: case.members,
            radius: case.radius,
            dropped: &dropped,
            view: Some(&view),
            network: Some(&network),
        };
        for variant in case.variants() {
            let (compute, io) = variant.rank_counts();
            let checked = check(&geo, compute + io, &program(&variant, &geo));
            prop_assert!(checked.is_ok(), "{:?}: {:?}", variant, checked);
        }
    }

    /// (c) The operation digest projected from the program alone equals the
    /// digest of the trace the threaded backend records and of the trace
    /// the DES exports.
    #[test]
    fn program_is_what_both_worlds_trace(case in case_strategy()) {
        let scenario = ScenarioBuilder::new(case.mesh)
            .members(case.members)
            .observation_stride(OBS_STRIDE)
            .seed(case.seed)
            .build();
        let scratch = ScratchDir::new("program-prop").unwrap();
        let store = FileStore::open(scratch.path(), case.layout()).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        let setup = AssimilationSetup {
            store: &store,
            members: case.members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(case.radius),
        };
        let cfg = case.model_cfg();
        let geo = Geometry {
            layout: case.layout(),
            members: case.members,
            radius: case.radius,
            dropped: &[],
            view: None,
            network: Some(scenario.observations.operator().network()),
        };
        let none = FaultConfig::none();
        for exec in case.executors(BatchedKernel::Cholesky) {
            let variant = exec.variant();
            let real = run_cycle(&setup, exec, &none, None).unwrap().2;
            let model = model_cycle(&cfg, &variant, Default::default(), &none, None).unwrap().1;
            let (compute_ranks, _) = variant.ranks(case.mesh, case.members).unwrap();
            let projected =
                projected_digest(&program(&variant, &geo), &case.layout(), compute_ranks);
            prop_assert_eq!(&projected, &real.digest(), "{:?} real", variant);
            prop_assert_eq!(&projected, &model.digest(), "{:?} model", variant);
        }
    }

    /// **Each fact once.** Under a random seeded plan, with and without a
    /// monitor, on all four variants: every `Op::Fault` span is exactly one
    /// projected `injected` / `backoff` / `cancelled` event (no fact is
    /// missing from the projection, none is recorded beside the spans),
    /// every projected `recovered` is a `Read` span with a non-zero
    /// attempt, the fault digest projected from the real trace equals the
    /// model's — and the operation digest does not see the fault kinds and
    /// attempt indices at all: stripping them leaves it string-equal.
    #[test]
    fn each_fault_fact_is_in_the_trace_once(case in case_strategy(), storm in storm_strategy()) {
        let scenario = ScenarioBuilder::new(case.mesh)
            .members(case.members)
            .observation_stride(OBS_STRIDE)
            .seed(case.seed)
            .build();
        let scratch = ScratchDir::new("facts-prop").unwrap();
        let store = FileStore::open(scratch.path(), case.layout()).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        let setup = AssimilationSetup {
            store: &store,
            members: case.members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(case.radius),
        };
        let cfg = case.model_cfg();
        let fcfg = storm.config(case.members);
        for exec in case.executors(BatchedKernel::Cholesky) {
            let variant = exec.variant();
            // Two independent monitors, warmed alike: one per world.
            let (real_mon, model_mon) = (storm.monitor(), storm.monitor());
            let (_, report, real) = run_cycle(&setup, exec, &fcfg, real_mon.as_ref()).unwrap();
            let (outcome, model) =
                model_cycle(&cfg, &variant, Default::default(), &fcfg, model_mon.as_ref()).unwrap();
            prop_assert_eq!(&report.dropped_members, &outcome.dropped_members);

            for (world, trace) in [("real", &real), ("model", &model)] {
                let events = trace.fault_events(&report.dropped_members);
                let of = |kinds: &[FaultKind]| {
                    events.iter().filter(|e| kinds.contains(&e.kind)).count()
                };
                let spans = |keep: &dyn Fn(&Span) -> bool| {
                    trace.spans().iter().filter(|s| keep(s)).count()
                };
                prop_assert_eq!(
                    of(&[FaultKind::Injected, FaultKind::Backoff, FaultKind::Cancelled]),
                    spans(&|s| s.op == Op::Fault),
                    "{:?} {}: fault spans vs projected steps", variant, world
                );
                prop_assert_eq!(
                    of(&[FaultKind::Recovered]),
                    spans(&|s| s.op == Op::Read && s.attempt > 0),
                    "{:?} {}: recovered events vs re-issued reads", variant, world
                );
                prop_assert_eq!(of(&[FaultKind::Dropped]), report.dropped_members.len());
                prop_assert!(of(&[FaultKind::Injected]) > 0, "{:?}: vacuous plan", variant);
                prop_assert!(
                    spans(&|s| s.op != Op::Fault && s.fault.is_some()) == 0
                        && spans(&|s| !matches!(s.op, Op::Fault | Op::Read) && s.attempt > 0) == 0,
                    "{:?} {}: a fault tag outside the read schedule", variant, world
                );
                let mut stripped = Trace::new("stripped");
                stripped.extend(trace.spans().iter().map(|s| Span {
                    fault: None,
                    attempt: 0,
                    ..s.clone()
                }));
                prop_assert_eq!(trace.digest(), stripped.digest());
                prop_assert!(stripped.fault_events(&[]).is_empty());
            }
            prop_assert_eq!(real.digest(), model.digest(), "{:?} operations", variant);
            prop_assert_eq!(
                real.fault_digest(&report.dropped_members),
                model.fault_digest(&outcome.dropped_members),
                "{:?} fault events", variant
            );
        }
    }
}
