//! Property-based tests of the DES engine's scheduling invariants.

use enkf_sim::{Kind, Simulation, Task, TaskId};
use enkf_trace::{FaultKind, Op, OpTag, Role, Span};
use proptest::prelude::*;

const KINDS: [Kind; 5] = [
    Kind::Read,
    Kind::Comm,
    Kind::Compute,
    Kind::Fault,
    Kind::Control,
];

#[derive(Debug, Clone)]
struct RandomTask {
    agent: usize,
    kind: Kind,
    service: f64,
    /// Resource indices, in any order and possibly naming one twice.
    resources: Vec<usize>,
    /// Dependencies as back-offsets, possibly repeated.
    dep_offsets: Vec<usize>,
}

#[derive(Debug, Clone)]
struct RandomWorkload {
    agents: usize,
    resources: Vec<usize>, // capacities
    tasks: Vec<RandomTask>,
}

fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    (1usize..6, proptest::collection::vec(1usize..4, 1..4)).prop_flat_map(|(agents, resources)| {
        let nres = resources.len();
        let task = (
            0..agents,
            0..KINDS.len(),
            0.0f64..2.0,
            proptest::collection::vec(0..nres, 0..4),
            proptest::collection::vec(1usize..8, 0..4),
        )
            .prop_map(
                |(agent, kind, service, resources, dep_offsets)| RandomTask {
                    agent,
                    kind: KINDS[kind],
                    service,
                    resources,
                    dep_offsets,
                },
            );
        proptest::collection::vec(task, 1..40).prop_map(move |tasks| RandomWorkload {
            agents,
            resources: resources.clone(),
            tasks,
        })
    })
}

/// Add `w`'s graph to `sim` (empty or cleared) and return the task ids.
fn build(sim: &mut Simulation, w: &RandomWorkload) -> Vec<TaskId> {
    let agents = sim.add_agents(w.agents);
    let resources: Vec<_> = w.resources.iter().map(|&c| sim.add_resource(c)).collect();
    let mut ids = Vec::new();
    for t in &w.tasks {
        // Dependencies reach back by the given offsets (valid back-edges).
        let deps: Vec<TaskId> = t
            .dep_offsets
            .iter()
            .filter_map(|&off| ids.len().checked_sub(off))
            .collect();
        let task = Task::new(agents[t.agent], t.kind, t.service)
            .with_resources(t.resources.iter().map(|&r| resources[r]).collect())
            .with_deps(deps);
        ids.push(sim.add_task(task).unwrap());
    }
    ids
}

fn build_and_run(w: &RandomWorkload) -> (Simulation, Vec<TaskId>, enkf_sim::SimReport) {
    let mut sim = Simulation::new();
    let ids = build(&mut sim, w);
    let report = sim.run().unwrap();
    (sim, ids, report)
}

/// Everything a run yields, with every `f64` as its bit pattern.
fn fingerprint(sim: &Simulation, ids: &[TaskId], report: &enkf_sim::SimReport) -> String {
    let bits = |v: f64| v.to_bits();
    let times: Vec<_> = ids
        .iter()
        .map(|&t| sim.task_times(t))
        .map(|(r, s, f)| (bits(r), bits(s), bits(f)))
        .collect();
    let trace = sim.export_trace("prop");
    format!(
        "{} {} {times:?} {} {:?}",
        bits(report.makespan),
        report.tasks_executed,
        trace.digest(),
        trace.spans()
    )
}

/// A `u64` that is often one of the extremes.
fn wide_u64() -> impl Strategy<Value = u64> {
    (0usize..3, any::<u64>()).prop_map(|(k, v)| [0, u64::MAX, v][k])
}

/// An index field: `None`, or `Some` up to the largest the engine stores
/// (`u32::MAX - 1`), often at either end.
fn index() -> impl Strategy<Value = Option<usize>> {
    let largest = u32::MAX as usize - 1;
    (0usize..4, 0..largest).prop_map(move |(k, v)| [None, Some(0), Some(largest), Some(v)][k])
}

fn tag_strategy() -> impl Strategy<Value = OpTag> {
    let faults = vec![
        None,
        Some(FaultKind::Injected),
        Some(FaultKind::Backoff),
        Some(FaultKind::Cancelled),
        Some(FaultKind::Recovered),
        Some(FaultKind::Dropped),
    ];
    let attempt = (0usize..3, any::<u32>()).prop_map(|(k, v)| [0, u32::MAX, v][k]);
    (
        any::<bool>(),
        (index(), index(), index()),
        (wide_u64(), wide_u64()),
        proptest::sample::select(faults),
        attempt,
    )
        .prop_map(
            |(io, (stage, peer, member), (bytes, seeks), fault, attempt)| OpTag {
                io,
                stage,
                bytes,
                seeks,
                peer,
                member,
                fault,
                attempt,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every tag reaches the run's spans field for field. Each task runs
    /// on its own agent and holds one capacity-1 resource for 1 s, so task
    /// `k` waits `k` seconds (a wait span of its stage), then yields its
    /// operation span unless it is a `Control` task.
    #[test]
    fn random_tags_reach_the_spans_field_for_field(
        tasks in proptest::collection::vec((0..KINDS.len(), tag_strategy()), 1..24),
    ) {
        let mut sim = Simulation::new();
        let disk = sim.add_resource(1);
        for &(kind, tag) in &tasks {
            let agent = sim.add_agent();
            let task = Task::new(agent, KINDS[kind], 1.0).with_resources(vec![disk]);
            sim.add_task(task.with_op(tag)).unwrap();
        }
        sim.run().unwrap();
        let mut expected = Vec::new();
        for (k, &(kind, tag)) in tasks.iter().enumerate() {
            let role = if tag.io { Role::Io } else { Role::Compute };
            if k > 0 {
                let wait = OpTag { stage: tag.stage, ..OpTag::default() };
                expected.push(Span::new(k, role, Op::Wait, 0.0, k as f64, wait));
            }
            let op = match KINDS[kind] {
                Kind::Read => Op::Read,
                Kind::Comm => Op::Send,
                Kind::Compute => Op::Compute,
                Kind::Fault => Op::Fault,
                Kind::Control => continue,
            };
            let span = Span::new(k, role, op, k as f64, 1.0, tag);
            expected.push(Span { res: Some(0), ..span });
        }
        prop_assert_eq!(sim.spans().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn every_task_runs_and_times_are_ordered(w in workload_strategy()) {
        let (sim, ids, report) = build_and_run(&w);
        prop_assert_eq!(report.tasks_executed, ids.len());
        for &id in &ids {
            let (ready, start, finish) = sim.task_times(id);
            prop_assert!(ready >= 0.0);
            prop_assert!(start >= ready, "start before ready");
            prop_assert!(finish >= start, "finish before start");
            prop_assert!(finish <= report.makespan + 1e-12);
        }
    }

    #[test]
    fn agents_never_overlap_their_own_tasks(w in workload_strategy()) {
        let (sim, ids, _) = build_and_run(&w);
        // Group intervals by agent and check pairwise disjointness.
        let mut by_agent: std::collections::HashMap<usize, Vec<(f64, f64)>> = Default::default();
        for (k, &id) in ids.iter().enumerate() {
            let (_, start, finish) = sim.task_times(id);
            by_agent.entry(w.tasks[k].agent).or_default().push((start, finish));
        }
        for intervals in by_agent.values_mut() {
            intervals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for pair in intervals.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].0 + 1e-12, "agent overlap: {pair:?}");
            }
        }
    }

    #[test]
    fn dependencies_precede_dependents(w in workload_strategy()) {
        let (sim, ids, _) = build_and_run(&w);
        for (k, t) in w.tasks.iter().enumerate() {
            let (_, start, _) = sim.task_times(ids[k]);
            for &off in &t.dep_offsets {
                if let Some(dep_idx) = k.checked_sub(off) {
                    let (_, _, dep_finish) = sim.task_times(ids[dep_idx]);
                    prop_assert!(dep_finish <= start + 1e-12, "dep finished after dependent start");
                }
            }
        }
    }

    #[test]
    fn capacity_is_never_exceeded(w in workload_strategy()) {
        let (sim, ids, _) = build_and_run(&w);
        for (r, &cap) in w.resources.iter().enumerate() {
            // Collect intervals of tasks holding resource r and sweep; a
            // task naming r twice holds one slot.
            let mut events: Vec<(f64, i64)> = Vec::new();
            for (k, &id) in ids.iter().enumerate() {
                if w.tasks[k].resources.contains(&r) && w.tasks[k].service > 0.0 {
                    let (_, start, finish) = sim.task_times(id);
                    events.push((start, 1));
                    events.push((finish, -1));
                }
            }
            events.sort_by(|a, b| {
                a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1))
            });
            let mut in_use = 0i64;
            for (_, delta) in events {
                in_use += delta;
                prop_assert!(in_use <= cap as i64, "capacity exceeded on resource {r}");
            }
        }
    }

    #[test]
    fn makespan_bounded_by_total_and_critical_work(w in workload_strategy()) {
        let (_, _, report) = build_and_run(&w);
        let total: f64 = w.tasks.iter().map(|t| t.service).sum();
        prop_assert!(report.makespan <= total + 1e-9, "makespan beyond serial bound");
        let longest = w.tasks.iter().map(|t| t.service).fold(0.0f64, f64::max);
        prop_assert!(report.makespan >= longest - 1e-12);
    }

    #[test]
    fn deterministic_across_runs(w in workload_strategy()) {
        let (sim_a, ids_a, rep_a) = build_and_run(&w);
        let (sim_b, ids_b, rep_b) = build_and_run(&w);
        prop_assert_eq!(rep_a.makespan, rep_b.makespan);
        for (&a, &b) in ids_a.iter().zip(&ids_b) {
            prop_assert_eq!(sim_a.task_times(a), sim_b.task_times(b));
        }
    }

    #[test]
    fn busy_time_equals_service_sum(w in workload_strategy()) {
        // Conservation against the *inputs*: per agent and kind, the
        // exported operation spans last exactly the services handed to
        // `add_task` (same values, same order, hence bit-equal sums; control
        // tasks emit none) and the wait spans exactly `start − ready`.
        let (sim, ids, _) = build_and_run(&w);
        let phases = sim.export_trace("prop").per_rank_phases();
        for agent in 0..w.agents {
            let mine = || (0..ids.len()).filter(|&k| w.tasks[k].agent == agent);
            let service = |kind: Kind| -> f64 {
                mine().filter(|&k| w.tasks[k].kind == kind).map(|k| w.tasks[k].service).sum()
            };
            let wait: f64 = mine()
                .map(|k| sim.task_times(ids[k]))
                .map(|(ready, start, _)| start - ready)
                .filter(|&stall| stall > 0.0)
                .sum();
            let p = phases.get(&agent).copied().unwrap_or_default();
            prop_assert_eq!(p.read, service(Kind::Read));
            prop_assert_eq!(p.comm, service(Kind::Comm));
            prop_assert_eq!(p.compute, service(Kind::Compute));
            prop_assert_eq!(p.fault, service(Kind::Fault));
            prop_assert_eq!(p.wait, wait);
        }
    }

    #[test]
    fn a_cleared_simulation_matches_a_fresh_one(
        first in workload_strategy(),
        second in workload_strategy(),
    ) {
        // Reused after `clear()`, and run twice: every run starts from the
        // graph alone.
        let (mut reused, _, _) = build_and_run(&first);
        reused.clear();
        let ids = build(&mut reused, &second);
        let (fresh, fresh_ids, fresh_report) = build_and_run(&second);
        let expected = fingerprint(&fresh, &fresh_ids, &fresh_report);
        for _ in 0..2 {
            let report = reused.run().unwrap();
            prop_assert_eq!(fingerprint(&reused, &ids, &report), expected.clone());
        }
    }
}
