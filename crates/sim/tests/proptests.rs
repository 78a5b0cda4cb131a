//! Property-based tests of the DES engine's scheduling invariants.

use enkf_sim::{Kind, Simulation, Task, TaskId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomWorkload {
    agents: usize,
    resources: Vec<usize>,                       // capacities
    tasks: Vec<(usize, usize, f64, Vec<usize>)>, // (agent, resource?, service, dep offsets)
}

fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
    (1usize..6, proptest::collection::vec(1usize..4, 1..4)).prop_flat_map(|(agents, resources)| {
        let nres = resources.len();
        proptest::collection::vec(
            (
                0..agents,
                0..=nres, // == nres means "no resource"
                0.0f64..2.0,
                proptest::collection::vec(1usize..8, 0..3),
            ),
            1..40,
        )
        .prop_map(move |tasks| RandomWorkload {
            agents,
            resources: resources.clone(),
            tasks,
        })
    })
}

fn build_and_run(w: &RandomWorkload) -> (Simulation, Vec<TaskId>, enkf_sim::SimReport) {
    let mut sim = Simulation::new();
    let agents = sim.add_agents(w.agents);
    let resources: Vec<_> = w.resources.iter().map(|&c| sim.add_resource(c)).collect();
    let mut ids = Vec::new();
    for (agent, res, service, dep_offsets) in &w.tasks {
        let mut t = Task::new(agents[*agent], Kind::Compute, *service);
        if *res < resources.len() {
            t = t.with_resources(vec![resources[*res]]);
        }
        // Dependencies reach back by the given offsets (valid back-edges).
        let deps: Vec<TaskId> = dep_offsets
            .iter()
            .filter_map(|&off| ids.len().checked_sub(off))
            .collect();
        t = t.with_deps(deps);
        ids.push(sim.add_task(t).unwrap());
    }
    let report = sim.run().unwrap();
    (sim, ids, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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
            by_agent.entry(w.tasks[k].0).or_default().push((start, finish));
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
        for (k, (_, _, _, dep_offsets)) in w.tasks.iter().enumerate() {
            let (_, start, _) = sim.task_times(ids[k]);
            for &off in dep_offsets {
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
            // Collect intervals of tasks holding resource r and sweep.
            let mut events: Vec<(f64, i64)> = Vec::new();
            for (k, &id) in ids.iter().enumerate() {
                if w.tasks[k].1 == r && w.tasks[k].2 > 0.0 {
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
        let total: f64 = w.tasks.iter().map(|t| t.2).sum();
        prop_assert!(report.makespan <= total + 1e-9, "makespan beyond serial bound");
        let longest = w.tasks.iter().map(|t| t.2).fold(0.0f64, f64::max);
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
        // Conservation against the *inputs*: per agent, the exported
        // operation spans last exactly the services handed to `add_task`
        // (same values, same order, hence bit-equal sums) and the wait
        // spans exactly `start − ready`.
        let (sim, ids, _) = build_and_run(&w);
        let phases = sim.export_trace("prop").per_rank_phases();
        for agent in 0..w.agents {
            let mine = || (0..ids.len()).filter(|&k| w.tasks[k].0 == agent);
            let service: f64 = mine().map(|k| w.tasks[k].2).sum();
            let wait: f64 = mine()
                .map(|k| sim.task_times(ids[k]))
                .map(|(ready, start, _)| start - ready)
                .filter(|&stall| stall > 0.0)
                .sum();
            let p = phases.get(&agent).copied().unwrap_or_default();
            prop_assert_eq!(p.compute, service);
            prop_assert_eq!(p.wait, wait);
            prop_assert_eq!(p.total(), service + wait);
        }
    }
}
