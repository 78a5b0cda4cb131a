//! The summary a simulation run returns.

/// The result of a simulation run: when it ended and how much it executed.
/// Everything else is read off the simulation on request — per-resource
/// busy time ([`crate::Simulation::resource_busy`]) and every per-agent
/// phase, a fold of the run's span stream ([`crate::Simulation::spans`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Virtual time at which the last task finished.
    pub makespan: f64,
    /// Number of tasks executed (equals the task count on success).
    pub tasks_executed: usize,
}

#[cfg(test)]
mod utilization_tests {
    use crate::{Kind, Simulation, Task};

    #[test]
    fn utilization_reflects_contention() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(2);
        // 4 tasks x 1s on a 2-slot resource: makespan 2, busy 4 -> 100%.
        for _ in 0..4 {
            let a = sim.add_agent();
            sim.add_task(Task::new(a, Kind::Read, 1.0).with_resources(vec![r]))
                .unwrap();
        }
        let rep = sim.run().unwrap();
        let utilization = sim.resource_busy()[0] / (2.0 * rep.makespan);
        assert!((utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_resource_has_zero_utilization() {
        let mut sim = Simulation::new();
        let _r = sim.add_resource(4);
        let a = sim.add_agent();
        sim.add_task(Task::new(a, Kind::Compute, 1.0)).unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(sim.resource_busy()[0] / (4.0 * rep.makespan), 0.0);
        assert_eq!(sim.resource_busy().len(), 1);
    }
}
