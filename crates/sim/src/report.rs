//! The summary a simulation run returns.

/// The result of a simulation run: when it ended, how much it executed and
/// how busy each resource was. Per-agent phase accounting is not kept here —
/// it is a projection of the exported trace
/// ([`crate::Simulation::export_trace`], `enkf_trace::Trace::per_rank_phases`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Virtual time at which the last task finished.
    pub makespan: f64,
    /// Number of tasks executed (equals the task count on success).
    pub tasks_executed: usize,
    /// Busy time per resource (sum of the service times of the tasks that
    /// held it), indexed by `ResourceId.0`.
    pub resource_busy: Vec<f64>,
}

impl SimReport {
    /// Utilization of a resource: busy time divided by `capacity × makespan`
    /// (1.0 = every slot occupied for the whole run).
    pub fn resource_utilization(&self, resource: usize, capacity: usize) -> f64 {
        if self.makespan <= 0.0 || capacity == 0 {
            return 0.0;
        }
        self.resource_busy[resource] / (capacity as f64 * self.makespan)
    }
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
        assert!((rep.resource_utilization(0, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_resource_has_zero_utilization() {
        let mut sim = Simulation::new();
        let _r = sim.add_resource(4);
        let a = sim.add_agent();
        sim.add_task(Task::new(a, Kind::Compute, 1.0)).unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(rep.resource_utilization(0, 4), 0.0);
        assert_eq!(rep.resource_busy.len(), 1);
    }
}
