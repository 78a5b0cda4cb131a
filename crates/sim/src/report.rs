//! The summary a simulation run returns.

/// The result of a simulation run: when it ended and how much it executed.
/// Everything else is read off the simulation on request — each task's
/// times ([`crate::Simulation::task_times`]) and every per-agent phase, a
/// fold of the run's span stream ([`crate::Simulation::spans`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Virtual time at which the last task finished.
    pub makespan: f64,
    /// Number of tasks executed (equals the task count on success).
    pub tasks_executed: usize,
}
