//! Phase timing reports shared by the real and modeled executors.

/// The five-slot phase budget both executors report. It lives in
/// `enkf-trace`, beside the spans it is a projection of.
pub use enkf_trace::PhaseBreakdown;

/// The result of one real (threaded) parallel run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionReport {
    /// Phase totals over compute ranks.
    pub compute_ranks: PhaseBreakdown,
    /// Phase totals over dedicated I/O ranks (empty for P-EnKF/L-EnKF).
    pub io_ranks: PhaseBreakdown,
    /// Number of compute ranks.
    pub num_compute_ranks: usize,
    /// Number of dedicated I/O ranks.
    pub num_io_ranks: usize,
    /// End-to-end wall time of the run, seconds.
    pub wall_time: f64,
    /// Ensemble members dropped by degraded-mode execution (ascending;
    /// empty on a fault-free run). The analysis covers the surviving
    /// `members − dropped_members.len()` columns.
    pub dropped_members: Vec<usize>,
}

impl ExecutionReport {
    /// Per-compute-rank mean phases.
    pub fn compute_mean(&self) -> PhaseBreakdown {
        if self.num_compute_ranks == 0 {
            PhaseBreakdown::default()
        } else {
            self.compute_ranks
                .scaled(1.0 / self.num_compute_ranks as f64)
        }
    }

    /// Per-I/O-rank mean phases.
    pub fn io_mean(&self) -> PhaseBreakdown {
        if self.num_io_ranks == 0 {
            PhaseBreakdown::default()
        } else {
            self.io_ranks.scaled(1.0 / self.num_io_ranks as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_means() {
        let rep = ExecutionReport {
            compute_ranks: PhaseBreakdown {
                read: 8.0,
                comm: 0.0,
                compute: 4.0,
                wait: 0.0,
                fault: 0.0,
            },
            io_ranks: PhaseBreakdown::default(),
            num_compute_ranks: 4,
            num_io_ranks: 0,
            wall_time: 1.0,
            dropped_members: vec![],
        };
        assert_eq!(rep.compute_mean().read, 2.0);
        assert_eq!(rep.io_mean(), PhaseBreakdown::default());
    }
}
