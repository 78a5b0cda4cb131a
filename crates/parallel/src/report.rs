//! Phase timing reports shared by the real and modeled executors.

/// Wall/virtual time spent in each phase, summed over the ranks of one
/// class (compute or I/O). The first four categories are exactly the
/// stacked components of the paper's Figure 9; `fault` is the time injected
/// faults and their recovery (failed attempts, retry backoffs) consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// File reading.
    pub read: f64,
    /// Data communication.
    pub comm: f64,
    /// Local analysis computation.
    pub compute: f64,
    /// Waiting (dependency stalls, resource queueing, blocked receives).
    pub wait: f64,
    /// Injected faults and recovery actions (zero on a fault-free run).
    pub fault: f64,
}

impl PhaseBreakdown {
    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.read + self.comm + self.compute + self.wait + self.fault
    }

    /// Elementwise accumulate.
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.read += other.read;
        self.comm += other.comm;
        self.compute += other.compute;
        self.wait += other.wait;
        self.fault += other.fault;
    }

    /// Divide every phase by `n` (e.g. to get a per-rank mean).
    pub fn scaled(&self, factor: f64) -> PhaseBreakdown {
        PhaseBreakdown {
            read: self.read * factor,
            comm: self.comm * factor,
            compute: self.compute * factor,
            wait: self.wait * factor,
            fault: self.fault * factor,
        }
    }

    /// Fraction of the total spent reading (Figure 1's I/O share, with
    /// `comm` counted toward I/O).
    pub fn io_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            (self.read + self.comm) / t
        }
    }

    /// Project execution-trace spans into the four-phase breakdown by
    /// summing durations per operation kind. Both executors' reports are
    /// built this way, making the trace the single source of truth.
    pub fn from_spans<'a>(spans: impl IntoIterator<Item = &'a enkf_trace::Span>) -> Self {
        let mut totals = enkf_trace::PhaseTotals::default();
        for s in spans {
            totals.add(s);
        }
        totals.into()
    }
}

impl From<enkf_trace::PhaseTotals> for PhaseBreakdown {
    fn from(t: enkf_trace::PhaseTotals) -> Self {
        PhaseBreakdown {
            read: t.read,
            comm: t.comm,
            compute: t.compute,
            wait: t.wait,
            fault: t.fault,
        }
    }
}

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
    fn totals_and_merge() {
        let mut a = PhaseBreakdown {
            read: 1.0,
            comm: 2.0,
            compute: 3.0,
            wait: 4.0,
            fault: 0.0,
        };
        assert_eq!(a.total(), 10.0);
        a.merge(&PhaseBreakdown {
            read: 0.5,
            comm: 0.5,
            compute: 0.5,
            wait: 0.5,
            fault: 0.25,
        });
        assert_eq!(a.total(), 12.25);
        assert_eq!(a.read, 1.5);
        assert_eq!(a.fault, 0.25);
    }

    #[test]
    fn io_fraction() {
        let p = PhaseBreakdown {
            read: 3.0,
            comm: 1.0,
            compute: 4.0,
            wait: 0.0,
            fault: 0.0,
        };
        assert!((p.io_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(PhaseBreakdown::default().io_fraction(), 0.0);
    }

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
