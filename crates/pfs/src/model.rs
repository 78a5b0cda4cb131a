//! The modeled backend: OSTs as DES resources plus the service-time model.
//!
//! Calibration targets the *shape* of the paper's results, not Tianhe-2's
//! absolute numbers (see EXPERIMENTS.md): per-stream disk bandwidth of a few
//! hundred MB/s, a few milliseconds per addressing operation, a handful of
//! OSTs each serving a few concurrent streams. With those constants the
//! block-reading seek count `O(n_y · n_sdx)` dominates at high processor
//! counts (Figures 1 and 5), and concurrent-group reading saturates once
//! the groups cover the OSTs (Figure 10).

use enkf_sim::{ResourceId, Simulation};

/// Parameters of the modeled parallel file system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfsParams {
    /// Number of object storage targets files are distributed over.
    pub num_osts: usize,
    /// Concurrent streams one OST serves before readers queue.
    pub streams_per_ost: usize,
    /// Seconds per disk addressing operation (seek).
    pub seek_time: f64,
    /// Seconds per byte transferred on one stream (1 / per-stream bandwidth).
    pub byte_time: f64,
}

impl PfsParams {
    /// A Lustre/H2FS-like configuration used by the paper-scale experiments:
    /// 6 OSTs × 4 streams, 200 µs per addressing operation (RAID-backed
    /// OSTs), 300 MB/s per stream. Calibrated so the paper-scale shapes
    /// hold: block reading's `O(n_y·n_sdx)` seeks dominate P-EnKF beyond
    /// ~8,000 ranks while bar reading stays transfer-bound (EXPERIMENTS.md).
    pub fn tianhe2_like() -> Self {
        PfsParams {
            num_osts: 6,
            streams_per_ost: 4,
            seek_time: 2.0e-4,
            byte_time: 1.0 / 300.0e6,
        }
    }

    /// Service time of one read: `seeks · seek_time + bytes · byte_time`.
    pub fn read_service(&self, seeks: u64, bytes: u64) -> f64 {
        seeks as f64 * self.seek_time + bytes as f64 * self.byte_time
    }

    /// The substrate one fair-share slice of this file system presents: the
    /// same OSTs, seek cost and stream structure, but each stream delivers
    /// `share` of its bandwidth (`byte_time / share`). This is how the
    /// multi-tenant scheduler threads an OST-bandwidth allocation through
    /// the DES — a campaign granted 25% of the machine is *modeled* against
    /// quarter-speed streams, so its overlap structure and queueing are
    /// recomputed, not scaled after the fact. Seek time is unchanged:
    /// addressing operations serialize on the disk arm regardless of how
    /// the transfer bandwidth is partitioned.
    pub fn with_bandwidth_share(&self, share: f64) -> PfsParams {
        assert!(
            share > 0.0 && share <= 1.0 + 1e-12,
            "bandwidth share must be in (0, 1], got {share}"
        );
        PfsParams {
            byte_time: self.byte_time / share.min(1.0),
            ..*self
        }
    }
}

/// The OST resources of one modeled file system, registered in a simulation.
#[derive(Debug, Clone)]
pub struct ModeledPfs {
    params: PfsParams,
    osts: Vec<ResourceId>,
}

impl ModeledPfs {
    /// Register the OSTs in a simulation.
    pub fn register(sim: &mut Simulation, params: PfsParams) -> Self {
        assert!(params.num_osts > 0 && params.streams_per_ost > 0);
        let osts = (0..params.num_osts)
            .map(|_| sim.add_resource(params.streams_per_ost))
            .collect();
        ModeledPfs { params, osts }
    }

    /// OST hosting ensemble-member file `k`: round-robin placement, the
    /// "two different files may be stored in either the same disk or two
    /// physical disks" distribution of §4.1.3.
    pub fn ost_of_file(&self, file: usize) -> ResourceId {
        self.osts[file % self.osts.len()]
    }

    /// Service time of one read (delegates to the parameter set).
    pub fn read_service(&self, seeks: u64, bytes: u64) -> f64 {
        self.params.read_service(seeks, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_sim::{Kind, Task};

    #[test]
    fn read_service_combines_seek_and_transfer() {
        let p = PfsParams {
            num_osts: 1,
            streams_per_ost: 1,
            seek_time: 0.01,
            byte_time: 1e-6,
        };
        assert!((p.read_service(3, 1000) - (0.03 + 0.001)).abs() < 1e-12);
        assert_eq!(p.read_service(0, 0), 0.0);
    }

    #[test]
    fn round_robin_placement() {
        let mut sim = Simulation::new();
        let pfs = ModeledPfs::register(
            &mut sim,
            PfsParams {
                num_osts: 3,
                ..PfsParams::tianhe2_like()
            },
        );
        assert_eq!(pfs.ost_of_file(0), pfs.ost_of_file(3));
        assert_ne!(pfs.ost_of_file(0), pfs.ost_of_file(1));
    }

    #[test]
    fn ost_contention_queues_excess_readers() {
        let mut sim = Simulation::new();
        let params = PfsParams {
            num_osts: 1,
            streams_per_ost: 2,
            seek_time: 0.0,
            byte_time: 1e-6,
        };
        let pfs = ModeledPfs::register(&mut sim, params);
        // 4 readers of 1 MB each on a 2-stream OST: 2 waves of 1 s.
        for _ in 0..4 {
            let a = sim.add_agent();
            let service = pfs.read_service(0, 1_000_000);
            sim.add_task(
                Task::new(a, Kind::Read, service).with_resources(vec![pfs.ost_of_file(0)]),
            )
            .unwrap();
        }
        let rep = sim.run().unwrap();
        assert!(
            (rep.makespan - 2.0).abs() < 1e-9,
            "makespan {}",
            rep.makespan
        );
    }

    #[test]
    fn different_osts_do_not_contend() {
        let mut sim = Simulation::new();
        let params = PfsParams {
            num_osts: 2,
            streams_per_ost: 1,
            seek_time: 0.0,
            byte_time: 1e-6,
        };
        let pfs = ModeledPfs::register(&mut sim, params);
        for file in 0..2 {
            let a = sim.add_agent();
            let service = pfs.read_service(0, 1_000_000);
            sim.add_task(
                Task::new(a, Kind::Read, service).with_resources(vec![pfs.ost_of_file(file)]),
            )
            .unwrap();
        }
        let rep = sim.run().unwrap();
        assert!((rep.makespan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_share_scales_transfer_not_seeks() {
        let p = PfsParams::tianhe2_like();
        let half = p.with_bandwidth_share(0.5);
        assert!((half.byte_time - 2.0 * p.byte_time).abs() < 1e-24);
        assert_eq!(half.seek_time, p.seek_time);
        assert_eq!(half.num_osts, p.num_osts);
        // A full share is the identity.
        assert_eq!(p.with_bandwidth_share(1.0), p);
    }

    #[test]
    #[should_panic(expected = "bandwidth share")]
    fn zero_share_is_rejected() {
        PfsParams::tianhe2_like().with_bandwidth_share(0.0);
    }
}
