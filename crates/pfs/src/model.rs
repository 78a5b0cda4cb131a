//! The modeled backend: OSTs as DES resources plus the service-time model.
//!
//! Calibration targets the *shape* of the paper's results, not Tianhe-2's
//! absolute numbers (see EXPERIMENTS.md): per-stream disk bandwidth of a few
//! hundred MB/s, a few milliseconds per addressing operation, a handful of
//! OSTs each serving a few concurrent streams. With those constants the
//! block-reading seek count `O(n_y · n_sdx)` dominates at high processor
//! counts (Figures 1 and 5), and concurrent-group reading saturates once
//! the groups cover the OSTs (Figure 10).

use enkf_fault::OSTS;
use enkf_sim::{ResourceId, Simulation};

/// Concurrent streams one OST serves before readers queue. With
/// [`enkf_fault::OSTS`] OSTs it fixes the file system's stream capacity.
pub const STREAMS_PER_OST: usize = 4;

/// The timing of the modeled parallel file system; its layout —
/// [`enkf_fault::OSTS`] OSTs of [`STREAMS_PER_OST`] streams, members placed
/// by [`enkf_fault::ost_of`] — is fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfsParams {
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
    osts: [ResourceId; OSTS],
}

impl ModeledPfs {
    /// Register the OSTs in a simulation.
    pub fn register(sim: &mut Simulation, params: PfsParams) -> Self {
        let osts = std::array::from_fn(|_| sim.add_resource(STREAMS_PER_OST));
        ModeledPfs { params, osts }
    }

    /// The resource of OST `ost` (`0..OSTS`); a member's file is on
    /// [`enkf_fault::ost_of`]`(member)`.
    pub(crate) fn ost(&self, ost: usize) -> ResourceId {
        self.osts[ost]
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
            seek_time: 0.01,
            byte_time: 1e-6,
        };
        assert!((p.read_service(3, 1000) - (0.03 + 0.001)).abs() < 1e-12);
        assert_eq!(p.read_service(0, 0), 0.0);
    }

    /// A seek-free file system at 1 µs per byte: a 1 MB read takes 1 s.
    fn transfer_only(sim: &mut Simulation) -> ModeledPfs {
        let params = PfsParams {
            seek_time: 0.0,
            byte_time: 1e-6,
        };
        ModeledPfs::register(sim, params)
    }

    #[test]
    fn round_robin_placement() {
        let mut sim = Simulation::new();
        let pfs = transfer_only(&mut sim);
        let file = |member| pfs.ost(enkf_fault::ost_of(member));
        assert_eq!(file(0), file(OSTS));
        assert_ne!(file(0), file(1));
    }

    #[test]
    fn ost_contention_queues_excess_readers() {
        let mut sim = Simulation::new();
        let pfs = transfer_only(&mut sim);
        // 2 × STREAMS_PER_OST readers of 1 MB each on one OST: 2 waves of 1 s.
        for _ in 0..2 * STREAMS_PER_OST {
            let a = sim.add_agent();
            let service = pfs.read_service(0, 1_000_000);
            sim.add_task(Task::new(a, Kind::Read, service).with_resources(vec![pfs.ost(0)]))
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
        let pfs = transfer_only(&mut sim);
        // A full OST's worth of readers on each of two OSTs: one wave.
        for ost in 0..2 {
            for _ in 0..STREAMS_PER_OST {
                let a = sim.add_agent();
                let service = pfs.read_service(0, 1_000_000);
                sim.add_task(Task::new(a, Kind::Read, service).with_resources(vec![pfs.ost(ost)]))
                    .unwrap();
            }
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
        // A full share is the identity.
        assert_eq!(p.with_bandwidth_share(1.0), p);
    }

    #[test]
    #[should_panic(expected = "bandwidth share")]
    fn zero_share_is_rejected() {
        PfsParams::tianhe2_like().with_bandwidth_share(0.0);
    }
}
