//! The latency–bandwidth communication cost model and modeled NICs.
//!
//! Point-to-point transfer of `s` bytes costs `a + b·s` (Table 1's startup
//! time per message `a` and transfer time per byte `b`). The DES prices every
//! send of a cycle program this way; the logarithmic tree factor of
//! Eqs. (7)–(8) belongs to the closed-form model in `enkf-tuning`.

use enkf_sim::{ResourceId, Simulation};

/// Parameters of the modeled interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// Startup time per message, seconds (`a`).
    pub alpha: f64,
    /// Transfer time per byte, seconds (`b`).
    pub beta: f64,
}

impl NetParams {
    /// Cost of one point-to-point message of `bytes` bytes: `a + b·s`.
    pub fn p2p(&self, bytes: u64) -> f64 {
        self.alpha + self.beta * bytes as f64
    }

    /// The interconnect one fair-share slice of the fabric presents: the
    /// same startup latency `a`, but each endpoint delivers `share` of its
    /// bandwidth (`b / share`). Counterpart of
    /// `PfsParams::with_bandwidth_share` for the multi-tenant scheduler —
    /// a campaign's communication phases are re-modeled against its slice,
    /// so fan-out serialization under a partial allocation is captured.
    pub fn with_bandwidth_share(&self, share: f64) -> NetParams {
        assert!(
            share > 0.0 && share <= 1.0 + 1e-12,
            "bandwidth share must be in (0, 1], got {share}"
        );
        NetParams {
            alpha: self.alpha,
            beta: self.beta / share.min(1.0),
        }
    }
}

/// Per-rank NIC resources for the DES: capacity 1 per endpoint, so a helper
/// thread ingests one block at a time and concurrent senders to one rank
/// serialize.
#[derive(Debug, Clone)]
pub struct ModeledNet {
    nics: Vec<ResourceId>,
}

impl ModeledNet {
    /// Register one NIC per rank in the simulation.
    pub fn register(sim: &mut Simulation, ranks: usize) -> Self {
        let nics = (0..ranks).map(|_| sim.add_resource(1)).collect();
        ModeledNet { nics }
    }

    /// NIC resource of a rank.
    pub fn nic(&self, rank: usize) -> ResourceId {
        self.nics[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_sim::{Kind, Task};

    #[test]
    fn p2p_linear_in_bytes() {
        let p = NetParams {
            alpha: 1e-6,
            beta: 1e-9,
        };
        assert!((p.p2p(0) - 1e-6).abs() < 1e-18);
        assert!((p.p2p(1_000_000) - (1e-6 + 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn receiver_nic_serializes_concurrent_senders() {
        let mut sim = Simulation::new();
        let net = ModeledNet::register(&mut sim, 3);
        // Ranks 0 and 1 send 1s-messages to rank 2 simultaneously.
        for sender in 0..2 {
            let a = sim.add_agent();
            sim.add_task(Task::new(a, Kind::Comm, 1.0).with_resources(vec![net.nic(2)]))
                .unwrap();
            let _ = sender;
        }
        let rep = sim.run().unwrap();
        assert!((rep.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_receivers_in_parallel() {
        let mut sim = Simulation::new();
        let net = ModeledNet::register(&mut sim, 4);
        for receiver in [2usize, 3] {
            let a = sim.add_agent();
            sim.add_task(Task::new(a, Kind::Comm, 1.0).with_resources(vec![net.nic(receiver)]))
                .unwrap();
        }
        let rep = sim.run().unwrap();
        assert!((rep.makespan - 1.0).abs() < 1e-9);
        assert_eq!(net.nics.len(), 4);
    }

    #[test]
    fn bandwidth_share_scales_transfer_not_startup() {
        let p = NetParams {
            alpha: 2.0e-4,
            beta: 1.0 / 0.3e9,
        };
        let quarter = p.with_bandwidth_share(0.25);
        assert_eq!(quarter.alpha, p.alpha);
        assert!((quarter.beta - 4.0 * p.beta).abs() < 1e-18);
        assert_eq!(p.with_bandwidth_share(1.0), p);
    }
}
