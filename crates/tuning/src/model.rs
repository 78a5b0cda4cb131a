//! Table 1's notation and the phase-cost equations (7)–(10).

use serde::{Deserialize, Serialize};

/// The assimilation workload geometry (problem-side rows of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Workload {
    /// Grid points along longitude (`n_x`).
    pub nx: usize,
    /// Grid points along latitude (`n_y`).
    pub ny: usize,
    /// Background ensemble members / files (`N`).
    pub members: usize,
    /// Volume of data per grid point in bytes (`h`).
    pub h: u64,
    /// Localization radius along longitude in grid points (`ξ`).
    pub xi: usize,
    /// Localization radius along latitude in grid points (`η`).
    pub eta: usize,
}

impl Workload {
    /// The paper's evaluation workload: 0.1° ocean data, `3600 × 1800`
    /// mesh, 120 members, 30 vertical `f64` levels (`h = 240`).
    pub fn paper_ocean() -> Self {
        Workload {
            nx: 3600,
            ny: 1800,
            members: 120,
            h: 240,
            xi: 2,
            eta: 2,
        }
    }

    /// Total model components `n = n_x · n_y`.
    pub fn n(&self) -> usize {
        self.nx * self.ny
    }
}

/// The machine-side rows of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineParams {
    /// Startup time per message, seconds (`a`).
    pub a: f64,
    /// Transfer time per byte for messages, seconds (`b`).
    pub b: f64,
    /// Computation cost of the local analysis per grid point, seconds (`c`).
    pub c: f64,
    /// Transfer time per byte from disk to memory, seconds (`θ`).
    pub theta: f64,
}

impl MachineParams {
    /// Constants calibrated to reproduce the paper's *shapes* on the
    /// modeled Tianhe-2-like substrate (see EXPERIMENTS.md): 200 µs effective message
    /// startup (large-message rendezvous under fabric congestion), 300 MB/s effective per-endpoint links, 300 MB/s per disk
    /// stream, and a per-point local-analysis cost (`c = 0.2 s`: one
    /// modified-Cholesky solve over a (2ξ+1)(2η+1) box with
    /// N = 120 members) that puts the P-EnKF compute/IO crossover near
    /// 8,000 processors.
    pub fn tianhe2_like() -> Self {
        MachineParams {
            a: 2.0e-4,
            b: 1.0 / 0.3e9,
            c: 0.2,
            theta: 1.0 / 300.0e6,
        }
    }
}

/// The tunable parameters Algorithm 2 optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Params {
    /// Sub-domains along longitude (`n_sdx`).
    pub nsdx: usize,
    /// Sub-domains along latitude (`n_sdy`).
    pub nsdy: usize,
    /// Layers per sub-domain (`L`).
    pub layers: usize,
    /// Concurrent I/O groups (`n_cg`).
    pub ncg: usize,
}

impl Params {
    /// Compute-processor cost `C₂ = n_sdx · n_sdy`.
    pub fn c2(&self) -> usize {
        self.nsdx * self.nsdy
    }

    /// I/O-processor cost `C₁ = n_cg · n_sdy`.
    pub fn c1(&self) -> usize {
        self.ncg * self.nsdy
    }

    /// Total processors used `C₁ + C₂`.
    pub fn total_processors(&self) -> usize {
        self.c1() + self.c2()
    }
}

/// Workload and machine parameters together: everything Eqs. (7)–(10) need.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Problem geometry.
    pub workload: Workload,
    /// Machine constants.
    pub machine: MachineParams,
}

impl CostParams {
    /// Paper workload on the Tianhe-2-like machine model.
    pub fn paper() -> Self {
        CostParams {
            workload: Workload::paper_ocean(),
            machine: MachineParams::tianhe2_like(),
        }
    }

    /// Eq. (7): per-stage read cost.
    ///
    /// Each I/O concurrent group reads `N/n_cg` files; per stage each of a
    /// group's `n_sdy` processors reads a small bar of
    /// `(n_y/(n_sdy·L) + 2η) · n_x` points, and the `log(n_cg·n_sdy)`
    /// factor models the loss from concurrent streams sharing the file
    /// system.
    pub fn t_read(&self, p: &Params) -> f64 {
        let w = &self.workload;
        let rows = w.ny as f64 / (p.nsdy * p.layers) as f64 + 2.0 * w.eta as f64;
        let bytes = rows * w.nx as f64 * w.h as f64 * w.members as f64 / p.ncg as f64;
        bytes * self.machine.theta * contention_factor(p.ncg * p.nsdy)
    }

    /// Eq. (8): per-stage communication cost.
    ///
    /// Each I/O processor sends `n_sdx` blocks of
    /// `(n_y/(n_sdy·L) + 2η) × (n_x/n_sdx + 2ξ) × N/n_cg` points; the
    /// `log(n_cg + 1)` factor is the group tree.
    pub fn t_comm(&self, p: &Params) -> f64 {
        let w = &self.workload;
        let rows = w.ny as f64 / (p.nsdy * p.layers) as f64 + 2.0 * w.eta as f64;
        let cols = w.nx as f64 / p.nsdx as f64 + 2.0 * w.xi as f64;
        let block_bytes = rows * cols * w.members as f64 / p.ncg as f64 * w.h as f64;
        p.nsdx as f64 * log_factor(p.ncg + 1) * (self.machine.a + self.machine.b * block_bytes)
    }

    /// Eq. (9): per-stage computation cost — `c` per grid point over one
    /// layer of one sub-domain.
    pub fn t_comp(&self, p: &Params) -> f64 {
        let w = &self.workload;
        self.machine.c * (w.ny as f64 / (p.nsdy * p.layers) as f64) * (w.nx as f64 / p.nsdx as f64)
    }

    /// `T₁ = T_read + T_comm`, the objective of optimization problem (11).
    pub fn t1(&self, p: &Params) -> f64 {
        self.t_read(p) + self.t_comm(p)
    }

    /// Eq. (10): `T_total = T_read + T_comm + L · T_comp` — the first
    /// stage's read and communication are exposed; all later stages overlap
    /// with computation.
    pub fn t_total(&self, p: &Params) -> f64 {
        self.t1(p) + p.layers as f64 * self.t_comp(p)
    }
}

/// `log₂(x)` clamped below at 1 — the `log(n_cg + 1)` tree factor of
/// Eq. (8) (binary tree, base 2).
fn log_factor(x: usize) -> f64 {
    (x as f64).log2().max(1.0)
}

/// The paper's `log(·)` disk-contention factor of Eq. (7), clamped below
/// at 1. The base is a calibration constant; base 4 —
/// `enkf_pfs::STREAMS_PER_OST`, the concurrent streams one OST serves on
/// the modeled file system, which this crate cannot name — matches the
/// discrete-event substrate (Figure 12's model-vs-test comparison).
fn contention_factor(x: usize) -> f64 {
    (x as f64).log(4.0).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params {
            nsdx: 50,
            nsdy: 40,
            layers: 5,
            ncg: 6,
        }
    }

    #[test]
    fn processor_costs() {
        let p = params();
        assert_eq!(p.c2(), 2000);
        assert_eq!(p.c1(), 240);
        assert_eq!(p.total_processors(), 2240);
    }

    #[test]
    fn paper_workload_sizes() {
        let w = Workload::paper_ocean();
        assert_eq!(w.n(), 6_480_000);
        // ~1.55 GB per member, ~186 GB for the 120-member ensemble.
        assert_eq!(w.n() as u64 * w.h, 1_555_200_000);
    }

    #[test]
    fn t_read_decreases_with_more_groups() {
        let cost = CostParams::paper();
        let p1 = Params { ncg: 1, ..params() };
        let p4 = Params { ncg: 4, ..params() };
        assert!(cost.t_read(&p4) < cost.t_read(&p1));
    }

    #[test]
    fn t_read_decreases_with_more_layers() {
        let cost = CostParams::paper();
        let few = Params {
            layers: 1,
            ..params()
        };
        let many = Params {
            layers: 10,
            ..params()
        };
        assert!(
            cost.t_read(&many) < cost.t_read(&few),
            "per-stage reads shrink with L"
        );
    }

    #[test]
    fn t_comp_scales_inversely_with_compute_processors() {
        let cost = CostParams::paper();
        let small = Params {
            nsdx: 25,
            nsdy: 20,
            layers: 1,
            ncg: 4,
        };
        let large = Params {
            nsdx: 50,
            nsdy: 40,
            layers: 1,
            ncg: 4,
        };
        let ratio = cost.t_comp(&small) / cost.t_comp(&large);
        assert!(
            (ratio - 4.0).abs() < 1e-9,
            "4x processors -> 1/4 per-stage compute"
        );
    }

    #[test]
    fn t_total_combines_phases() {
        let cost = CostParams::paper();
        let p = params();
        let total = cost.t_total(&p);
        let sum = cost.t_read(&p) + cost.t_comm(&p) + p.layers as f64 * cost.t_comp(&p);
        assert!((total - sum).abs() < 1e-12);
        assert!(total > 0.0);
    }

    #[test]
    fn all_costs_finite_and_positive() {
        let cost = CostParams::paper();
        for &(nsdx, nsdy, layers, ncg) in &[(1, 1, 1, 1), (120, 100, 10, 12), (3600, 1800, 1, 120)]
        {
            let p = Params {
                nsdx,
                nsdy,
                layers,
                ncg,
            };
            for v in [
                cost.t_read(&p),
                cost.t_comm(&p),
                cost.t_comp(&p),
                cost.t_total(&p),
            ] {
                assert!(v.is_finite() && v > 0.0, "{p:?} gave {v}");
            }
        }
    }
}
