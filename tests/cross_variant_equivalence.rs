//! Cross-crate integration: every parallel variant, at every
//! parameterization, must produce exactly the analysis of the serial
//! point-wise reference — the paper's implementations differ in *how data
//! moves*, never in *what is computed*.

mod common;

use common::harness;
use s_enkf::core::{serial_enkf, BatchedKernel, LocalAnalysis};
use s_enkf::grid::{LocalizationRadius, Mesh};
use s_enkf::parallel::{AssimilationSetup, DEnkf, LEnkf, PEnkf, SEnkf};
use s_enkf::tuning::Params;

#[test]
fn all_variants_match_serial_reference() {
    let mesh = Mesh::new(24, 12);
    let members = 6;
    let h = harness(mesh, members, 101, 1);
    let radius = LocalizationRadius { xi: 2, eta: 1 };
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(radius),
    };
    let reference = serial_enkf(&h.scenario.ensemble, &h.scenario.observations, radius).unwrap();

    let (l, _) = LEnkf { nsdx: 3, nsdy: 2 }.run(&setup).unwrap();
    assert!(l.states().approx_eq(reference.states(), 1e-12), "L-EnKF");

    let (p, _) = PEnkf { nsdx: 4, nsdy: 3 }.run(&setup).unwrap();
    assert!(p.states().approx_eq(reference.states(), 1e-12), "P-EnKF");

    for params in [
        Params {
            nsdx: 2,
            nsdy: 2,
            layers: 1,
            ncg: 1,
        },
        Params {
            nsdx: 3,
            nsdy: 2,
            layers: 2,
            ncg: 2,
        },
        Params {
            nsdx: 4,
            nsdy: 3,
            layers: 4,
            ncg: 3,
        },
        Params {
            nsdx: 6,
            nsdy: 4,
            layers: 3,
            ncg: 6,
        },
    ] {
        let (s, _) = SEnkf::new(params).run(&setup).unwrap();
        assert!(
            s.states().approx_eq(reference.states(), 1e-12),
            "S-EnKF {params:?} diverged"
        );
    }
}

#[test]
fn equivalence_holds_with_multi_level_files() {
    // Files carry 5 vertical levels (h = 40); the analysis works on the
    // surface level, and every reading strategy must slice it identically.
    let mesh = Mesh::new(16, 8);
    let members = 5;
    let h = harness(mesh, members, 55, 5);
    let radius = LocalizationRadius { xi: 1, eta: 1 };
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(radius),
    };
    let reference = serial_enkf(&h.scenario.ensemble, &h.scenario.observations, radius).unwrap();
    let (p, _) = PEnkf { nsdx: 2, nsdy: 2 }.run(&setup).unwrap();
    let (s, _) = SEnkf::new(Params {
        nsdx: 2,
        nsdy: 2,
        layers: 2,
        ncg: 1,
    })
    .run(&setup)
    .unwrap();
    assert!(p.states().approx_eq(reference.states(), 1e-12));
    assert!(s.states().approx_eq(reference.states(), 1e-12));
}

/// D-EnKF computes the global covariance-form update (Eq. 3 with the
/// sample covariance); L-EnKF computes the localized precision-form update
/// (Eq. 6 with the modified-Cholesky B̂⁻¹). The two are the
/// Sherman–Morrison–Woodbury duals of each other, so in the regime where
/// localization and regularization vanish — a localization window covering
/// the whole mesh, zero relative ridge, and enough members for a full-rank
/// sample covariance (N − 1 ≥ n) — they must agree. The 1e-6 tolerance is
/// deliberately loose: the duals reach the same analysis through different
/// factorizations (per-point regression solves vs one batched Cholesky),
/// so the last few digits differ even though the algebra is identical.
#[test]
fn denkf_matches_lenkf_in_the_full_rank_global_regime() {
    let mesh = Mesh::new(4, 3); // n = 12 state components
    let members = 20; // N − 1 = 19 ≥ n: full-rank sample covariance
    let h = harness(mesh, members, 202, 1);
    // Window ≥ mesh: every point's local box is the whole domain.
    let radius = LocalizationRadius { xi: 4, eta: 3 };
    let mut analysis = LocalAnalysis::new(radius);
    analysis.ridge = 0.0; // exact regressions, no shrinkage
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis,
    };

    let (l, _) = LEnkf { nsdx: 2, nsdy: 1 }.run(&setup).unwrap();
    let (d_chol, _, _) = DEnkf {
        shards: 3,
        kernel: BatchedKernel::Cholesky,
    }
    .run_traced(&setup)
    .unwrap();
    assert!(
        d_chol.states().approx_eq(l.states(), 1e-6),
        "D-EnKF and L-EnKF diverge in the SMW-equivalence regime"
    );

    // The two C⁻¹ kernels are exact algebraic rearrangements of each
    // other, so they agree far tighter than the cross-form tolerance.
    let (d_sm, _, _) = DEnkf {
        shards: 3,
        kernel: BatchedKernel::ShermanMorrison,
    }
    .run_traced(&setup)
    .unwrap();
    assert!(
        d_sm.states().approx_eq(d_chol.states(), 1e-10),
        "Sherman-Morrison and Cholesky kernels diverge"
    );

    // Shard count never changes a bit: the batched update is global and
    // the kernel GEMM accumulates in a shape-independent order.
    let (d_one, _, _) = DEnkf {
        shards: 1,
        kernel: BatchedKernel::Cholesky,
    }
    .run_traced(&setup)
    .unwrap();
    assert_eq!(
        d_one.states().as_slice(),
        d_chol.states().as_slice(),
        "shard count changed the analysis bits"
    );
}

#[test]
fn repeated_runs_are_deterministic() {
    let mesh = Mesh::new(16, 8);
    let members = 4;
    let h = harness(mesh, members, 31, 1);
    let radius = LocalizationRadius { xi: 1, eta: 1 };
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(radius),
    };
    let senkf = SEnkf::new(Params {
        nsdx: 2,
        nsdy: 2,
        layers: 2,
        ncg: 2,
    });
    let (a, _) = senkf.run(&setup).unwrap();
    let (b, _) = senkf.run(&setup).unwrap();
    assert_eq!(
        a.states(),
        b.states(),
        "same inputs, same threads, same analysis"
    );
}
