//! Cross-executor trace conformance.
//!
//! The real (threaded) and modeled (DES) executors are two renderings of
//! one algorithmic description, so the *operations* they perform — which
//! rank reads which bytes with how many seeks, who sends how much to whom,
//! which stages compute — must be identical even though their timings are
//! wall-clock vs virtual. The trace digest (a sorted, time-free operation
//! multiset) makes that checkable: the two sides must produce
//! byte-identical digests on the same configuration.

use s_enkf::parallel::{AssimilationSetup, SEnkfModelOptions};
use s_enkf::prelude::*;

struct Case {
    mesh: Mesh,
    members: usize,
    h: u64,
    radius: LocalizationRadius,
    penkf: (usize, usize),
    senkf: Params,
}

/// Run one configuration through all four executors and check digests.
fn check_case(case: &Case) {
    let Case {
        mesh,
        members,
        h,
        radius,
        penkf: (nsdx, nsdy),
        senkf,
    } = *case;
    let scenario = ScenarioBuilder::new(mesh).members(members).seed(42).build();
    let scratch = ScratchDir::new("trace-conf").unwrap();
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, h)).unwrap();
    write_ensemble(&store, &scenario.ensemble).unwrap();
    let setup = AssimilationSetup {
        store: &store,
        members,
        observations: &scenario.observations,
        analysis: LocalAnalysis::new(radius),
    };

    let mut cfg = ModelConfig::paper();
    cfg.workload = Workload {
        nx: mesh.nx(),
        ny: mesh.ny(),
        members,
        h,
        xi: radius.xi,
        eta: radius.eta,
    };

    // P-EnKF: real vs modeled.
    let (_, _, p_real) = PEnkf { nsdx, nsdy }.run_traced(&setup).unwrap();
    let p_variant = ModelVariant::PEnkf { nsdx, nsdy };
    let (_, p_model) = model_cycle(
        &cfg,
        &p_variant,
        SEnkfModelOptions::default(),
        &FaultConfig::none(),
        None,
    )
    .unwrap();
    assert_eq!(
        p_real.digest(),
        p_model.digest(),
        "P-EnKF real/model operation digests diverge ({nsdx}x{nsdy})"
    );

    // S-EnKF: real vs modeled.
    let (_, _, s_real) = SEnkf::new(senkf).run_traced(&setup).unwrap();
    let s_variant = ModelVariant::SEnkf(senkf);
    let (_, s_model) = model_cycle(
        &cfg,
        &s_variant,
        SEnkfModelOptions::default(),
        &FaultConfig::none(),
        None,
    )
    .unwrap();
    assert_eq!(
        s_real.digest(),
        s_model.digest(),
        "S-EnKF real/model operation digests diverge ({senkf:?})"
    );

    // The co-design's point, visible in the trace: bar reading needs
    // strictly fewer disk addressing operations than block reading.
    assert!(
        s_real.total_seeks() < p_real.total_seeks(),
        "S-EnKF must seek strictly less than P-EnKF: {} vs {}",
        s_real.total_seeks(),
        p_real.total_seeks()
    );
}

#[test]
fn geometry_a_first_parameterization() {
    check_case(&Case {
        mesh: Mesh::new(24, 12),
        members: 4,
        h: 8,
        radius: LocalizationRadius { xi: 1, eta: 1 },
        penkf: (3, 2),
        senkf: Params {
            nsdx: 3,
            nsdy: 2,
            layers: 2,
            ncg: 2,
        },
    });
}

#[test]
fn geometry_a_second_parameterization() {
    check_case(&Case {
        mesh: Mesh::new(24, 12),
        members: 4,
        h: 8,
        radius: LocalizationRadius { xi: 2, eta: 1 },
        penkf: (4, 2),
        senkf: Params {
            nsdx: 4,
            nsdy: 2,
            layers: 3,
            ncg: 4,
        },
    });
}

#[test]
fn geometry_b_first_parameterization() {
    check_case(&Case {
        mesh: Mesh::new(30, 18),
        members: 6,
        h: 8,
        radius: LocalizationRadius { xi: 1, eta: 2 },
        penkf: (5, 3),
        senkf: Params {
            nsdx: 5,
            nsdy: 3,
            layers: 2,
            ncg: 3,
        },
    });
}

#[test]
fn geometry_b_second_parameterization() {
    check_case(&Case {
        mesh: Mesh::new(30, 18),
        members: 6,
        h: 8,
        radius: LocalizationRadius { xi: 2, eta: 2 },
        penkf: (2, 3),
        senkf: Params {
            nsdx: 2,
            nsdy: 3,
            layers: 3,
            ncg: 2,
        },
    });
}
