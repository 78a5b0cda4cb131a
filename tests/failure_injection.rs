//! Failure injection: the parallel executors must surface substrate
//! failures (missing or truncated member files, inconsistent setups) as
//! errors instead of panicking, deadlocking, or silently producing a wrong
//! analysis.

mod common;

use common::{harness_labeled, SENKF};
use s_enkf::core::{BatchedKernel, EnkfError, LocalAnalysis, PerturbedObservations};
use s_enkf::data::ScenarioBuilder;
use s_enkf::fault::SubstrateError;
use s_enkf::grid::{LocalizationRadius, Mesh};
use s_enkf::parallel::{AssimilationSetup, DEnkf, LEnkf, PEnkf, SEnkf};
use s_enkf::tuning::Params;

fn radius() -> LocalizationRadius {
    LocalizationRadius { xi: 1, eta: 1 }
}

fn denkf(shards: usize) -> DEnkf {
    DEnkf {
        shards,
        kernel: BatchedKernel::Cholesky,
    }
}

/// An I/O failure must come back as the failing rank's own typed read
/// error — whichever rank order, and never as the `GeometryMismatch` echo
/// of a peer that was merely told to stop waiting: the campaign supervisor
/// restarts on `Substrate` errors only.
fn assert_read_error<T>(label: &str, member: usize, result: Result<T, EnkfError>) {
    match result.err() {
        Some(EnkfError::Substrate(SubstrateError::Read(e))) => {
            assert_eq!(e.member, member, "{label}: wrong member in {e}")
        }
        other => panic!("{label}: expected Substrate(Read {{ member: {member} }}), got {other:?}"),
    }
}

#[test]
fn missing_member_file_is_an_error_in_every_variant() {
    let mesh = Mesh::new(8, 8);
    let members = 4;
    let h = harness_labeled("fail-missing", mesh, members, 1, 1);
    // Remove one member file.
    std::fs::remove_file(h.store.member_path(2)).unwrap();

    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(radius()),
    };
    assert_read_error("P-EnKF", 2, PEnkf { nsdx: 2, nsdy: 2 }.run(&setup));
    assert_read_error("L-EnKF", 2, LEnkf { nsdx: 2, nsdy: 2 }.run(&setup));
    assert_read_error("S-EnKF", 2, SEnkf::new(SENKF).run(&setup));
    assert_read_error("D-EnKF", 2, denkf(2).run(&setup));
}

#[test]
fn truncated_member_file_is_an_error() {
    let mesh = Mesh::new(8, 8);
    let members = 3;
    let h = harness_labeled("fail-truncated", mesh, members, 2, 1);
    // Truncate the last member to half its size.
    let path = h.store.member_path(2);
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();

    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(radius()),
    };
    assert_read_error("P-EnKF", 2, PEnkf { nsdx: 2, nsdy: 2 }.run(&setup));
    // Only the lower half of the file is unreadable: shard 0 and the I/O
    // ranks of the upper latitude block succeed, and the compute ranks
    // (which precede the I/O ranks) only hear of the failure from a peer.
    assert_read_error("D-EnKF", 2, denkf(2).run(&setup));
    let senkf = SEnkf::new(Params { ncg: 1, ..SENKF });
    assert_read_error("S-EnKF", 2, senkf.run(&setup));
}

#[test]
fn member_count_mismatch_with_perturbations_is_rejected() {
    let mesh = Mesh::new(8, 8);
    let h = harness_labeled("fail-mismatch", mesh, 4, 3, 1);
    // Claim 3 members while the perturbation schema was built for 4.
    let setup = AssimilationSetup {
        store: &h.store,
        members: 3,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(radius()),
    };
    assert!(PEnkf { nsdx: 2, nsdy: 2 }.run(&setup).is_err());
}

#[test]
fn observation_mesh_mismatch_is_rejected() {
    let mesh = Mesh::new(8, 8);
    let members = 4;
    let h = harness_labeled("fail-mesh", mesh, members, 4, 1);
    // Observations built on a different mesh.
    let other = ScenarioBuilder::new(Mesh::new(12, 8))
        .members(members)
        .seed(4)
        .build();
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &other.observations,
        analysis: LocalAnalysis::new(radius()),
    };
    assert!(PEnkf { nsdx: 2, nsdy: 2 }.run(&setup).is_err());
}

#[test]
fn too_few_members_is_rejected() {
    let mesh = Mesh::new(8, 8);
    let h = harness_labeled("fail-few", mesh, 2, 5, 1);
    let obs = h.scenario.observations.clone();
    // Rebuild a 1-member claim: validate() must reject it.
    let setup = AssimilationSetup {
        store: &h.store,
        members: 1,
        observations: &obs,
        analysis: LocalAnalysis::new(radius()),
    };
    assert!(setup.validate().is_err());
    let _ = PerturbedObservations::new(0, 2); // silence unused-import lints on feature churn
}
