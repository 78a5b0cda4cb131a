//! Synthetic data for the S-EnKF reproduction.
//!
//! The paper evaluates on 120 background ensemble members from a long-time
//! 0.1° ocean model integration — data we cannot ship. This crate builds the
//! closest synthetic equivalent: smooth random fields with a prescribed
//! correlation structure plus a white-noise nugget (so ensemble anomaly
//! spectra are full-rank, as real geophysical fields are), a truth state, an
//! observation network with noisy measurements of the truth, and writers
//! that lay the members out on disk in exactly the row-priority format the
//! reading strategies (block/bar/concurrent) operate on.

#![deny(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub(crate) mod cycle;
pub(crate) mod dynamics;
pub(crate) mod field;
pub(crate) mod scenario;
pub(crate) mod storeio;

pub use cycle::{CycleConfig, CycleState, CycleStats, CycledExperiment};
pub use dynamics::AdvectionDiffusion;
pub use field::SmoothFieldGenerator;
pub use scenario::{Scenario, ScenarioBuilder};
pub use storeio::{gather_surface_into, read_ensemble, write_ensemble, LEVEL_LAPSE};
