//! Shared configuration for the real executors.

use enkf_core::{EnkfError, LocalAnalysis, Observations};
use enkf_grid::Mesh;
use enkf_pfs::FileStore;

/// Everything a real parallel run needs besides the variant-specific
/// parameters: where the background member files live, how many there are,
/// the observations, and the local-analysis configuration.
#[derive(Debug)]
pub struct AssimilationSetup<'a> {
    /// Store holding the background ensemble member files.
    pub store: &'a FileStore,
    /// Number of ensemble members (files `0..members`).
    pub members: usize,
    /// Observation set.
    pub observations: &'a Observations,
    /// Local analysis configuration (radius, ridge).
    pub analysis: LocalAnalysis,
}

impl<'a> AssimilationSetup<'a> {
    /// The mesh (from the store layout).
    pub(crate) fn mesh(&self) -> Mesh {
        self.store.layout().mesh()
    }

    /// Sanity checks shared by all variants.
    pub fn validate(&self) -> Result<(), EnkfError> {
        if self.members < 2 {
            return Err(EnkfError::GeometryMismatch(
                "need at least 2 ensemble members".into(),
            ));
        }
        if self.observations.operator().mesh() != self.mesh() {
            return Err(EnkfError::GeometryMismatch(
                "observation mesh differs from store mesh".into(),
            ));
        }
        if self.observations.perturbed().members() != self.members {
            return Err(EnkfError::GeometryMismatch(
                "perturbed-observation member count differs from ensemble size".into(),
            ));
        }
        Ok(())
    }
}
