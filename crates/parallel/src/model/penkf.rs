//! Modeled P-EnKF: block reading then compute, at paper scale.
//!
//! The entry points price the [`ModelVariant::PEnkf`] cycle program
//! ([`crate::program`]) — the same program the real [`crate::PEnkf`] runs.

use crate::model::{model_traced, model_untraced, ModelConfig, ModelOutcome};
use crate::program::ModelVariant;
use enkf_trace::Trace;

/// Build and run the DES for a P-EnKF assimilation with an
/// `n_sdx × n_sdy` decomposition.
pub fn model_penkf(cfg: &ModelConfig, nsdx: usize, nsdy: usize) -> Result<ModelOutcome, String> {
    model_untraced(cfg, ModelVariant::PEnkf { nsdx, nsdy })
}

/// [`model_penkf`], additionally returning the virtual-time execution
/// trace, whose operation digest matches the real executor's line for line.
pub fn model_penkf_traced(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
) -> Result<(ModelOutcome, Trace), String> {
    model_traced(cfg, ModelVariant::PEnkf { nsdx, nsdy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_tuning::Workload;

    fn small_cfg() -> ModelConfig {
        ModelConfig {
            workload: Workload {
                nx: 240,
                ny: 120,
                members: 8,
                h: 80,
                xi: 2,
                eta: 2,
            },
            ..ModelConfig::paper()
        }
    }

    #[test]
    fn produces_sane_phases() {
        let cfg = small_cfg();
        let out = model_penkf(&cfg, 8, 6).unwrap();
        assert!(out.makespan > 0.0);
        assert!(out.compute_mean.read > 0.0);
        assert!(out.compute_mean.compute > 0.0);
        assert_eq!(out.num_compute_ranks, 48);
        assert_eq!(out.num_io_ranks, 0);
        // Sequential phases: the first compute cannot start before every
        // read of some rank finished, so it starts after the reads' span.
        assert!(out.first_compute_start > 0.0);
    }

    #[test]
    fn read_time_grows_with_nsdx() {
        // The block-reading seek count is O(n_y · n_sdx): doubling nsdx at
        // fixed rank count must increase the mean read time (Fig. 5).
        let cfg = small_cfg();
        let narrow = model_penkf(&cfg, 6, 8).unwrap();
        let wide = model_penkf(&cfg, 24, 2).unwrap();
        assert!(
            wide.compute_mean.read > narrow.compute_mean.read,
            "wide {} vs narrow {}",
            wide.compute_mean.read,
            narrow.compute_mean.read
        );
    }

    #[test]
    fn compute_shrinks_with_more_ranks() {
        let cfg = small_cfg();
        let few = model_penkf(&cfg, 4, 3).unwrap();
        let many = model_penkf(&cfg, 8, 6).unwrap();
        assert!(many.compute_mean.compute < few.compute_mean.compute);
    }

    #[test]
    fn invalid_decomposition_errors() {
        let cfg = small_cfg();
        assert!(model_penkf(&cfg, 7, 6).is_err());
    }
}
