//! Modeled L-EnKF: the single-reader baseline, at paper scale.
//!
//! The entry points price the [`ModelVariant::LEnkf`] cycle program
//! ([`crate::program`]) — the same program the real [`crate::LEnkf`] runs.

use crate::model::{model_traced, model_untraced, ModelConfig, ModelOutcome};
use crate::program::ModelVariant;
use enkf_trace::Trace;

/// Build and run the DES for an L-EnKF assimilation with an
/// `n_sdx × n_sdy` decomposition (rank 0 is the only reader).
pub fn model_lenkf(cfg: &ModelConfig, nsdx: usize, nsdy: usize) -> Result<ModelOutcome, String> {
    model_untraced(cfg, ModelVariant::LEnkf { nsdx, nsdy })
}

/// [`model_lenkf`], additionally returning the virtual-time execution
/// trace, whose operation digest matches the real [`crate::LEnkf`]'s.
pub fn model_lenkf_traced(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
) -> Result<(ModelOutcome, Trace), String> {
    model_traced(cfg, ModelVariant::LEnkf { nsdx, nsdy })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::penkf::model_penkf;
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
        let out = model_lenkf(&cfg, 8, 6).unwrap();
        assert!(out.makespan > 0.0);
        assert!(out.compute_mean.read > 0.0, "rank 0 reads");
        assert!(out.compute_mean.comm > 0.0, "the scatter must be modeled");
        assert!(out.compute_mean.compute > 0.0);
        assert_eq!(out.num_compute_ranks, 48);
        assert_eq!(out.num_io_ranks, 0);
    }

    #[test]
    fn single_reader_loses_to_block_reading_at_scale() {
        // §3.1/§6: one reader cannot use the parallel file system, so the
        // serialized reads must dominate P-EnKF's parallel block reads.
        let cfg = small_cfg();
        let l = model_lenkf(&cfg, 8, 6).unwrap();
        let p = model_penkf(&cfg, 8, 6).unwrap();
        assert!(
            l.makespan > p.makespan,
            "L-EnKF {} must exceed P-EnKF {}",
            l.makespan,
            p.makespan
        );
    }

    #[test]
    fn invalid_decomposition_errors() {
        let cfg = small_cfg();
        assert!(model_lenkf(&cfg, 7, 5).is_err());
    }
}
