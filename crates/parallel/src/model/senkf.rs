//! Modeled S-EnKF: concurrent-group bar reading, multi-stage overlap.
//!
//! The entry points price the [`ModelVariant::SEnkf`] cycle program
//! ([`crate::program`]) — the same program the real [`crate::SEnkf`] runs.

use crate::model::{model_traced, model_untraced, ModelConfig, ModelOutcome};
use crate::program::ModelVariant;
use enkf_trace::Trace;
use enkf_tuning::Params;

/// Build and run the DES for an S-EnKF assimilation with parameters
/// `(n_sdx, n_sdy, L, n_cg)`.
///
/// Agents: `C₂` compute ranks plus `C₁ = n_cg · n_sdy` I/O ranks. Sends are
/// serialized on the sender and queued on the receiver's NIC — the natural
/// origin of Eq. 8's `n_sdx` and tree factors — and a compute rank's
/// stage-`l` analysis depends only on the stage-`l` bundles, so stage
/// `l+1` I/O overlaps stage `l` computation exactly as in Fig. 7.
pub fn model_senkf(cfg: &ModelConfig, params: Params) -> Result<ModelOutcome, String> {
    model_untraced(cfg, ModelVariant::SEnkf(params))
}

/// Ablation switches for the modeled S-EnKF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SEnkfModelOptions {
    /// With the helper thread (the paper's design, default) block ingestion
    /// proceeds concurrently with the main thread's local analyses. Without
    /// it, each stage's communication is ingested *on the compute agent*
    /// before that stage's analysis — communication is no longer hidden.
    pub helper_thread: bool,
}

impl Default for SEnkfModelOptions {
    fn default() -> Self {
        SEnkfModelOptions {
            helper_thread: true,
        }
    }
}

/// [`model_senkf`], additionally returning the virtual-time execution
/// trace, whose operation digest matches the real executor's.
pub fn model_senkf_traced(
    cfg: &ModelConfig,
    params: Params,
) -> Result<(ModelOutcome, Trace), String> {
    model_traced(cfg, ModelVariant::SEnkf(params))
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
        let out = model_senkf(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 4,
                ncg: 2,
            },
        )
        .unwrap();
        assert!(out.makespan > 0.0);
        assert_eq!(out.num_compute_ranks, 48);
        assert_eq!(out.num_io_ranks, 12);
        assert!(out.io_mean.read > 0.0);
        assert!(out.io_mean.comm > 0.0);
        assert!(out.compute_mean.compute > 0.0);
        assert_eq!(out.compute_mean.read, 0.0, "compute ranks never read");
    }

    #[test]
    fn overlap_beats_penkf_at_scale() {
        // With matched compute resources, S-EnKF's makespan must be well
        // below P-EnKF's once reads dominate.
        let cfg = small_cfg();
        let p = model_penkf(&cfg, 24, 12).unwrap();
        let s = model_senkf(
            &cfg,
            Params {
                nsdx: 24,
                nsdy: 12,
                layers: 5,
                ncg: 4,
            },
        )
        .unwrap();
        assert!(
            s.makespan < p.makespan,
            "S-EnKF {} vs P-EnKF {}",
            s.makespan,
            p.makespan
        );
    }

    #[test]
    fn multi_stage_overlaps_io_with_compute() {
        // With L > 1, the first compute must start well before all reads
        // finish (overlap); the exposed prefix is roughly 1/L of total I/O.
        let cfg = small_cfg();
        let out = model_senkf(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 4,
                ncg: 2,
            },
        )
        .unwrap();
        assert!(
            out.first_compute_start < out.makespan * 0.8,
            "first compute at {} of {}",
            out.first_compute_start,
            out.makespan
        );
        assert!(out.overlapped_fraction() > 0.0);
    }

    #[test]
    fn more_layers_reduce_exposed_prefix() {
        let cfg = small_cfg();
        let one = model_senkf(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 1,
                ncg: 2,
            },
        )
        .unwrap();
        let four = model_senkf(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 4,
                ncg: 2,
            },
        )
        .unwrap();
        assert!(
            four.first_compute_start < one.first_compute_start,
            "L=4 prefix {} vs L=1 prefix {}",
            four.first_compute_start,
            one.first_compute_start
        );
    }

    #[test]
    fn indivisible_parameters_rejected() {
        let cfg = small_cfg();
        assert!(model_senkf(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 3,
                ncg: 2
            }
        )
        .is_err());
        assert!(model_senkf(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 2,
                ncg: 3
            }
        )
        .is_err());
    }
}
