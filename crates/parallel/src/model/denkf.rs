//! Modeled D-EnKF: distributed-array batched assimilation, at paper scale.
//!
//! The entry points price the [`ModelVariant::DEnkf`] cycle program
//! ([`crate::program`]) — the same program the real [`crate::DEnkf`] runs.

use crate::model::{model_traced, model_untraced, ModelConfig, ModelOutcome};
use crate::program::ModelVariant;
use enkf_trace::Trace;

/// Build and run the DES for a D-EnKF assimilation with `shards` state
/// shards (= ranks).
pub fn model_denkf(cfg: &ModelConfig, shards: usize) -> Result<ModelOutcome, String> {
    model_untraced(cfg, ModelVariant::DEnkf { shards })
}

/// [`model_denkf`], additionally returning the virtual-time execution
/// trace, whose operation digest matches the real [`crate::DEnkf`]'s.
pub fn model_denkf_traced(
    cfg: &ModelConfig,
    shards: usize,
) -> Result<(ModelOutcome, Trace), String> {
    model_traced(cfg, ModelVariant::DEnkf { shards })
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
        let out = model_denkf(&cfg, 8).unwrap();
        assert!(out.makespan > 0.0);
        assert!(out.compute_mean.read > 0.0);
        assert!(out.compute_mean.comm > 0.0, "the exchange must be modeled");
        assert!(out.compute_mean.compute > 0.0);
        assert_eq!(out.num_compute_ranks, 8);
        assert_eq!(out.num_io_ranks, 0);
    }

    #[test]
    fn bar_reads_keep_seek_count_flat_across_shards() {
        // Full-width bars are contiguous: per-rank read time must not blow
        // up with shard count the way P-EnKF's partial-width blocks do.
        let cfg = small_cfg();
        let few = model_denkf(&cfg, 4).unwrap();
        let many = model_denkf(&cfg, 24).unwrap();
        // Each of the 24 shards reads 1/6 the bytes of each of the 4.
        assert!(many.compute_mean.read < few.compute_mean.read);
    }

    #[test]
    fn exchange_grows_with_shard_count() {
        let cfg = small_cfg();
        let few = model_denkf(&cfg, 2).unwrap();
        let many = model_denkf(&cfg, 12).unwrap();
        // More peers → more blocks on the wire (total comm grows even as
        // each block shrinks).
        assert!(many.compute_mean.comm * 12.0 > few.compute_mean.comm * 2.0);
    }

    #[test]
    fn invalid_shard_count_errors() {
        let cfg = small_cfg();
        assert!(model_denkf(&cfg, 7).is_err());
    }
}
