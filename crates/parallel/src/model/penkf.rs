//! Modeled P-EnKF: block reading then compute, at paper scale.

use crate::model::{
    prepare_model_faults, read_order, run_model, weave_member_read, ModelConfig, ModelOutcome,
};
use enkf_fault::{FaultConfig, FaultLog};
use enkf_grid::{Decomposition, FileLayout, LocalizationRadius, Mesh};
use enkf_health::HealthMonitor;
use enkf_pfs::ModeledPfs;
use enkf_sim::{Kind, Simulation, Task};
use enkf_trace::{OpTag, Trace};

/// Build and run the DES for a P-EnKF assimilation with an
/// `n_sdx × n_sdy` decomposition.
///
/// Every rank issues one block read per member file (partial-width region:
/// one disk addressing operation per latitude row — the `O(n_y · n_sdx)`
/// pattern of §4.1.1) and then a single local-analysis task.
pub fn model_penkf(cfg: &ModelConfig, nsdx: usize, nsdy: usize) -> Result<ModelOutcome, String> {
    model_penkf_traced(cfg, nsdx, nsdy).map(|(out, _)| out)
}

/// [`model_penkf`], additionally returning the virtual-time execution trace.
///
/// Every DES task carries an [`OpTag`] describing the operation it models
/// (member read with its layout-derived bytes/seeks, or local analysis), so
/// the exported trace is directly comparable with the real executor's: the
/// operation digests must match line for line.
pub fn model_penkf_traced(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
) -> Result<(ModelOutcome, Trace), String> {
    model_penkf_faulted(cfg, nsdx, nsdy, &FaultConfig::none()).map(|(out, trace, _)| (out, trace))
}

/// [`model_penkf_traced`] under a fault plan: the same attempt/backoff
/// weave the real executor performs is built into the DES graph (injected
/// failures become `Kind::Fault` tasks holding the member's OST, backoffs
/// agent-local `Kind::Fault` tasks), OST slowdowns dilate read services,
/// stragglers dilate compute, and dropped members contribute only their
/// failed attempts. Under the same seeded plan, the exported trace's
/// operation digest and the returned [`FaultLog`]'s digest match the real
/// executor's.
pub fn model_penkf_faulted(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
    fcfg: &FaultConfig,
) -> Result<(ModelOutcome, Trace, FaultLog), String> {
    model_penkf_adaptive(cfg, nsdx, nsdy, fcfg, None)
}

/// [`model_penkf_faulted`] with online health monitoring: the DES weaves
/// the *same* routing decisions the real adaptive executor makes from the
/// monitor's frozen view — blacklisted-OST members read last, speculative
/// duplicates marked and charged at the race winner's OST and factor, and
/// identical `(ost, member, ratio)` observations fed back. Under a common
/// seed and view, real and modeled trace, fault and health digests are
/// byte-identical. With `monitor: None` this is [`model_penkf_faulted`].
pub fn model_penkf_adaptive(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
    fcfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
) -> Result<(ModelOutcome, Trace, FaultLog), String> {
    let w = &cfg.workload;
    let mesh = Mesh::new(w.nx, w.ny);
    let decomp = Decomposition::new(mesh, nsdx, nsdy).map_err(|e| e.to_string())?;
    let radius = LocalizationRadius {
        xi: w.xi,
        eta: w.eta,
    };
    let layout = FileLayout::new(mesh, w.h);
    let (injector, dropped) = prepare_model_faults("P-EnKF", fcfg, w.members, false)?;

    let mut sim = Simulation::new();
    let pfs = ModeledPfs::register(&mut sim, cfg.pfs);
    let ranks = decomp.num_subdomains();
    let agents = sim.add_agents(ranks);
    let mut compute_tasks = Vec::with_capacity(ranks);

    for (r, id) in decomp.iter_ids().enumerate() {
        let expansion = decomp.expansion(id, radius);
        let seeks = layout.seek_count(&expansion) as u64;
        let bytes = layout.region_bytes(&expansion);
        let order = read_order(&(0..w.members).collect::<Vec<_>>(), monitor);
        for &k in &order {
            weave_member_read(
                &mut sim, &pfs, &injector, monitor, agents[r], r, None, false, k, seeks, bytes,
            )?;
        }
        let dilation = injector.compute_dilation(r);
        if let Some(mon) = monitor {
            mon.observe_compute(r, dilation);
        }
        let comp = cfg.compute_cost_per_point * decomp.subdomain(id).npoints() as f64 * dilation;
        let t = sim
            .add_task(Task::new(agents[r], Kind::Compute, comp).with_op(OpTag::default()))
            .map_err(|e| e.to_string())?;
        compute_tasks.push(t);
    }

    run_model(
        &mut sim,
        "penkf-model",
        ranks,
        0,
        &compute_tasks,
        injector,
        dropped,
    )
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
