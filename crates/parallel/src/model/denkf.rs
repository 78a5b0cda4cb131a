//! Modeled D-EnKF: distributed-array batched assimilation, at paper scale.
//!
//! The DES mirrors the real executor's operation structure task for task:
//! per rank one bar read per member file (full-width band — one disk
//! addressing operation), one observation-block send per peer (sized by
//! [`super::super::exec::denkf::exchange_bytes`], the same formula the real
//! tracer charges, which is what makes the trace digests byte-identical),
//! and one batched-transform compute gated on every peer's block.

use crate::exec::denkf::exchange_bytes;
use crate::model::{
    prepare_model_faults, read_order, run_model, weave_member_read, ModelConfig, ModelOutcome,
};
use enkf_fault::{FaultConfig, FaultLog};
use enkf_grid::{Decomposition, FileLayout, Mesh, ObservationNetwork};
use enkf_health::HealthMonitor;
use enkf_net::ModeledNet;
use enkf_pfs::ModeledPfs;
use enkf_sim::{Kind, Simulation, Task, TaskId};
use enkf_trace::{OpTag, Trace};

/// Build and run the DES for a D-EnKF assimilation with `shards` state
/// shards (= ranks).
pub fn model_denkf(cfg: &ModelConfig, shards: usize) -> Result<ModelOutcome, String> {
    model_denkf_traced(cfg, shards).map(|(out, _)| out)
}

/// [`model_denkf`], additionally returning the virtual-time execution
/// trace, whose operation digest matches the real [`crate::DEnkf`]'s.
pub fn model_denkf_traced(
    cfg: &ModelConfig,
    shards: usize,
) -> Result<(ModelOutcome, Trace), String> {
    model_denkf_faulted(cfg, shards, &FaultConfig::none()).map(|(out, trace, _)| (out, trace))
}

/// [`model_denkf_traced`] under a fault plan: reads are woven through the
/// same attempt/backoff loop as the real resilient read path, dropped
/// members shrink the exchanged blocks to the survivors, stragglers dilate
/// compute, and message delays stall the exchange sends. Crash and
/// message-drop plans are rejected — the real executor cannot complete
/// them either (peers time out), so a "completed" model would lie.
pub fn model_denkf_faulted(
    cfg: &ModelConfig,
    shards: usize,
    fcfg: &FaultConfig,
) -> Result<(ModelOutcome, Trace, FaultLog), String> {
    model_denkf_adaptive(cfg, shards, fcfg, None)
}

/// [`model_denkf_faulted`] with online health monitoring: every shard's bar
/// reads are routed through the same frozen view the real adaptive executor
/// consults (blacklisted-OST members last, speculative duplicates marked
/// and charged at the race winner's OST and factor), with identical
/// `(ost, member, ratio)` observations fed back — real and modeled trace,
/// fault and health digests are byte-identical under a common seed. With
/// `monitor: None` this is [`model_denkf_faulted`].
pub fn model_denkf_adaptive(
    cfg: &ModelConfig,
    shards: usize,
    fcfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
) -> Result<(ModelOutcome, Trace, FaultLog), String> {
    let w = &cfg.workload;
    let mesh = Mesh::new(w.nx, w.ny);
    let decomp = Decomposition::new(mesh, 1, shards).map_err(|e| e.to_string())?;
    let layout = FileLayout::new(mesh, w.h);
    let obs_net = ObservationNetwork::uniform(mesh, cfg.obs_stride);
    let (injector, dropped) = prepare_model_faults("D-EnKF", fcfg, w.members, true)?;
    let alive = w.members - dropped.len();

    let mut sim = Simulation::new();
    let pfs = ModeledPfs::register(&mut sim, cfg.pfs);
    let net = ModeledNet::register(&mut sim, cfg.net, shards);
    let agents = sim.add_agents(shards);

    // Per-rank observed row counts (the shard's rows of the network) and
    // the total — every rank's compute works on the full m_total system.
    let obs_rows: Vec<usize> = decomp
        .iter_ids()
        .map(|id| obs_net.indices_in(&decomp.subdomain(id)).len())
        .collect();
    let m_total: usize = obs_rows.iter().sum();

    // Phase 1 + 2: bar reads and the all-to-all observation-block
    // exchange. `sends_to[r]` collects every peer's send targeting rank r —
    // the dependencies of r's batched compute.
    let mut sends_to: Vec<Vec<TaskId>> = vec![Vec::new(); shards];
    for (r, id) in decomp.iter_ids().enumerate() {
        let bar = decomp.subdomain(id);
        let seeks = layout.seek_count(&bar) as u64;
        let bytes = layout.region_bytes(&bar);
        let order = read_order(&(0..w.members).collect::<Vec<_>>(), monitor);
        for &k in &order {
            weave_member_read(
                &mut sim, &pfs, &injector, monitor, agents[r], r, None, false, k, seeks, bytes,
            )?;
        }
        // One observation-block send per peer. Program order on the agent
        // already places these after the rank's reads.
        let block_bytes = exchange_bytes(obs_rows[r], alive);
        // Indexed loop: `peer` also names the NIC resource and the op tag.
        #[allow(clippy::needless_range_loop)]
        for peer in 0..shards {
            if peer == r {
                continue;
            }
            let service = cfg.net.p2p(block_bytes) + injector.send_delay(r, peer);
            let t = sim
                .add_task(
                    Task::new(agents[r], Kind::Comm, service)
                        .with_resources(vec![net.nic(peer)])
                        .with_op(OpTag {
                            bytes: block_bytes,
                            peer: Some(peer),
                            ..OpTag::default()
                        }),
                )
                .map_err(|e| e.to_string())?;
            sends_to[peer].push(t);
        }
    }

    // Phase 3: the batched transform plus the shard update, gated on every
    // peer's block. The transform works the full m_total × N system; the
    // shard update touches the rank's own bar points.
    let mut compute_tasks = Vec::with_capacity(shards);
    for (r, id) in decomp.iter_ids().enumerate() {
        let bar = decomp.subdomain(id);
        let dilation = injector.compute_dilation(r);
        if let Some(mon) = monitor {
            mon.observe_compute(r, dilation);
        }
        let service = cfg.compute_cost_per_point * (bar.npoints() + m_total) as f64 * dilation;
        let t = sim
            .add_task(
                Task::new(agents[r], Kind::Compute, service)
                    .with_deps(sends_to[r].clone())
                    .with_op(OpTag::default()),
            )
            .map_err(|e| e.to_string())?;
        compute_tasks.push(t);
    }

    run_model(
        &mut sim,
        "denkf-model",
        shards,
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
