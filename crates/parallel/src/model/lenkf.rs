//! Modeled L-EnKF: the single-reader baseline, at paper scale.
//!
//! The DES mirrors the real executor's operation structure task for task:
//! rank 0 reads each full member file in order (woven through the same
//! attempt/backoff loop as the real resilient read path) and then sends
//! every other rank its expansion block — one `Kind::Comm` task per
//! (member, peer), charged the same block bytes the real tracer records.
//! Each peer's single local analysis is gated on all of its incoming
//! blocks; rank 0's analysis follows its own sends in program order. The
//! receivers' blocked waits surface as DES wait time, not as tasks —
//! matching the real executor, whose wait spans are excluded from the
//! operation digest.

use crate::model::{
    prepare_model_faults, read_order, run_model, weave_member_read, ModelConfig, ModelOutcome,
};
use enkf_fault::{FaultConfig, FaultLog};
use enkf_grid::{Decomposition, FileLayout, LocalizationRadius, Mesh, RegionRect};
use enkf_health::HealthMonitor;
use enkf_net::ModeledNet;
use enkf_pfs::ModeledPfs;
use enkf_sim::{Kind, Simulation, Task, TaskId};
use enkf_trace::{OpTag, Trace};

/// Build and run the DES for an L-EnKF assimilation with an
/// `n_sdx × n_sdy` decomposition (rank 0 is the only reader).
pub fn model_lenkf(cfg: &ModelConfig, nsdx: usize, nsdy: usize) -> Result<ModelOutcome, String> {
    model_lenkf_traced(cfg, nsdx, nsdy).map(|(out, _)| out)
}

/// [`model_lenkf`], additionally returning the virtual-time execution
/// trace, whose operation digest matches the real [`crate::LEnkf`]'s.
pub fn model_lenkf_traced(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
) -> Result<(ModelOutcome, Trace), String> {
    model_lenkf_faulted(cfg, nsdx, nsdy, &FaultConfig::none()).map(|(out, trace, _)| (out, trace))
}

/// [`model_lenkf_traced`] under a fault plan: rank 0's reads are woven
/// through the resilient attempt/backoff loop, dropped members contribute
/// only their failed attempts (and no scatter), stragglers dilate compute
/// and message delays stall the scatter sends. Crash and message-drop
/// plans are rejected — the real executor's peers time out under them, so
/// a "completed" model would lie.
pub fn model_lenkf_faulted(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
    fcfg: &FaultConfig,
) -> Result<(ModelOutcome, Trace, FaultLog), String> {
    model_lenkf_adaptive(cfg, nsdx, nsdy, fcfg, None)
}

/// [`model_lenkf_faulted`] with online health monitoring: rank 0 reads
/// blacklisted-OST members last and routes every read through the shared
/// [`crate::model::weave_member_read`] decision procedure (speculative
/// duplicates marked and charged at the race winner's OST and factor),
/// with identical `(ost, member, ratio)` observations fed back — real and
/// modeled trace, fault and health digests are byte-identical under a
/// common seed. With `monitor: None` this is [`model_lenkf_faulted`].
pub fn model_lenkf_adaptive(
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
    let (injector, dropped) = prepare_model_faults("L-EnKF", fcfg, w.members, true)?;

    let ranks = decomp.num_subdomains();
    let mut sim = Simulation::new();
    let pfs = ModeledPfs::register(&mut sim, cfg.pfs);
    let net = ModeledNet::register(&mut sim, cfg.net, ranks);
    let agents = sim.add_agents(ranks);

    // Rank 0: one full-file read per member, then the per-peer scatter.
    // Program order on agent 0 serializes read(k) → sends(k) → read(k+1),
    // exactly the real reader's loop.
    let full = RegionRect::full(mesh);
    let full_seeks = layout.seek_count(&full) as u64;
    let full_bytes = layout.region_bytes(&full);
    let mut sends_to: Vec<Vec<TaskId>> = vec![Vec::new(); ranks];
    let order = read_order(&(0..w.members).collect::<Vec<_>>(), monitor);
    for &k in &order {
        weave_member_read(
            &mut sim, &pfs, &injector, monitor, agents[0], 0, None, false, k, full_seeks,
            full_bytes,
        )?;
        if dropped.contains(&k) {
            continue; // failed members produce no scatter
        }
        for (peer, peer_id) in decomp.iter_ids().enumerate().skip(1) {
            let peer_exp = decomp.expansion(peer_id, radius);
            let block_bytes = layout.region_bytes(&peer_exp);
            let service = cfg.net.p2p(block_bytes) + injector.send_delay(0, peer);
            let t = sim
                .add_task(
                    Task::new(agents[0], Kind::Comm, service)
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

    // One local analysis per rank: peers gate on every block addressed to
    // them; rank 0 follows its own reads and sends in program order.
    let mut compute_tasks = Vec::with_capacity(ranks);
    for (r, id) in decomp.iter_ids().enumerate() {
        let dilation = injector.compute_dilation(r);
        if let Some(mon) = monitor {
            mon.observe_compute(r, dilation);
        }
        let comp = cfg.compute_cost_per_point * decomp.subdomain(id).npoints() as f64 * dilation;
        let t = sim
            .add_task(
                Task::new(agents[r], Kind::Compute, comp)
                    .with_deps(sends_to[r].clone())
                    .with_op(OpTag::default()),
            )
            .map_err(|e| e.to_string())?;
        compute_tasks.push(t);
    }

    run_model(
        &mut sim,
        "lenkf-model",
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
