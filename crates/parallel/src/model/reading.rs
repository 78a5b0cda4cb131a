//! Modeled read-only workloads: the reading-strategy comparisons of
//! Figures 5 and 10.

use crate::model::ModelConfig;
use enkf_grid::{Decomposition, FileLayout, LocalizationRadius, Mesh};
use enkf_pfs::ModeledPfs;
use enkf_sim::{Kind, Simulation, Task};

/// Virtual time to read `files` members with the **block reading** approach
/// (Fig. 3): all `n_sdx · n_sdy` ranks read their own expansion block of
/// every file. This is Figure 5's workload.
pub fn model_block_read(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
    files: usize,
) -> Result<f64, String> {
    let w = &cfg.workload;
    let mesh = Mesh::new(w.nx, w.ny);
    let decomp = Decomposition::new(mesh, nsdx, nsdy).map_err(|e| e.to_string())?;
    let radius = LocalizationRadius {
        xi: w.xi,
        eta: w.eta,
    };
    let layout = FileLayout::new(mesh, w.h);
    let mut sim = Simulation::new();
    let pfs = ModeledPfs::register(&mut sim, cfg.pfs);
    for id in decomp.iter_ids() {
        let agent = sim.add_agent();
        let expansion = decomp.expansion(id, radius);
        let service = pfs.read_service(
            layout.seek_count(&expansion) as u64,
            layout.region_bytes(&expansion),
        );
        for k in 0..files {
            sim.add_task(
                Task::new(agent, Kind::Read, service).with_resources(vec![pfs.ost_of_file(k)]),
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(sim.run().map_err(|e| e.to_string())?.makespan)
}

/// Outcome of a concurrent-access read: makespan plus per-OST utilization
/// (the saturation diagnostic behind Figure 10's knee).
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrentReadDetail {
    /// Virtual time to read all files.
    pub makespan: f64,
    /// Utilization of each OST (busy / capacity·makespan).
    pub ost_utilization: Vec<f64>,
}

impl ConcurrentReadDetail {
    /// Mean utilization over all OSTs.
    pub fn mean_utilization(&self) -> f64 {
        if self.ost_utilization.is_empty() {
            0.0
        } else {
            self.ost_utilization.iter().sum::<f64>() / self.ost_utilization.len() as f64
        }
    }
}

/// Virtual time and per-OST utilization of reading `files` members with the
/// **concurrent access** approach (§4.1.3): `n_cg` groups of `n_sdy` bar
/// readers, each group owning `files / n_cg` files, whole bars (no
/// layering). This is Figure 10's workload; `n_cg = 1` degenerates to plain
/// bar reading (§4.1.2).
pub fn model_concurrent_read(
    cfg: &ModelConfig,
    nsdy: usize,
    ncg: usize,
    files: usize,
) -> Result<ConcurrentReadDetail, String> {
    let w = &cfg.workload;
    let mesh = Mesh::new(w.nx, w.ny);
    if ncg == 0 || !files.is_multiple_of(ncg) {
        return Err(format!("files {files} not divisible by n_cg {ncg}"));
    }
    let decomp = Decomposition::new(mesh, 1, nsdy).map_err(|e| e.to_string())?;
    let layout = FileLayout::new(mesh, w.h);
    let files_per_group = files / ncg;
    let mut sim = Simulation::new();
    let pfs = ModeledPfs::register(&mut sim, cfg.pfs);
    for g in 0..ncg {
        for j in 0..nsdy {
            let agent = sim.add_agent();
            let bar = decomp.bar(j);
            let service =
                pfs.read_service(layout.seek_count(&bar) as u64, layout.region_bytes(&bar));
            for f in 0..files_per_group {
                let file = g * files_per_group + f;
                sim.add_task(
                    Task::new(agent, Kind::Read, service)
                        .with_resources(vec![pfs.ost_of_file(file)]),
                )
                .map_err(|e| e.to_string())?;
            }
        }
    }
    let report = sim.run().map_err(|e| e.to_string())?;
    // Busy / (capacity × makespan): 1.0 = every stream busy the whole run.
    let capacity = cfg.pfs.streams_per_ost;
    let idle = report.makespan <= 0.0 || capacity == 0;
    let busy = sim.resource_busy();
    let ost_utilization = pfs
        .osts()
        .iter()
        .map(|&r| match idle {
            true => 0.0,
            false => busy[r.0] / (capacity as f64 * report.makespan),
        })
        .collect();
    Ok(ConcurrentReadDetail {
        makespan: report.makespan,
        ost_utilization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_tuning::Workload;

    fn cfg() -> ModelConfig {
        ModelConfig {
            workload: Workload {
                nx: 360,
                ny: 180,
                members: 12,
                h: 80,
                xi: 2,
                eta: 2,
            },
            ..ModelConfig::paper()
        }
    }

    #[test]
    fn block_read_time_grows_with_nsdx() {
        // Figure 5's shape: more longitudinal subdivisions, more seeks,
        // longer reads (rank count held fixed).
        let c = cfg();
        let t1 = model_block_read(&c, 10, 6, 12).unwrap();
        let t2 = model_block_read(&c, 20, 3, 12).unwrap();
        let t3 = model_block_read(&c, 40, 3, 12).unwrap();
        assert!(t1 < t2, "{t1} < {t2}");
        assert!(t2 < t3, "{t2} < {t3}");
    }

    #[test]
    fn concurrent_groups_speed_up_until_saturation() {
        // Figure 10's shape: adding groups helps while they map to idle
        // OSTs, then flattens.
        let c = cfg();
        let t = |ncg| model_concurrent_read(&c, 6, ncg, 12).unwrap().makespan;
        let (t1, t2, t4, t12) = (t(1), t(2), t(4), t(12));
        assert!(t2 < t1, "{t2} < {t1}");
        assert!(t4 < t2, "{t4} < {t2}");
        // Beyond the OST count (6), the gain collapses.
        assert!(t12 > t4 * 0.5, "saturation: t12 {t12} vs t4 {t4}");
    }

    #[test]
    fn bar_reading_beats_block_reading() {
        // Same total data, same number of readers: bars are single-seek,
        // blocks are one seek per row.
        let c = cfg();
        let block = model_block_read(&c, 10, 6, 12).unwrap();
        let bar = model_concurrent_read(&c, 6, 1, 12).unwrap().makespan;
        assert!(bar < block, "bar {bar} vs block {block}");
    }

    #[test]
    fn utilization_rises_toward_saturation() {
        let c = cfg();
        let low = model_concurrent_read(&c, 6, 1, 12).unwrap();
        let high = model_concurrent_read(&c, 6, 6, 12).unwrap();
        assert!(high.mean_utilization() > low.mean_utilization());
        assert!(high.mean_utilization() <= 1.0 + 1e-9);
        assert_eq!(low.ost_utilization.len(), c.pfs.num_osts);
    }

    #[test]
    fn indivisible_files_rejected() {
        let c = cfg();
        assert!(model_concurrent_read(&c, 6, 5, 12).is_err());
    }
}
