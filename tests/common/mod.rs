//! Shared integration-test harness: a seeded scenario written into a
//! scratch-backed [`FileStore`], used by the cross-variant, failure
//! injection, and fault resilience suites — plus the [`TenantMix`]
//! builder the campaign and scheduler conformance suites compose their
//! geometry × executor × fault plan × quota combinations from.

#![allow(dead_code)] // each test binary uses a subset of the helpers

use s_enkf::ckpt::CheckpointStore;
use s_enkf::core::LocalAnalysis;
use s_enkf::data::{write_ensemble, CycleConfig, Scenario, ScenarioBuilder};
use s_enkf::fault::{FaultConfig, RetryPolicy};
use s_enkf::grid::{FileLayout, LocalizationRadius, Mesh};
use s_enkf::parallel::{CampaignConfig, CampaignExecutor, ModelConfig};
use s_enkf::pfs::{FileStore, ScratchDir};
use s_enkf::sched::{JobModel, JobSpec, Quota, TenantId, TenantSpec};
use s_enkf::tuning::{Params, Workload};

/// A scenario plus the on-disk ensemble it was written to. The scratch
/// directory is removed when the harness drops.
pub struct Harness {
    pub scratch: ScratchDir,
    pub store: FileStore,
    pub scenario: Scenario,
}

/// Build a seeded scenario, write its ensemble into a scratch-backed store
/// whose files carry `levels` vertical levels per point, and return the
/// bundle.
pub fn harness(mesh: Mesh, members: usize, seed: u64, levels: u64) -> Harness {
    harness_labeled("integration", mesh, members, seed, levels)
}

/// [`harness`] with a custom scratch-directory label (useful when several
/// tests in one binary must not collide).
pub fn harness_labeled(label: &str, mesh: Mesh, members: usize, seed: u64, levels: u64) -> Harness {
    let scenario = ScenarioBuilder::new(mesh)
        .members(members)
        .seed(seed)
        .build();
    let scratch = ScratchDir::new(label).unwrap();
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8 * levels)).unwrap();
    write_ensemble(&store, &scenario.ensemble).unwrap();
    Harness {
        scratch,
        store,
        scenario,
    }
}

/// The S-EnKF decomposition the conformance suites drive everywhere.
pub const SENKF: Params = Params {
    nsdx: 2,
    nsdy: 2,
    layers: 2,
    ncg: 2,
};

/// A multi-tenant test mix: one campaign geometry (mesh × members ×
/// observation stride × localization), shared across every tenant's jobs,
/// composed with per-tenant weights/quotas and per-job executors, fault
/// plans and SLAs. The campaign and scheduler conformance suites build all
/// their campaign configs, stores, and scheduler inputs from one of these
/// so "the same campaign, solo vs scheduled" is true by construction.
#[derive(Debug, Clone)]
pub struct TenantMix {
    /// The mesh every campaign in the mix runs on.
    pub mesh: Mesh,
    /// Ensemble members per campaign.
    pub members: usize,
    /// Vertical levels per grid point in the on-disk layout.
    pub h: u64,
    /// Localization radius of every analysis.
    pub radius: LocalizationRadius,
    /// Campaign seed (all campaigns in a mix share it — isolation means
    /// identical jobs must produce identical results).
    pub seed: u64,
    /// Multiplicative inflation.
    pub inflation: f64,
    /// Restart/backoff policy for every campaign.
    pub restart: RetryPolicy,
    tenants: Vec<TenantSpec>,
    jobs: Vec<(TenantId, JobSpec)>,
}

impl TenantMix {
    /// The small conformance geometry: 24×12 mesh, 4 members, 8 levels,
    /// radius-1 localization, seed 17 — what the campaign conformance
    /// suite has always pinned.
    pub fn small() -> Self {
        TenantMix {
            mesh: Mesh::new(24, 12),
            members: 4,
            h: 8,
            radius: LocalizationRadius { xi: 1, eta: 1 },
            seed: 17,
            inflation: 1.05,
            restart: RetryPolicy {
                max_retries: 3,
                base_backoff: 1e-6,
                multiplier: 2.0,
            },
            tenants: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Change the campaign seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Add a tenant (ids are assigned 0, 1, … in call order) with the
    /// default quota.
    pub fn tenant(mut self, weight: f64) -> Self {
        let id = self.tenants.len() as u32;
        self.tenants.push(TenantSpec::new(id, weight));
        self
    }

    /// Replace the quota of the most recently added tenant.
    pub fn quota(mut self, quota: Quota) -> Self {
        self.tenants
            .last_mut()
            .expect("quota() requires a tenant() first")
            .quota = quota;
        self
    }

    /// Add a best-effort job for the most recently added tenant.
    pub fn job(mut self, exec: CampaignExecutor, cycles: usize) -> Self {
        let tenant = self
            .tenants
            .last()
            .expect("job() requires a tenant() first")
            .id;
        let spec = JobSpec::best_effort(exec, self.campaign_cfg_for(exec, cycles));
        self.jobs.push((tenant, spec));
        self
    }

    /// Attach a fault plan to the most recently added job.
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.jobs
            .last_mut()
            .expect("fault() requires a job() first")
            .1
            .fault = fault;
        self
    }

    /// Attach a DES model and an SLA to the most recently added job
    /// (panics for executors without a model, i.e. L-EnKF).
    pub fn sla(mut self, sla: f64) -> Self {
        let model_cfg = self.model_cfg();
        let spec = &mut self
            .jobs
            .last_mut()
            .expect("sla() requires a job() first")
            .1;
        let variant = spec.exec.variant();
        spec.model = Some(JobModel {
            cfg: model_cfg,
            variant,
            checkpoint: true,
        });
        spec.sla = Some(sla);
        self
    }

    /// Cap the bandwidth demand of the most recently added job.
    pub fn bw_demand(mut self, demand: f64) -> Self {
        self.jobs
            .last_mut()
            .expect("bw_demand() requires a job() first")
            .1
            .bw_demand = demand;
        self
    }

    /// The registered tenants.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// The composed jobs, in builder order.
    pub fn jobs(&self) -> &[(TenantId, JobSpec)] {
        &self.jobs
    }

    /// The mix's campaign configuration for a `cycles`-cycle run.
    pub fn campaign_cfg(&self, cycles: usize) -> CampaignConfig {
        CampaignConfig {
            mesh: self.mesh,
            cycles,
            members: self.members,
            cycle: CycleConfig::default(),
            seed: self.seed,
            analysis: LocalAnalysis::new(self.radius),
            inflation: self.inflation,
            restart: self.restart,
        }
    }

    fn campaign_cfg_for(&self, _exec: CampaignExecutor, cycles: usize) -> CampaignConfig {
        self.campaign_cfg(cycles)
    }

    /// The DES substrate model matching this mix's geometry (paper
    /// machine parameters, mix workload).
    pub fn model_cfg(&self) -> ModelConfig {
        let mut cfg = ModelConfig::paper();
        cfg.workload = Workload {
            nx: self.mesh.nx(),
            ny: self.mesh.ny(),
            members: self.members,
            h: self.h,
            xi: self.radius.xi,
            eta: self.radius.eta,
        };
        // Campaign cycles observe through `CycleConfig::default()`'s
        // network, so the modeled observation geometry must match it (the
        // batched D-EnKF model sizes its exchange blocks from this).
        cfg.obs_stride = CycleConfig::default().obs_stride;
        cfg
    }

    /// Fresh, isolated work + checkpoint stores for one campaign of this
    /// mix, under one scratch directory.
    pub fn stores(&self, label: &str) -> (ScratchDir, FileStore, CheckpointStore) {
        let scratch = ScratchDir::new(label).unwrap();
        let work_dir = scratch.path().join("work");
        std::fs::create_dir_all(&work_dir).unwrap();
        let work = FileStore::open(&work_dir, FileLayout::new(self.mesh, self.h)).unwrap();
        let ckpt = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        (scratch, work, ckpt)
    }
}
