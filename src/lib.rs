//! # S-EnKF — a scalable ensemble Kalman filter, co-designed
//!
//! This crate is the facade of a from-scratch Rust reproduction of
//! *“S-EnKF: Co-designing for Scalable Ensemble Kalman Filter”*
//! (Xiao, Wang, Wan, Hong & Tan, PPoPP 2019). It re-exports the public API
//! of every workspace crate so downstream users depend on one package:
//!
//! * [`linalg`] — dense matrices, Cholesky/LDLᵀ, the modified-Cholesky
//!   inverse-covariance estimator, Gaussian sampling.
//! * [`grid`] — lat–lon meshes, domain decomposition, localization boxes,
//!   layers, bars, and file-layout regions.
//! * [`sim`] — the discrete-event engine that models the 12,000-core runs.
//! * [`trace`] — execution spans, a run's one record, shared by the real
//!   and modeled executors; phases, operation digests and fault events are
//!   projections of it (Chrome-trace export, conformance checking).
//! * [`fault`] — deterministic fault injection: seeded fault plans, retry
//!   policies, degraded (N−1) execution, typed substrate errors.
//! * [`health`] — online health monitoring and adaptive degradation:
//!   deterministic failure detectors, OST blacklisting with probation,
//!   speculative read routing, and a per-cycle health snapshot.
//! * [`pfs`] — the parallel file system substrate (OSTs, striping, seek and
//!   transfer costs; real local-disk backend plus a DES-modeled backend).
//! * [`ckpt`] — durable, self-verifying campaign checkpoints (atomic
//!   member + manifest writes, checksum-verified restore with quarantine).
//! * [`net`] — the message-passing substrate (threads + channels for real
//!   runs, a latency–bandwidth cost model for simulated runs).
//! * [`data`] — synthetic ocean-like ensembles and the on-disk file format.
//! * [`core`] — the EnKF numerics: global analysis, local analysis,
//!   perturbed observations, observation operators.
//! * [`parallel`] — L-EnKF, P-EnKF and S-EnKF planners plus the real and
//!   modeled executors.
//! * [`tuning`] — the cost models (Eqs. 7–10) and the auto-tuner
//!   (Algorithms 1 and 2).
//! * [`sched`] — the multi-tenant campaign scheduler: admission control
//!   with quotas and backpressure, weighted max-min fair-share of OST
//!   bandwidth and compute ranks, and a DES-backed capacity planner that
//!   gates SLAs before dispatch.
//!
//! [`reproduce`] is the paper's evaluation as one table: each figure, the
//! claim made about it, the sweep that regenerates it and the verdict that
//! checks the claim (`examples/reproduce.rs`, `tests/reproduce.rs`).
//!
//! ## Quick start
//!
//! ```
//! use s_enkf::prelude::*;
//!
//! // A small twin experiment: truth, ensemble, observations, assimilate.
//! let mesh = Mesh::new(24, 12);
//! let scen = ScenarioBuilder::new(mesh)
//!     .members(16)
//!     .observation_stride(3)
//!     .seed(7)
//!     .build();
//! let radius = LocalizationRadius { xi: 2, eta: 2 };
//! let analysis = serial_enkf(&scen.ensemble, &scen.observations, radius).unwrap();
//! let before = scen.rmse_background();
//! let after = scen.rmse_of(&analysis);
//! assert!(after < before, "assimilation must reduce error");
//! ```

#![deny(unreachable_pub)]

pub use enkf_ckpt as ckpt;
pub use enkf_core as core;
pub use enkf_data as data;
pub use enkf_fault as fault;
pub use enkf_grid as grid;
pub use enkf_health as health;
pub use enkf_linalg as linalg;
pub use enkf_net as net;
pub use enkf_parallel as parallel;
pub use enkf_pfs as pfs;
pub use enkf_sched as sched;
pub use enkf_sim as sim;
pub use enkf_trace as trace;
pub use enkf_tuning as tuning;

pub mod reproduce;

/// Everything a typical application needs, importable in one line.
pub mod prelude {
    pub use enkf_ckpt::{CampaignCheckpoint, CheckpointStore, CkptError};
    pub use enkf_core::{
        inflate_ensemble, inflated, serial_enkf, Ensemble, GlobalAnalysis, LetkfAnalysis,
        LocalAnalysis, ObservationOperator, Observations, PerturbedObservations,
    };
    pub use enkf_data::{
        read_ensemble, write_ensemble, AdvectionDiffusion, CycleConfig, CycleState,
        CycledExperiment, Scenario, ScenarioBuilder, SmoothFieldGenerator,
    };
    pub use enkf_fault::{FaultConfig, FaultPlan, RetryPolicy, SubstrateError};
    pub use enkf_grid::{
        Decomposition, FileLayout, LocalizationRadius, Mesh, RegionRect, SubDomainId,
    };
    pub use enkf_health::{HealthMonitor, HealthParams, HealthSnapshot, ReadRoute, RouteView};
    pub use enkf_linalg::Matrix;
    pub use enkf_net::NetParams;
    pub use enkf_parallel::{
        model_campaign_adaptive, model_cycle, parallel_write_back, run_campaign, run_campaign_ctx,
        run_cycle, AssimilationSetup, CampaignConfig, CampaignCtx, CampaignError, CampaignExecutor,
        CampaignModelOutcome, CampaignModelPlan, CampaignReport, DEnkf, ExecutionReport, LEnkf,
        ModelConfig, ModelOutcome, ModelVariant, PEnkf, PhaseBreakdown, RecoveryEvent, SEnkf,
    };
    pub use enkf_pfs::{FileStore, PfsParams, ScratchDir};
    pub use enkf_sched::{
        simulate, ClusterCapacity, DesPlanner, JobId, JobModel, JobSpec, Quota, SchedConfig,
        Scheduler, SharePolicy, SubmitError, TenantId, TenantSpec,
    };
    pub use enkf_trace::{RankTracer, Span, Trace};
    pub use enkf_tuning::{autotune, CostParams, MachineParams, Params, TunedParams, Workload};
}
