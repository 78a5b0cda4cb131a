//! Assimilation-as-a-service: a multi-tenant campaign scheduler.
//!
//! The paper's co-design story is about sharing one real machine — its
//! parallel file system and interconnect — across competing work. This
//! crate adds the service layer that makes the reproduction multi-tenant:
//! many campaigns from many tenants are admitted onto one simulated
//! cluster, with
//!
//! * a **job queue with admission control** ([`Scheduler::submit`]):
//!   per-tenant quotas (queue depth → backpressure, concurrent-job caps)
//!   and rate limits (minimum submit gap), every rejection typed
//!   ([`SubmitError`]);
//! * **weighted max-min fair-share** of the two contended resources
//!   (`fair`): OST bandwidth (continuous shares, rebalanced at cycle
//!   boundaries) and compute ranks (integer grants). Shares are threaded
//!   through the substrate — a campaign granted 25% of the machine is
//!   re-modeled against `PfsParams::with_bandwidth_share(0.25)` /
//!   `NetParams::with_bandwidth_share(0.25)`, so contention reshapes the
//!   DES (overlap, queueing) instead of scaling a number after the fact;
//! * a **capacity-planning front end** ([`DesPlanner`]): the discrete-event
//!   model (`enkf_parallel::model_campaign_adaptive`) doubles as an SLA oracle.
//!   A job whose deadline cannot be met even alone on the machine is
//!   rejected at submit; a job whose admission would push any running
//!   campaign's guaranteed-floor prediction past its deadline waits in the
//!   queue;
//! * **deterministic, seeded decisions**: every refusal, dispatch,
//!   completion and share lands in the [`MixOutcome`], which is
//!   bit-identical across reruns of the same seed — the property the
//!   conformance and property suites pin.
//!
//! One dispatch loop (`des`) drives the scheduler core in virtual time:
//! arrivals, cycle boundaries priced by the planner at the current share,
//! rebalances, dispatches, completions. It reports each dispatch and each
//! final completion to its caller and reads nothing back. Two entry points
//! follow it:
//!
//! * [`simulate`] — the multi-campaign DES: it only prices. Used by the
//!   `fairness` sweep of the reproduction (`examples/reproduce.rs`).
//! * [`run_real`] — the same loop, executed: each dispatched campaign runs
//!   on the real (threaded) executors from its dispatch to its priced
//!   completion, on its own stores, with its trace tagged `(tenant, job)`.
//!   Its scheduling outcome equals [`simulate`]'s for the same arguments.
//!   Isolation is an invariant, not an aspiration: a campaign scheduled
//!   next to strangers produces bit-identical stats, ensembles and trace
//!   digests to the same campaign run alone
//!   (`tests/scheduler_conformance.rs`).

#![deny(unreachable_pub)]
// Outside tests nothing in this crate may panic on a failure correct use
// can meet: a malformed submit is a typed `SubmitError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub(crate) mod des;
pub(crate) mod fair;
pub(crate) mod job;
pub(crate) mod real;
pub(crate) mod scheduler;
pub(crate) mod tenant;

pub use des::{simulate, MixOutcome};
pub use fair::{min_share_floor, Demand};
pub use job::{DesPlanner, JobId, JobModel, JobSpec, Planner, StepCost};
pub use real::run_real;
pub use scheduler::{ClusterCapacity, SchedConfig, Scheduler, SharePolicy, SubmitError};
pub use tenant::{Quota, TenantId, TenantSpec};
