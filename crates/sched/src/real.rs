//! Real execution: the dispatch loop of [`crate::des`], carried out.
//!
//! [`run_real`] runs the same loop [`crate::simulate`] runs, with the same
//! planner, and acts on its steps: a campaign's thread is spawned when the
//! loop dispatches it and joined when the loop's priced completion frees
//! its ranks. The threads in flight are therefore always a subset of the
//! loop's running set, so the rank budget holds in wall time too. The loop
//! reads no real outcome — a campaign that fails, or runs slower than
//! priced, frees its ranks at its priced completion — so the decisions,
//! their digest and the whole [`MixOutcome`] equal the simulated ones.
//!
//! Isolation is structural: each campaign gets its own `FileStore` and
//! `CheckpointStore`, the executors are deterministic, and trace digests
//! ignore durations and tenant tags. A campaign that runs beside strangers
//! is therefore bit-identical — stats, cycle digests, final ensemble,
//! trace digest — to the same campaign run alone, which
//! `tests/scheduler_conformance.rs` pins as the isolation invariant.
//! Campaign backoff clocks are virtual ([`BackoffClock::Virtual`]) so a
//! tenant's fault-recovery stalls never block a join on wall sleeps.

use enkf_ckpt::CheckpointStore;
use enkf_parallel::{run_campaign_ctx, BackoffClock, CampaignCtx, CampaignError, CampaignReport};
use enkf_pfs::FileStore;
use std::collections::BTreeMap;

use crate::des::{dispatch, MixOutcome, Step};
use crate::job::{JobId, JobSpec, Planner};
use crate::scheduler::SchedConfig;
use crate::tenant::{TenantId, TenantSpec};

/// Run `arrivals` from `tenants` on the real executors under `cfg`, with
/// the decisions [`crate::simulate`] takes for the same arguments.
/// `stores[i]` is arrival `i`'s work and checkpoint store; an admitted
/// arrival without one fails with [`CampaignError::Io`]. Returns the
/// scheduling outcome and each campaign's report, in completion order.
#[allow(clippy::type_complexity)]
pub fn run_real<P: Planner>(
    cfg: &SchedConfig,
    tenants: &[TenantSpec],
    arrivals: &[(f64, TenantId, JobSpec)],
    stores: &[(&FileStore, &CheckpointStore)],
    planner: P,
) -> (
    MixOutcome,
    Vec<(JobId, Result<CampaignReport, CampaignError>)>,
) {
    std::thread::scope(|s| {
        let mut running = BTreeMap::new();
        let mut reports = Vec::new();
        let outcome = dispatch(cfg, tenants, arrivals, planner, |_, step| match step {
            Step::Start(id, i) => {
                let (_, _, spec) = &arrivals[i];
                let stores = stores.get(i).copied();
                let ctx = CampaignCtx {
                    tenant: Some((id.tenant.0, id.seq)),
                    backoff: BackoffClock::Virtual,
                    ckpt_mode: spec.ckpt_mode,
                    health: None,
                };
                let campaign = s.spawn(move || {
                    let missing = || std::io::Error::other(format!("no stores for job {id}"));
                    let (work, ckpt) = stores.ok_or_else(missing).map_err(CampaignError::Io)?;
                    run_campaign_ctx(work, ckpt, &spec.exec, &spec.campaign, &spec.fault, &ctx)
                });
                running.insert(id, campaign);
            }
            Step::Finish(id) => {
                if let Some(campaign) = running.remove(&id) {
                    let report = campaign.join();
                    reports.push((id, report.unwrap_or_else(|p| std::panic::resume_unwind(p))));
                }
            }
        });
        (outcome, reports)
    })
}
