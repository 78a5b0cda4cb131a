//! The scheduler core: admission queue, quotas, fair shares, dispatch.
//!
//! All scheduling state — queued and running jobs, per-tenant accounting,
//! the share audit trail — lives here. One dispatch loop drives it in virtual
//! time ([`crate::des`]); [`crate::simulate`] and [`crate::run_real`] both
//! follow that loop, so they take identical admission and fairness
//! decisions by construction.
//!
//! Admission control at submit:
//!
//! * unknown tenants, jobs larger than the whole machine and malformed
//!   submits (a non-finite time, a bandwidth demand outside `(0, 1]`, a
//!   model the planner cannot price) are rejected outright;
//! * per-tenant rate limits (minimum submit gap) and queue-depth quotas
//!   produce typed backpressure — the caller is told to retry, the queue
//!   never grows without bound;
//! * a job with an SLA is priced *solo* by the capacity planner; a
//!   deadline unattainable even alone on the machine is rejected at
//!   submit ([`SubmitError::SlaUnattainable`]) rather than discovered
//!   after hours of queueing.
//!
//! Dispatch (fair-share policy):
//!
//! * compute ranks are granted per tenant by integer weighted max-min
//!   over current demand; a tenant at its grant waits even if the machine
//!   has free ranks another tenant is entitled to;
//! * OST/interconnect bandwidth shares are continuous weighted max-min
//!   over running jobs (a tenant's weight splits evenly over its running
//!   jobs), rebalanced at every membership change and cycle boundary;
//! * before an admission, every running job's remaining work — and the
//!   candidate's whole campaign — is re-priced at its post-admission
//!   *guaranteed floor* share. If anyone's deadline would break, the
//!   candidate stays queued. Floors are what make the guarantee sound:
//!   actual max-min shares never drop below them, and cycle cost is
//!   monotone in the share.
//!
//! The scheduler keeps no log of its own: a refusal is the typed
//! [`SubmitError`] `submit` returns, a dispatch sets
//! [`JobState::dispatch`], every rebalance leaves a [`ShareCheck`]. The
//! dispatch loop gathers these, with each completion, into
//! [`crate::MixOutcome`], bit-identical across reruns of the same seed.

use enkf_ckpt::fnv64;
use enkf_health::HealthSnapshot;
use std::collections::BTreeMap;

use crate::fair::{min_share_floor, rank_shares, weighted_max_min, Demand};
use crate::job::{JobId, JobSpec, Planner, StepCost};
use crate::tenant::{TenantId, TenantSpec};

/// What the whole simulated machine offers the scheduler: its ranks. The
/// file system and interconnect a campaign sees are priced from that
/// campaign's own `JobModel` configuration, sliced by its bandwidth share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterCapacity {
    /// Total compute ranks.
    pub ranks: usize,
}

impl ClusterCapacity {
    /// A Tianhe-2-like machine with `ranks` processors.
    pub fn tianhe2_like(ranks: usize) -> Self {
        ClusterCapacity { ranks }
    }
}

/// How running campaigns split the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharePolicy {
    /// Weighted max-min fair share with SLA-guarding admission — the
    /// scheduler this crate is about.
    FairShare,
    /// The naive baseline: every running job gets `1/k`, admission is
    /// first-fit on ranks, no SLA gating. Benched as "fair-share off".
    EqualSplit,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// The machine.
    pub capacity: ClusterCapacity,
    /// The sharing policy.
    pub policy: SharePolicy,
    /// Seed for decision tie-breaking; reruns with the same seed produce
    /// bit-identical outcomes.
    pub seed: u64,
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The tenant was never registered.
    UnknownTenant(TenantId),
    /// The job wants more ranks than the machine has.
    TooLarge {
        /// Ranks requested.
        ranks: usize,
        /// Ranks the machine has.
        capacity: usize,
    },
    /// The tenant's queue quota is full — backpressure, retry later.
    Backpressure {
        /// Jobs the tenant has queued.
        queued: usize,
        /// The tenant's queue quota.
        max_queued: usize,
    },
    /// The tenant submitted again within its minimum gap.
    RateLimited {
        /// Seconds until the next submit would be accepted.
        retry_after: f64,
    },
    /// The capacity planner predicts the SLA cannot be met even with the
    /// whole machine.
    SlaUnattainable {
        /// Predicted solo completion, virtual seconds.
        predicted: f64,
        /// The requested deadline.
        sla: f64,
    },
    /// The submit carries a value the scheduler cannot order or price;
    /// the text says which.
    Malformed(&'static str),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            SubmitError::TooLarge { ranks, capacity } => {
                write!(f, "job wants {ranks} ranks, machine has {capacity}")
            }
            SubmitError::Backpressure { queued, max_queued } => {
                write!(f, "queue quota full ({queued}/{max_queued})")
            }
            SubmitError::RateLimited { retry_after } => {
                write!(f, "rate limited, retry in {retry_after:.3}s")
            }
            SubmitError::SlaUnattainable { predicted, sla } => {
                write!(
                    f,
                    "SLA unattainable: solo prediction {predicted:.3}s > {sla:.3}s"
                )
            }
            SubmitError::Malformed(why) => write!(f, "malformed submit: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One job's scheduling lifecycle.
#[derive(Debug)]
pub struct JobState {
    /// The specification.
    pub spec: JobSpec,
    /// Submit time.
    pub submit: f64,
    /// Dispatch time, once running.
    pub dispatch: Option<f64>,
    /// Cycles still to run.
    pub cycles_left: usize,
    /// Current bandwidth share, set at dispatch and every rebalance.
    pub share: f64,
    /// Virtual service seconds consumed so far (cycles completed).
    pub service_used: f64,
    /// Every share the job ran a cycle under (audit trail).
    pub shares_seen: Vec<f64>,
    /// The planner's solo completion prediction, if the job has a model.
    pub solo_prediction: Option<f64>,
}

/// A share-snapshot taken at a rebalance, for the fairness property suite:
/// all entries are running jobs with their weight, demand and granted
/// share of unit capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareCheck {
    /// Virtual time of the rebalance.
    pub time: f64,
    /// `(job, weight, demand, share)` per running job.
    pub entries: Vec<(JobId, f64, f64, f64)>,
}

/// The multi-tenant scheduler. See the module docs for the protocol.
#[derive(Debug)]
pub struct Scheduler<P: Planner> {
    cfg: SchedConfig,
    planner: P,
    tenants: BTreeMap<TenantId, TenantSpec>,
    jobs: BTreeMap<JobId, JobState>,
    queue: Vec<JobId>,
    running: Vec<JobId>,
    next_seq: BTreeMap<TenantId, u32>,
    last_submit: BTreeMap<TenantId, f64>,
    share_checks: Vec<ShareCheck>,
    /// Fraction of PFS bandwidth still in rotation, per the latest
    /// [`HealthSnapshot`] applied — 1.0 on a healthy machine. Scales the
    /// bandwidth pool every rebalance splits and the floors SLA admission
    /// prices against.
    health_factor: f64,
}

impl<P: Planner> Scheduler<P> {
    /// A scheduler over `cfg` pricing steps with `planner`.
    pub fn new(cfg: SchedConfig, planner: P) -> Self {
        Scheduler {
            cfg,
            planner,
            tenants: BTreeMap::new(),
            jobs: BTreeMap::new(),
            queue: Vec::new(),
            running: Vec::new(),
            next_seq: BTreeMap::new(),
            last_submit: BTreeMap::new(),
            share_checks: Vec::new(),
            health_factor: 1.0,
        }
    }

    /// Register a tenant before it submits.
    pub fn add_tenant(&mut self, spec: TenantSpec) {
        self.tenants.insert(spec.id, spec);
    }

    /// A job's state (submitted jobs only).
    pub fn job(&self, id: JobId) -> Option<&JobState> {
        self.jobs.get(&id)
    }

    /// Queued job ids in submit order.
    pub(crate) fn queued(&self) -> &[JobId] {
        &self.queue
    }

    /// Running job ids in dispatch order.
    pub fn running(&self) -> &[JobId] {
        &self.running
    }

    /// Share snapshots taken at every rebalance (fairness audit trail).
    pub(crate) fn share_checks(&self) -> &[ShareCheck] {
        &self.share_checks
    }

    /// The bandwidth fraction the machine currently delivers (1.0 healthy).
    pub fn health_factor(&self) -> f64 {
        self.health_factor
    }

    /// Consume a campaign [`HealthSnapshot`] at a cycle boundary: shrink
    /// the bandwidth pool to the snapshot's
    /// [`capacity_factor`](HealthSnapshot::capacity_factor) (blacklisted
    /// OSTs are out of rotation until reintegrated) and rebalance every
    /// running job against the degraded machine. SLA admission floors are
    /// priced against the same shrunken pool, so deadline guarantees stay
    /// honest while capacity is down. Deterministic: the same snapshot
    /// stream reproduces the same shares.
    pub fn apply_health(&mut self, now: f64, snap: &HealthSnapshot) {
        self.health_factor = snap.capacity_factor();
        self.rebalance(now);
    }

    /// Submit a job. On success the job is queued (dispatch is a separate
    /// step) and its id returned; on failure the typed refusal tells the
    /// tenant whether to retry (backpressure, rate limit) or give up.
    pub fn submit(
        &mut self,
        now: f64,
        tenant: TenantId,
        spec: JobSpec,
    ) -> Result<JobId, SubmitError> {
        let Some(tspec) = self.tenants.get(&tenant).copied() else {
            return Err(SubmitError::UnknownTenant(tenant));
        };
        if !now.is_finite() {
            return Err(SubmitError::Malformed("submit time is not finite"));
        }
        if !(spec.bw_demand > 0.0 && spec.bw_demand <= 1.0) {
            return Err(SubmitError::Malformed("bandwidth demand is outside (0, 1]"));
        }
        let ranks = spec.ranks();
        if ranks > self.cfg.capacity.ranks {
            return Err(SubmitError::TooLarge {
                ranks,
                capacity: self.cfg.capacity.ranks,
            });
        }
        if tspec.quota.min_submit_gap > 0.0 {
            if let Some(&last) = self.last_submit.get(&tenant) {
                let gap = now - last;
                if gap < tspec.quota.min_submit_gap {
                    return Err(SubmitError::RateLimited {
                        retry_after: tspec.quota.min_submit_gap - gap,
                    });
                }
            }
        }
        let queued = self.queue.iter().filter(|id| id.tenant == tenant).count();
        if queued >= tspec.quota.max_queued {
            return Err(SubmitError::Backpressure {
                queued,
                max_queued: tspec.quota.max_queued,
            });
        }
        // The id is spent before the planner prices the job under it, so a
        // refused job's cached price is never handed to the tenant's next.
        let seq = self.next_seq.entry(tenant).or_insert(0);
        let id = JobId { tenant, seq: *seq };
        *seq += 1;
        // SLA feasibility: price the job alone on the machine. A deadline
        // that fails even solo can never be met and is refused now.
        let solo_prediction = spec.model.map(|_| {
            let solo_share = spec.bw_demand.min(self.health_factor);
            let step = self
                .planner
                .step(id, &spec, solo_share.max(f64::MIN_POSITIVE));
            step.init + spec.campaign.cycles as f64 * step.cycle
        });
        if solo_prediction.is_some_and(|p| !p.is_finite()) {
            return Err(SubmitError::Malformed("the planner cannot price the model"));
        }
        if let (Some(sla), Some(predicted)) = (spec.sla, solo_prediction) {
            if predicted > sla {
                return Err(SubmitError::SlaUnattainable { predicted, sla });
            }
        }
        self.last_submit.insert(tenant, now);
        let cycles = spec.campaign.cycles;
        self.jobs.insert(
            id,
            JobState {
                spec,
                submit: now,
                dispatch: None,
                cycles_left: cycles,
                share: 0.0,
                service_used: 0.0,
                shares_seen: Vec::new(),
                solo_prediction,
            },
        );
        self.queue.push(id);
        Ok(id)
    }

    /// Bandwidth demands of `ids` in order: per-job weight is the tenant
    /// weight split evenly over that tenant's entries, demand is the
    /// job's `bw_demand`.
    fn bw_demands(&self, ids: &[JobId]) -> Vec<Demand> {
        let mut per_tenant: BTreeMap<TenantId, usize> = BTreeMap::new();
        for id in ids {
            *per_tenant.entry(id.tenant).or_insert(0) += 1;
        }
        ids.iter()
            .map(|id| {
                let w = self.tenants[&id.tenant].weight / per_tenant[&id.tenant] as f64;
                Demand {
                    weight: w,
                    demand: self.jobs[id].spec.bw_demand,
                }
            })
            .collect()
    }

    /// Current bandwidth share of each member of `ids` under the policy.
    fn shares_of(&self, ids: &[JobId]) -> Vec<f64> {
        if ids.is_empty() {
            return Vec::new();
        }
        match self.cfg.policy {
            SharePolicy::FairShare => weighted_max_min(self.health_factor, &self.bw_demands(ids)),
            SharePolicy::EqualSplit => {
                let even = self.health_factor / ids.len() as f64;
                ids.iter()
                    .map(|id| even.min(self.jobs[id].spec.bw_demand))
                    .collect()
            }
        }
    }

    /// Recompute every running job's share (membership changed or a cycle
    /// boundary passed) and snapshot the result for the fairness audit.
    pub(crate) fn rebalance(&mut self, now: f64) {
        let running = self.running.clone();
        let shares = self.shares_of(&running);
        let demands = self.bw_demands(&running);
        let mut entries = Vec::with_capacity(running.len());
        for ((id, share), demand) in running.iter().zip(&shares).zip(&demands) {
            self.jobs.entry(*id).and_modify(|st| st.share = *share);
            entries.push((*id, demand.weight, demand.demand, *share));
        }
        self.share_checks.push(ShareCheck { time: now, entries });
    }

    /// Integer rank grant per tenant under weighted max-min, demand being
    /// each tenant's total appetite (running + queued ranks).
    fn tenant_rank_grants(&self) -> BTreeMap<TenantId, usize> {
        let tenants: Vec<TenantId> = self.tenants.keys().copied().collect();
        let demands: Vec<Demand> = tenants
            .iter()
            .map(|t| {
                let appetite: usize = self
                    .running
                    .iter()
                    .chain(self.queue.iter())
                    .filter(|id| id.tenant == *t)
                    .map(|id| self.jobs[id].spec.ranks())
                    .sum();
                Demand {
                    weight: self.tenants[t].weight,
                    demand: appetite as f64,
                }
            })
            .collect();
        let grants = rank_shares(self.cfg.capacity.ranks, &demands);
        tenants.into_iter().zip(grants).collect()
    }

    fn ranks_in_use(&self) -> usize {
        self.running
            .iter()
            .map(|id| self.jobs[id].spec.ranks())
            .sum()
    }

    fn tenant_ranks_running(&self, t: TenantId) -> usize {
        self.running
            .iter()
            .filter(|id| id.tenant == t)
            .map(|id| self.jobs[id].spec.ranks())
            .sum()
    }

    /// Would admitting `candidate` break anyone's deadline? Every member
    /// of the hypothetical running set is re-priced at its guaranteed
    /// floor share; admission requires all deadlines still hold.
    fn sla_admits(&mut self, candidate: JobId) -> bool {
        let mut hypothetical = self.running.clone();
        hypothetical.push(candidate);
        let demands = self.bw_demands(&hypothetical);
        for (i, id) in hypothetical.iter().enumerate() {
            let st = &self.jobs[id];
            let (Some(sla), Some(_)) = (st.spec.sla, st.spec.model) else {
                continue;
            };
            let floor = min_share_floor(self.health_factor, &demands, i).max(f64::MIN_POSITIVE);
            let step = self.planner.step(*id, &st.spec, floor);
            let init = st.dispatch.map_or(step.init, |_| 0.0);
            let predicted_remaining = init + st.cycles_left as f64 * step.cycle;
            if st.service_used + predicted_remaining > sla * (1.0 + 1e-9) {
                return false;
            }
        }
        true
    }

    /// Dispatch every queued job that fits, in fairness order. Returns the
    /// newly dispatched ids (in dispatch order); shares of all running
    /// jobs are rebalanced after each admission.
    pub fn try_dispatch(&mut self, now: f64) -> Vec<JobId> {
        let mut dispatched = Vec::new();
        loop {
            // Deterministic fairness order: tenants hungriest relative to
            // their weight first; seeded FNV tie-break, then submit order.
            let grants = self.tenant_rank_grants();
            let mut candidates: Vec<JobId> = self.queue.clone();
            let seed = self.cfg.seed;
            candidates.sort_by(|a, b| {
                let load = |id: &JobId| {
                    self.tenant_ranks_running(id.tenant) as f64 / self.tenants[&id.tenant].weight
                };
                let tie = |id: &JobId| fnv64(format!("{seed}|{}|{}", id.tenant, id.seq).as_bytes());
                load(a)
                    .total_cmp(&load(b))
                    .then_with(|| tie(a).cmp(&tie(b)))
                    .then_with(|| a.cmp(b))
            });
            let free = self.cfg.capacity.ranks - self.ranks_in_use();
            let mut admitted = None;
            for id in candidates {
                let st = &self.jobs[&id];
                let ranks = st.spec.ranks();
                let tenant = id.tenant;
                let quota = self.tenants[&tenant].quota;
                let tenant_running = self.running.iter().filter(|r| r.tenant == tenant).count();
                if tenant_running >= quota.max_running || ranks > free {
                    continue;
                }
                // Within a tenant, dispatch strictly in submit order.
                if self
                    .queue
                    .iter()
                    .any(|q| q.tenant == tenant && q.seq < id.seq)
                {
                    continue;
                }
                if self.cfg.policy == SharePolicy::FairShare {
                    // A tenant's *first* running job may exceed its grant —
                    // integer grants can fall below the smallest job size
                    // (many tenants, few ranks) and fairness must never
                    // become starvation. Beyond that, the grant binds.
                    let grant = grants[&tenant];
                    let used = self.tenant_ranks_running(tenant);
                    if used > 0 && used + ranks > grant {
                        continue;
                    }
                    if !self.sla_admits(id) {
                        continue;
                    }
                }
                admitted = Some(id);
                break;
            }
            let Some(id) = admitted else {
                break;
            };
            self.jobs.entry(id).and_modify(|st| st.dispatch = Some(now));
            self.queue.retain(|q| *q != id);
            self.running.push(id);
            self.rebalance(now);
            dispatched.push(id);
        }
        dispatched
    }

    /// Price the next cycle of running job `id` at its current share
    /// (includes the dispatch-time initialization cost on the first call
    /// after dispatch).
    pub(crate) fn price_step(&mut self, id: JobId) -> StepCost {
        let st = &self.jobs[&id];
        self.planner
            .step(id, &st.spec, st.share.max(f64::MIN_POSITIVE))
    }

    /// Record that `id` ran one cycle of `dur` virtual seconds under its
    /// current share.
    pub(crate) fn finish_cycle(&mut self, id: JobId, dur: f64) {
        let Some(st) = self.jobs.get_mut(&id) else {
            return;
        };
        let share = st.share;
        st.cycles_left = st.cycles_left.saturating_sub(1);
        st.service_used += dur;
        st.shares_seen.push(share);
    }

    /// Remove a completed job from the running set and rebalance.
    pub(crate) fn finish_job(&mut self, id: JobId, now: f64) {
        self.running.retain(|r| *r != id);
        self.rebalance(now);
    }
}
