//! Online health monitoring and adaptive degradation.
//!
//! The fault subsystem (`enkf-fault`) made failures *injectable and
//! deterministic*; this crate makes the response *adaptive* while keeping
//! the same determinism contract. Three pieces:
//!
//! * **Detection** ([`HealthMonitor`]): per-OST and per-rank trackers fed
//!   with the dilation ratios of observed read/compute spans. Within a
//!   cycle, observations accumulate into an order-insensitive keyed table;
//!   at the cycle boundary each target's cycle mean is folded into an EWMA
//!   baseline and a phi-accrual-style suspicion score. Every decision is a
//!   pure function of the observation multiset — never of wall-clock time
//!   or thread interleaving — so the real executors and the DES models
//!   reach bit-identical verdicts.
//! * **Routing** ([`RouteView`]): the frozen per-cycle decision table.
//!   Suspected-degraded OSTs are blacklisted with probation and
//!   reintegration; a member striped to a blacklisted OST is read from its
//!   replica when that is healthy and no slower (a deterministic reroute,
//!   no duplicate read), and member schedules are stably reordered away
//!   from hot OSTs (the trace digest is an order-free multiset, so
//!   reordering is conformance-neutral by construction).
//! * **Record** ([`HealthSnapshot`]): the detector verdicts at each cycle
//!   boundary — blacklisted, probation and suspect OSTs, suspect ranks.
//!   What routing made readers do is already in the run's trace (a reroute
//!   leaves a zero-duration `FaultKind::Cancelled` marker span), so the
//!   chaos-soak conformance surface is the per-cycle snapshots beside the
//!   trace's operation and fault digests; the crate keeps no log.
//!
//! Determinism argument, in one paragraph: the real substrate *injects*
//! degradation (OST slowdowns, stragglers) through `enkf-fault`, so the
//! dilation ratio of every observed span is itself a pure plan function.
//! The monitor consumes those ratios — not noisy wall-clock durations — and
//! folds them in sorted key order, so the per-cycle means, the EWMA
//! baselines, the suspicion scores, and hence the blacklist/reroute
//! decisions are byte-reproducible across reruns and identical between the
//! threaded executors and the single-threaded DES weave. A production
//! deployment would feed measured ratios instead; the detector math is
//! agnostic, and the bench drives it with measured wall-clock spans to show
//! the math holds up under noise.

#![deny(unreachable_pub)]
// ROADMAP carve-out (c): outside tests nothing in this crate may panic on a
// failure correct use can meet — every survivor is justified in place.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod monitor;
mod route;

pub use monitor::{HealthMonitor, HealthParams, HealthSnapshot};
pub use route::{ReadRoute, RouteView};
