//! Deterministic fault injection for the S-EnKF substrate.
//!
//! A production assimilation system runs on hardware that misbehaves: object
//! storage targets degrade, reads fail, ranks straggle or die, messages are
//! lost. This crate describes those events as a typed,
//! deterministic [`FaultPlan`] and provides the pieces every layer consumes:
//!
//! * [`FaultPlan`] — the schedule of injectable events (OST slowdown ×k,
//!   failed reads with optional recovery-after-retry, dropped
//!   messages, straggler ranks with compute dilation, rank crash at
//!   a given stage). A plan is plain data: the same plan injected into the
//!   real (threaded) executor and the modeled (DES) executor produces the
//!   same fault/retry/dropout event sequence.
//! * [`RetryPolicy`] — bounded retry with exponential backoff. The delays
//!   are a pure function of the attempt, so they are bit-reproducible across
//!   executors and appear in DES virtual time exactly as scheduled.
//! * [`FaultInjector`] — the pure decision functions (`does attempt a of a
//!   read of member k fail?`, `which members are unrecoverable?`). Every
//!   decision is a function of `(plan, policy)` alone, never of runtime
//!   state, so all ranks of a run agree on the dropout set without
//!   coordination.
//! * [`SubstrateError`] — the structured error vocabulary (read failures
//!   with path/member/expected-vs-actual context, retry exhaustion, receive
//!   timeouts, rank crashes) shared by `enkf-pfs`, `enkf-net` and
//!   `enkf-parallel` in place of stringly errors.
//!
//! The crate decides and names failures; it keeps no record of them. What
//! an injected fault did to a run is in the run's trace — the fault kind and
//! attempt index on the spans `enkf-pfs`'s read schedule emits — and the
//! event list and digest compared between the real and modeled executors
//! are projections of it (`enkf_trace::Trace::fault_events`).
//!
//! The crate is a leaf: it depends on nothing, and everything that can fail
//! depends on it.

#![deny(unreachable_pub)]
// ROADMAP carve-out (c): outside tests nothing in this crate may panic on a
// failure correct use can meet — every survivor is justified in place.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod error;
mod injector;
mod plan;
mod retry;

pub use error::{ReadError, SubstrateError};
pub use injector::{FaultConfig, FaultInjector};
pub use plan::{seeded_unit, FaultPlan, RankCrash};
pub use retry::RetryPolicy;
