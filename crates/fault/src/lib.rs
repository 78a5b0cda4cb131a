//! Deterministic fault injection for the S-EnKF substrate.
//!
//! A production assimilation system runs on hardware that misbehaves: object
//! storage targets degrade, reads fail, ranks straggle or die, messages are
//! delayed or lost. This crate describes those events as a typed,
//! deterministic [`FaultPlan`] and provides the pieces every layer consumes:
//!
//! * [`FaultPlan`] — the schedule of injectable events (OST slowdown ×k,
//!   failed reads with optional recovery-after-retry, delayed or
//!   dropped messages, straggler ranks with compute dilation, rank crash at
//!   a given stage). A plan is plain data: the same plan injected into the
//!   real (threaded) executor and the modeled (DES) executor produces the
//!   same fault/retry/dropout event sequence.
//! * [`RetryPolicy`] — bounded retry with exponential backoff. Deliberately
//!   jitter-free so backoff delays are bit-reproducible across executors and
//!   appear in DES virtual time exactly as scheduled.
//! * [`FaultInjector`] — the pure decision functions (`does attempt a of a
//!   read of member k fail?`, `which members are unrecoverable?`) plus the
//!   shared [`FaultLog`]. Every decision is a function of `(plan, policy)`
//!   alone, never of runtime state, so all ranks of a run agree on the
//!   dropout set without coordination.
//! * [`FaultLog`] — the ordered record of injected faults and recovery
//!   actions; its sorted [`FaultLog::digest`] is the conformance artifact
//!   compared between the real and modeled executors.
//! * [`SubstrateError`] — the structured error vocabulary (read failures
//!   with path/member/expected-vs-actual context, retry exhaustion, receive
//!   timeouts, rank crashes) shared by `enkf-pfs`, `enkf-net` and
//!   `enkf-parallel` in place of stringly errors.
//!
//! The crate is a leaf: it depends on nothing, and everything that can fail
//! depends on it.

mod error;
mod injector;
mod log;
mod plan;
mod retry;

pub use error::{ReadError, SubstrateError};
pub use injector::{FaultConfig, FaultInjector};
pub use log::{FaultEvent, FaultLog, FaultRecord};
pub use plan::{
    seeded_unit, CycleCrash, FaultPlan, MsgFault, OstSlowdown, RankCrash, ReadFault, Straggler,
    UNRECOVERABLE,
};
pub use retry::RetryPolicy;
