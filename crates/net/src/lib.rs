//! Message-passing substrate.
//!
//! The paper's implementation sits on a customized MPICH for the TH
//! Express-2 interconnect. Rust has no mature MPI tooling (the repro band's
//! `repro_why` calls this out), so this crate supplies the two halves the
//! reproduction needs:
//!
//! * `real` — an in-process "cluster": ranks are OS threads connected by
//!   crossbeam channels with MPI-ish semantics (typed point-to-point sends
//!   with source/tag matching, broadcast/gather/all-reduce built on p2p).
//!   A rank may hand its receive endpoint to a helper thread — exactly the
//!   helper-thread communication offload of the paper's Figure 8.
//! * `model` — the classic latency–bandwidth (the paper's `a`–`b`) cost
//!   model, plus NIC resources for the DES so receive-side serialization is
//!   captured.

#![deny(unreachable_pub)]
// Outside tests nothing in this crate may panic on a failure correct use
// can meet: a departed peer or a misused collective is a typed
// `SubstrateError`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub(crate) mod model;
pub(crate) mod real;

pub use model::{ModeledNet, NetParams};
pub use real::{Cluster, RankCtx};
