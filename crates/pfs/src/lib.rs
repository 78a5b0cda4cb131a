//! Parallel file system substrate.
//!
//! The paper's evaluation ran against H2FS/Lustre: ensemble members are
//! independent files distributed over object storage targets (OSTs); a
//! region read costs one *disk addressing operation* (seek) per
//! non-contiguous segment plus a per-byte transfer time θ; each OST serves a
//! bounded number of concurrent streams, so excess readers queue.
//!
//! This crate provides both halves of the substitution described in
//! DESIGN.md:
//!
//! * `store` — a **real backend**: ensemble members as actual files in a
//!   directory, with region reads that issue exactly the seeks the layout
//!   predicts and an accounting of seeks/bytes. Used by the real (threaded)
//!   executor and by correctness tests.
//! * `model` — a **modeled backend**: OSTs as finite-capacity DES
//!   resources plus the seek/transfer service-time function. Used by the
//!   12,000-core experiments.
//! * `scratch` — self-cleaning scratch directories for tests and examples.

#![deny(unreachable_pub)]
// ROADMAP carve-out (c): outside tests nothing in this crate may panic on a
// failure correct use can meet — every survivor is justified in place.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub(crate) mod model;
pub(crate) mod readahead;
pub mod resilient;
pub(crate) mod scratch;
pub(crate) mod store;

pub use model::{ModeledPfs, PfsParams, STREAMS_PER_OST};
pub use readahead::{read_stages_ahead, read_stages_ahead_adaptive, ReadAheadError, StageRead};
pub use resilient::{read_region_adaptive, read_region_resilient};
pub use scratch::ScratchDir;
pub use store::{FileStore, IoStats, RegionData};
