//! The parallel EnKF implementations: L-EnKF, P-EnKF, S-EnKF and D-EnKF.
//!
//! Every variant has one algorithmic description — its **cycle program**
//! ([`program`]): an ordered stream of `(rank, op)` with
//! `op ∈ {Read, Send, Await, Compute}`, emitted once from the geometry —
//! and two interpreters of it (the co-design described in DESIGN.md):
//!
//! * `exec` — the **threaded backend** *executes* the program
//!   ([`run_cycle`]): ranks are OS threads ([`enkf_net::Cluster`]), ensemble
//!   members are real files ([`enkf_pfs::FileStore`]), block data travels
//!   over channels. One interpreter runs every variant's program, checked
//!   before any thread starts ([`program::check`]'s rules, which the
//!   pricer steps too); the ops' stages alone decide what overlaps, so
//!   S-EnKF's helper thread genuinely overlaps reception with the main
//!   thread's local analyses (Fig. 8) while L-/P-EnKF run strictly in
//!   order. Produces a bit-exact analysis ensemble plus wall-clock phase
//!   timings. Used for correctness and small-scale measurements.
//! * `model` — the **DES backend** *prices* the program ([`model_cycle`]):
//!   each op becomes tasks in the discrete-event engine
//!   ([`enkf_sim::Simulation`]) against modeled OSTs and NICs, which is how
//!   the paper-scale (12,000-processor) experiments of Figures 1, 5, 9–13
//!   are regenerated.
//!
//! One level up the same split holds for a whole campaign: the pure state
//! machine in `supervisor.rs` makes every decision (cycle, attempt,
//! projected fault plan, restart / degrade / give up, commit / drain /
//! restore) once, [`run_campaign_ctx`] *executes* its actions and
//! [`model_campaign_adaptive`] *prices* them.
//!
//! The variants:
//!
//! * **L-EnKF** (`LEnkf`) — single reader: rank 0 reads members one by one
//!   and scatters expansion blocks (§6, the Keppenne-style baseline).
//! * **P-EnKF** (`PEnkf`) — block reading: all ranks read their own block
//!   of every file directly (Fig. 3), then analyze; phases strictly
//!   sequential. The state-of-the-art baseline the paper compares against.
//! * **S-EnKF** (`SEnkf`) — the paper's contribution: bar reading by
//!   dedicated I/O processors in `n_cg` concurrent groups (Figs. 6–7),
//!   multi-stage layered analysis overlapping I/O and communication with
//!   computation via helper threads (Fig. 8), parameters chosen by the
//!   auto-tuner (`enkf_tuning`).
//! * **D-EnKF** (`DEnkf`) — distributed-array non-sequential executor:
//!   every rank owns one full-width bar of the state, ranks all-to-all
//!   exchange observation-space blocks, and the whole network is
//!   assimilated in one batched covariance-form update whose `C⁻¹` kernel
//!   is selectable (dense Cholesky or the iterative Sherman-Morrison of
//!   arXiv 1302.3876).

#![deny(unreachable_pub)]
// ROADMAP carve-out (c): outside tests nothing in this crate may panic on a
// failure correct use can meet — every survivor is justified in place.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub(crate) mod campaign;
pub(crate) mod exec;
pub(crate) mod model;
pub mod program;
pub(crate) mod report;
pub(crate) mod supervisor;

pub use campaign::{
    run_campaign, run_campaign_ctx, BackoffClock, CampaignConfig, CampaignCtx, CampaignError,
    CampaignExecutor, CampaignReport, CkptMode, RecoveryEvent,
};
pub use exec::denkf::DEnkf;
pub use exec::lenkf::LEnkf;
pub use exec::penkf::PEnkf;
pub use exec::run_cycle;
pub use exec::senkf::SEnkf;
pub use exec::setup::AssimilationSetup;
pub use exec::writeback::parallel_write_back;
pub use model::campaign::{
    model_campaign, model_campaign_adaptive, CampaignModelOutcome, CampaignModelPlan,
};
pub use model::denkf::{model_denkf, model_denkf_traced};
pub use model::lenkf::{model_lenkf, model_lenkf_traced};
pub use model::penkf::{model_penkf, model_penkf_traced};
pub use model::senkf::{model_senkf, model_senkf_traced, SEnkfModelOptions};
pub use model::{model_cycle, ModelConfig, ModelOutcome};
pub use program::{CycleOp, Emitter, Geometry, ModelVariant};
pub use report::{ExecutionReport, PhaseBreakdown};
