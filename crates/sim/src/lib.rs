//! A discrete-event simulation (DES) engine for modeling parallel EnKF runs
//! at scales (12,000 ranks) far beyond what can be executed as real threads.
//!
//! ## Model
//!
//! A simulated workload is a DAG of [`Task`]s. Each task
//!
//! * belongs to an **agent** — a serial execution context (a rank's main
//!   thread, a rank's helper thread, an I/O processor). Tasks of one agent
//!   run in insertion (program) order: the engine adds an implicit
//!   dependency on the agent's previous task.
//! * may name **resources** — contention points with finite capacity (an
//!   OST of the parallel file system, a NIC). A task acquires its resources
//!   in ascending id order (deadlock-free) with FIFO queueing per resource,
//!   holds them for its service time, then releases them all.
//! * has a **service time** (virtual seconds once all resources are held)
//!   and a [`Kind`] naming its phase (read / communication / computation),
//!   the quantities plotted in the paper's Figures 1, 9 and 11.
//!
//! The engine is deterministic: ties in the event queue are broken by
//! insertion sequence.
//!
//! ## Flat storage
//!
//! A paper-scale cycle is ~400k tasks, so a graph lives in a few flat
//! arrays rather than in per-task vectors, sized to keep the run's working
//! set small: one 40-byte record per task (`f64` service, ready and start
//! times; `u32` agent, acquisition cursor and the end of the task's range
//! in one sorted, deduplicated `u32` resource list, whose start is the
//! previous task's end; kind and state), the [`enkf_trace::OpTag`]s beside
//! them packed from 72 to 40 bytes (stage, peer and member as `u32` with a
//! none-sentinel — a larger index is [`engine::SimError::TagIndex`]), and
//! the dependency edges appended in insertion order. No finish time is
//! stored: a task's finish event is pushed as `now + service` at the `now`
//! it started, so its finish is `start + service`, bit for bit.
//! [`Simulation::add_task_parts`] records a task from borrowed resources
//! and dependencies, so a caller adds one without allocating
//! ([`Simulation::add_task`] is the same body behind the [`Task`]
//! builder). [`Simulation::run`] rebuilds the dependents from the edges as
//! a CSR table (`u32` offsets) by a stable counting sort, so every list is
//! in ascending task order, and recomputes every counter — the dependency
//! counters in a dense `u32` array of their own, the one field the run
//! touches once per edge — so a second run repeats the first.
//! [`Simulation::clear`] forgets a graph but keeps the buffers: a
//! simulation reused graph after graph retains the capacity of the
//! largest one and stops allocating. `enkf-parallel` prices every cycle in
//! one such simulation per thread. Nothing per span is stored: a run's
//! spans are generated from the records on request.
//!
//! ## One record
//!
//! A run returns only what no span can say — [`SimReport`]: makespan and
//! task count. Everything per agent is read off
//! [`Simulation::spans`](engine::Simulation::spans), the execution as a
//! stream of `enkf_trace` spans in virtual time — the same vocabulary the
//! real executors record in wall time. An outcome is a fold of that
//! stream (`enkf_trace::class_phases`); the trace
//! ([`Simulation::export_trace`](engine::Simulation::export_trace)) is
//! that stream collected. Busy time by kind is the span durations by
//! operation; the *wait* time of Figure 9 (from the moment a task's
//! dependencies finish until its service starts — dependency stalls plus
//! resource queueing) is the wait spans; and real-vs-modeled operation
//! structure compares digest-for-digest.

#![deny(unreachable_pub)]
// ROADMAP carve-out (c): outside tests nothing in this crate may panic on a
// failure correct use can meet — every survivor is justified in place.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod engine;
pub(crate) mod report;
pub(crate) mod task;

pub use engine::Simulation;
pub use report::SimReport;
pub use task::{AgentId, Kind, ResourceId, Task, TaskId};
