//! Unified execution tracing across the real and modeled executors.
//!
//! Both execution paths of every variant emit the same span vocabulary —
//! reads (member, bytes, disk addressing operations), sends (destination,
//! bytes), local-analysis batches, waits — stamped with the rank, the rank's
//! role, the stage (layer) and a start/duration. The real executors stamp
//! wall time relative to a shared epoch ([`RankTracer`]); the modeled
//! executors stamp virtual DES time (`enkf_sim::Simulation::spans`).
//!
//! Because the *operations* are identical even though the *times* are not,
//! a [`Trace::digest`] — the deterministic, time-free multiset of operations
//! (count, total bytes, total seeks per rank/role/stage/kind/peer) — must be
//! byte-identical between a real run and a modeled run of the same
//! configuration. That digest is the conformance artifact checked by
//! `tests/trace_conformance.rs`.
//!
//! The trace is the **one record** of a run: every fact is written once, as
//! a span, where the decision is made, and everything else is a projection
//! of the spans —
//!
//! * **phases** — [`PhaseBreakdown`] (the Fig. 9 budget):
//!   [`Trace::per_rank_phases`] sums durations by operation kind and
//!   [`class_phases`] folds a span stream into the compute-rank and
//!   I/O-rank classes both executors report — a collected trace
//!   ([`Trace::class_phases`]) or a DES run's spans as they are generated
//!   (`enkf_sim::Simulation::spans`), which prices a modeled cycle without
//!   building its trace;
//! * **operation digest** — [`Trace::digest`], the sorted text digest above;
//! * **fault events** — [`Trace::fault_events`] / [`Trace::fault_digest`]:
//!   which attempt of which member read was failed by injection, backed
//!   off, rerouted (a cancelled marker) or cured by a retry,
//!   read off the [`FaultKind`] and attempt index the spans carry.
//!
//! [`Trace::write_chrome_json`] exports Chrome-trace (`chrome://tracing`,
//! Perfetto) JSON, one lane per rank.

#![deny(unreachable_pub)]
// ROADMAP carve-out (c): outside tests nothing in this crate may panic on a
// failure correct use can meet — every survivor is justified in place.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod json;

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a rank *is* in the variant's processor-role split (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// Owns a sub-domain and runs local analyses.
    Compute,
    /// Dedicated I/O processor (S-EnKF's `C₁` side).
    Io,
}

impl Role {
    /// Lower-case label used in digests and Chrome-trace args.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Role::Compute => "compute",
            Role::Io => "io",
        }
    }
}

/// The operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// A file-system read (bytes + disk addressing operations).
    Read,
    /// A file-system write.
    Write,
    /// A message transmission to `peer`.
    Send,
    /// A local-analysis batch.
    Compute,
    /// A dependency/receive/resource stall. Excluded from digests: wait
    /// placement is scheduling, not operation structure.
    Wait,
    /// An injected fault or a recovery action (failed read attempt, retry
    /// backoff). Included in digests — fault structure is operation
    /// structure, and the same plan must inject the same faults on both
    /// executors.
    Fault,
    /// A durable checkpoint write (a member file written and fsynced,
    /// committed by the checkpoint's manifest). Distinguished from `Write` so campaign
    /// digests separate assimilation I/O from durability I/O.
    Ckpt,
    /// A checkpoint read during recovery or resume.
    Restore,
    /// Supervisor recovery overhead: cycle teardown plus restart backoff.
    Recovery,
}

impl Op {
    /// Lower-case label used in digests and Chrome-trace event names.
    pub fn label(self) -> &'static str {
        match self {
            Op::Read => "read",
            Op::Write => "write",
            Op::Send => "send",
            Op::Compute => "compute",
            Op::Wait => "wait",
            Op::Fault => "fault",
            Op::Ckpt => "ckpt",
            Op::Restore => "restore",
            Op::Recovery => "recovery",
        }
    }
}

/// What a fault event is. The first three are the steps of a member read's
/// retry/reroute schedule that an [`Op::Fault`] span can cover (its
/// [`Span::fault`]); the last two exist only in the projection
/// ([`Trace::fault_events`]). Ordered so sorted event lists read naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// An injected read failure consumed an attempt.
    Injected,
    /// The retry policy paused before re-issuing.
    Backoff,
    /// The zero-duration marker of a read rerouted away from a blacklisted
    /// OST; it reads nothing.
    Cancelled,
    /// A read was served at a retry — a [`Op::Read`] span with a non-zero
    /// attempt.
    Recovered,
    /// Degraded mode dropped the member from the cycle (a run-level
    /// decision no rank owns; it comes from the report's dropout set).
    Dropped,
}

impl FaultKind {
    /// Lower-case label used in digests and Chrome-trace args.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FaultKind::Injected => "injected",
            FaultKind::Backoff => "backoff",
            FaultKind::Cancelled => "cancelled",
            FaultKind::Recovered => "recovered",
            FaultKind::Dropped => "dropped",
        }
    }
}

/// One recorded operation. Times are seconds — wall time since the cluster
/// epoch on the real path, virtual DES time on the modeled path.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Rank that performed the operation.
    pub rank: usize,
    /// The rank's role.
    pub role: Role,
    /// Stage (layer) index for multi-stage variants, `None` otherwise.
    pub stage: Option<usize>,
    /// Operation kind.
    pub op: Op,
    /// Start time, seconds.
    pub start: f64,
    /// Duration, seconds (non-negative).
    pub dur: f64,
    /// Bytes moved (reads, writes, sends); 0 otherwise.
    pub bytes: u64,
    /// Disk addressing operations issued (reads/writes); 0 otherwise.
    pub seeks: u64,
    /// Destination rank for sends.
    pub peer: Option<usize>,
    /// Ensemble member / file index for reads and writes.
    pub member: Option<usize>,
    /// Modeled resource index (OST, NIC) the operation held, if any.
    pub res: Option<usize>,
    /// Tenant that owns the campaign this span belongs to (multi-tenant
    /// scheduler runs; `None` for standalone executions). Excluded from
    /// digests so a scheduled campaign conforms span-for-span with the
    /// identical campaign run standalone — the isolation invariant.
    pub tenant: Option<u32>,
    /// Job id within the tenant, set together with `tenant`.
    pub job: Option<u32>,
    /// Which step of a read's retry/reroute schedule an [`Op::Fault`]
    /// span covers; `None` on every other span. Excluded from digests, like
    /// `attempt`: the digest counts the span either way.
    pub fault: Option<FaultKind>,
    /// Attempt index of the member read this span belongs to: the failed
    /// attempt of an injected failure, the attempt a backoff follows, the
    /// attempt that served a read (0 = first try, and on every span that is
    /// not part of a read).
    pub attempt: u32,
}

impl Span {
    /// The span of `op` on `rank`, described by `tag`, over
    /// `start .. start + dur`; no resource, tenant or job.
    pub fn new(rank: usize, role: Role, op: Op, start: f64, dur: f64, tag: OpTag) -> Span {
        Span {
            rank,
            role,
            stage: tag.stage,
            op,
            start,
            dur,
            bytes: tag.bytes,
            seeks: tag.seeks,
            peer: tag.peer,
            member: tag.member,
            res: None,
            tenant: None,
            job: None,
            fault: tag.fault,
            attempt: tag.attempt,
        }
    }
}

/// What an operation *is*, apart from when it ran: built once where the
/// operation is decided, then timed by a [`RankTracer`] or priced as a
/// modeled task (`enkf_sim::Task::with_op`), so both executors emit the same
/// spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTag {
    /// Role of the agent's rank (`None` → compute).
    pub io: bool,
    /// Stage (layer) index.
    pub stage: Option<usize>,
    /// Bytes moved.
    pub bytes: u64,
    /// Disk addressing operations.
    pub seeks: u64,
    /// Destination rank for sends.
    pub peer: Option<usize>,
    /// Member / file index.
    pub member: Option<usize>,
    /// Fault step, see [`Span::fault`].
    pub fault: Option<FaultKind>,
    /// Attempt index, see [`Span::attempt`].
    pub attempt: u32,
}

/// Wall/virtual time spent in each phase — span durations summed by kind,
/// the projection every phase report is. The first four categories are
/// exactly the stacked components of the paper's Figure 9 (`Write`,
/// checkpoint and restore durations count toward `read`: all are file I/O
/// in that accounting); `fault` is the time injected faults and their
/// recovery (failed attempts, retry backoffs) consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// File reading.
    pub read: f64,
    /// Data communication.
    pub comm: f64,
    /// Local analysis computation.
    pub compute: f64,
    /// Waiting (dependency stalls, resource queueing, blocked receives).
    pub wait: f64,
    /// Injected faults and recovery actions (zero on a fault-free run).
    pub fault: f64,
}

impl PhaseBreakdown {
    /// Project spans into the breakdown by summing durations per operation
    /// kind.
    pub fn from_spans<'a>(spans: impl IntoIterator<Item = &'a Span>) -> Self {
        let mut out = PhaseBreakdown::default();
        for s in spans {
            out.add(s);
        }
        out
    }

    /// Accumulate one span's duration into the matching slot.
    pub(crate) fn add(&mut self, span: &Span) {
        match span.op {
            // Checkpoint writes and restore reads are file I/O in the
            // paper's four-phase accounting, like `Write`.
            Op::Read | Op::Write | Op::Ckpt | Op::Restore => self.read += span.dur,
            Op::Send => self.comm += span.dur,
            Op::Compute => self.compute += span.dur,
            Op::Wait => self.wait += span.dur,
            Op::Fault | Op::Recovery => self.fault += span.dur,
        }
    }

    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.read + self.comm + self.compute + self.wait + self.fault
    }

    /// Elementwise accumulate.
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.read += other.read;
        self.comm += other.comm;
        self.compute += other.compute;
        self.wait += other.wait;
        self.fault += other.fault;
    }

    /// Multiply every phase by `factor` (e.g. `1/n` for a per-rank mean).
    pub fn scaled(&self, factor: f64) -> PhaseBreakdown {
        PhaseBreakdown {
            read: self.read * factor,
            comm: self.comm * factor,
            compute: self.compute * factor,
            wait: self.wait * factor,
            fault: self.fault * factor,
        }
    }
}

/// The class-phase fold of a span stream, `(compute, io, first_compute)`:
/// each rank's spans summed by [`PhaseBreakdown`] slot in stream order, the
/// per-rank sums merged in ascending rank order into the compute class
/// (ranks below `compute_ranks`) or the I/O class (the rest), and the
/// earliest [`Op::Compute`] start (infinite when there is none) — for a
/// cycle, the exposed read+comm prefix. The one accounting behind both the
/// real `ExecutionReport` ([`Trace::class_phases`]) and the modeled
/// `ModelOutcome`, which folds the DES's spans as they are generated.
pub fn class_phases<S: Borrow<Span>>(
    spans: impl IntoIterator<Item = S>,
    compute_ranks: usize,
) -> (PhaseBreakdown, PhaseBreakdown, f64) {
    // A run's rank ids are dense, so the per-rank sums are a table indexed
    // by rank. A rank no span names sums to +0.0 in every slot, and adding
    // +0.0 leaves a class sum unchanged (one that starts at +0.0 is never
    // −0.0), so the table folds exactly as a map of the named ranks would.
    let mut ranks: Vec<PhaseBreakdown> = Vec::with_capacity(compute_ranks);
    let mut first_compute = f64::INFINITY;
    for span in spans {
        let span = span.borrow();
        if span.rank >= ranks.len() {
            ranks.resize(span.rank + 1, PhaseBreakdown::default());
        }
        ranks[span.rank].add(span);
        if span.op == Op::Compute {
            first_compute = first_compute.min(span.start);
        }
    }
    let (mut compute, mut io) = (PhaseBreakdown::default(), PhaseBreakdown::default());
    for (rank, phases) in ranks.iter().enumerate() {
        if rank < compute_ranks {
            compute.merge(phases);
        } else {
            io.merge(phases);
        }
    }
    (compute, io, first_compute)
}

/// One entry of the fault-event projection ([`Trace::fault_events`]). The
/// derived `Ord` (rank, stage, member, attempt, kind) is the canonical sort
/// of [`Trace::fault_digest`], so the multi-threaded real run and the
/// single-threaded model construction digest alike for the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Rank the event occurred on (`None` for the run-level dropout
    /// decision, which no single rank owns).
    pub rank: Option<usize>,
    /// Stage (layer) for multi-stage variants.
    pub stage: Option<usize>,
    /// Ensemble member involved.
    pub member: Option<usize>,
    /// Attempt index ([`Span::attempt`]); `None` for a dropout.
    pub attempt: Option<u32>,
    /// What happened.
    pub kind: FaultKind,
}

/// Checkpoint durability time split by whether it was hidden behind
/// concurrent campaign work. Produced by [`Trace::ckpt_overlap`].
///
/// A synchronous campaign commits checkpoints on the critical path, so
/// its [`Op::Ckpt`] spans overlap nothing and every second is *exposed* —
/// the campaign is that much longer than it would be with free
/// durability. A pipelined campaign writes checkpoints from a background
/// thread while the next cycle computes; the seconds of a `Ckpt` span
/// that coincide with other work are *hidden* (they cost OST bandwidth
/// but no wall time). The split works on both timelines — wall clock for
/// real traces, virtual time for DES traces — because overlap is a pure
/// interval computation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CkptOverlap {
    /// Total [`Op::Ckpt`] span seconds.
    pub total: f64,
    /// Seconds coinciding with non-checkpoint, non-wait work.
    pub hidden: f64,
    /// Seconds during which the checkpoint write was the only work.
    pub exposed: f64,
}

/// A completed execution's spans, with a label naming the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    label: String,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace with the given label (used in exporter file names).
    pub fn new(label: impl Into<String>) -> Self {
        Trace {
            label: label.into(),
            spans: Vec::new(),
        }
    }

    /// The run label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Rename the trace (exporter file names derive from the label, so
    /// callers writing several runs disambiguate them here).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record one span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Make room for `additional` more spans, so a producer that knows its
    /// span count fills the trace without regrowing it.
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
    }

    /// Record many spans (e.g. one rank's collected output, merged in rank
    /// order for determinism).
    pub fn extend(&mut self, spans: impl IntoIterator<Item = Span>) {
        self.spans.extend(spans);
    }

    /// Stamp every span with the owning tenant and job — the multi-tenant
    /// scheduler calls this once per campaign so merged fleet traces stay
    /// attributable. Tags are carried into Chrome-trace `args` but excluded
    /// from [`Trace::digest`], preserving the isolation invariant (a
    /// scheduled campaign's digest equals its standalone digest).
    pub fn tag_tenant(&mut self, tenant: u32, job: u32) {
        for s in &mut self.spans {
            s.tenant = Some(tenant);
            s.job = Some(job);
        }
    }

    /// Per-rank phase totals. Ranks are keyed by id; absent ranks recorded
    /// nothing.
    pub fn per_rank_phases(&self) -> BTreeMap<usize, PhaseBreakdown> {
        let mut out: BTreeMap<usize, PhaseBreakdown> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.rank).or_default().add(s);
        }
        out
    }

    /// Phase totals of the two rank classes, `(compute, io)`: ranks below
    /// `compute_ranks` are compute ranks, the rest dedicated I/O ranks —
    /// [`class_phases`] over the spans, a deterministic function of them.
    pub fn class_phases(&self, compute_ranks: usize) -> (PhaseBreakdown, PhaseBreakdown) {
        let (compute, io, _) = class_phases(&self.spans, compute_ranks);
        (compute, io)
    }

    /// The fault events of the run, in span order: every [`Op::Fault`] span
    /// is the event its [`Span::fault`] names, every [`Op::Read`] span with a
    /// non-zero attempt a [`FaultKind::Recovered`] (a genuine, unplanned I/O
    /// error cured by a later attempt reads the same), and every member of
    /// `dropped` — the dropout set the run's report carries — a
    /// [`FaultKind::Dropped`].
    pub fn fault_events(&self, dropped: &[usize]) -> Vec<FaultEvent> {
        let of_span = |s: &Span| {
            let kind = match s.op {
                Op::Fault => s.fault?,
                Op::Read if s.attempt > 0 => FaultKind::Recovered,
                _ => return None,
            };
            Some(FaultEvent {
                rank: Some(s.rank),
                stage: s.stage,
                member: s.member,
                attempt: Some(s.attempt),
                kind,
            })
        };
        let dropout = dropped.iter().map(|&member| FaultEvent {
            rank: None,
            stage: None,
            member: Some(member),
            attempt: None,
            kind: FaultKind::Dropped,
        });
        self.spans
            .iter()
            .filter_map(of_span)
            .chain(dropout)
            .collect()
    }

    /// The canonical fault digest: [`Trace::fault_events`] sorted by (rank,
    /// stage, member, attempt, kind), one text line each. Sorting removes
    /// the thread interleaving of real runs while preserving each read's
    /// program order, so real-vs-model comparison is a string equality.
    pub fn fault_digest(&self, dropped: &[usize]) -> String {
        let mut events = self.fault_events(dropped);
        events.sort_unstable();
        let opt = |v: Option<usize>| v.map_or("-".to_string(), |x| x.to_string());
        let mut out = String::new();
        for e in events {
            // Writing to a `String` cannot fail.
            let _ = writeln!(
                out,
                "rank={} stage={} member={} attempt={} event={}",
                opt(e.rank),
                opt(e.stage),
                opt(e.member),
                opt(e.attempt.map(|a| a as usize)),
                e.kind.label()
            );
        }
        out
    }

    /// Split checkpoint time into hidden and exposed seconds: for every
    /// [`Op::Ckpt`] span, the portion of its interval covered by the
    /// union of all non-checkpoint, non-wait spans (any rank) is hidden;
    /// the rest is exposed. Wait spans do not hide anything — a rank
    /// blocked on the checkpoint writer is precisely the cost this
    /// accounting exists to surface.
    pub fn ckpt_overlap(&self) -> CkptOverlap {
        // Merge the non-checkpoint busy intervals once, then intersect
        // each checkpoint span against the sorted merged set.
        let mut busy: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| !matches!(s.op, Op::Ckpt | Op::Wait) && s.dur > 0.0)
            .map(|s| (s.start, s.start + s.dur))
            .collect();
        busy.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(busy.len());
        for (a, b) in busy {
            match merged.last_mut() {
                Some((_, end)) if a <= *end => *end = end.max(b),
                _ => merged.push((a, b)),
            }
        }
        let mut out = CkptOverlap::default();
        for s in self.spans.iter().filter(|s| s.op == Op::Ckpt) {
            let (a, b) = (s.start, s.start + s.dur);
            // First merged interval that could reach `a`.
            let from = merged.partition_point(|&(_, end)| end <= a);
            let hidden: f64 = merged[from..]
                .iter()
                .take_while(|&&(start, _)| start < b)
                .map(|&(x, y)| (y.min(b) - x.max(a)).max(0.0))
                .sum();
            out.total += s.dur;
            out.hidden += hidden;
            out.exposed += (s.dur - hidden).max(0.0);
        }
        out
    }

    /// Total disk addressing operations across all file-I/O spans.
    pub fn total_seeks(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| matches!(s.op, Op::Read | Op::Write | Op::Ckpt | Op::Restore))
            .map(|s| s.seeks)
            .sum()
    }

    /// The deterministic, time-free operation digest: one sorted line per
    /// `(rank, role, stage, op, peer)` group with the group's count, total
    /// bytes and total seeks. Wait spans are excluded (their placement is
    /// scheduling, not operation structure), as are all durations — so a
    /// real run and a modeled run of the same configuration produce
    /// byte-identical digests. Fault kinds and attempt indices are not in
    /// it either: the spans carrying them are counted regardless, and
    /// [`Trace::fault_digest`] is their own digest.
    pub fn digest(&self) -> String {
        type Key = (usize, Role, i64, Op, i64);
        let mut groups: BTreeMap<Key, (u64, u64, u64)> = BTreeMap::new();
        let opt = |v: Option<usize>| v.map_or(-1, |x| x as i64);
        for s in &self.spans {
            if s.op == Op::Wait {
                continue;
            }
            let key = (s.rank, s.role, opt(s.stage), s.op, opt(s.peer));
            let g = groups.entry(key).or_insert((0, 0, 0));
            g.0 += 1;
            g.1 += s.bytes;
            g.2 += s.seeks;
        }
        let fmt_opt = |v: i64| {
            if v < 0 {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        let mut out = String::new();
        for ((rank, role, stage, op, peer), (count, bytes, seeks)) in groups {
            // Writing to a `String` cannot fail.
            let _ = writeln!(
                out,
                "rank={rank} role={} stage={} op={} peer={} count={count} bytes={bytes} seeks={seeks}",
                role.label(),
                fmt_opt(stage),
                op.label(),
                fmt_opt(peer),
            );
        }
        out
    }

    /// Serialize as Chrome-trace JSON (`chrome://tracing` / Perfetto):
    /// complete (`"ph":"X"`) events in microseconds, one lane (`tid`) per
    /// rank, with bytes/seeks/stage in `args`.
    pub fn to_chrome_json(&self) -> String {
        // Every `write!` below targets a `String`, which cannot fail.
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = match s.stage {
                Some(l) => format!("{} L{l}", s.op.label()),
                None => s.op.label().to_string(),
            };
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"role\":\"{}\",\"bytes\":{},\"seeks\":{}",
                s.role.label(),
                fmt_json_f64(s.start * 1e6),
                fmt_json_f64(s.dur * 1e6),
                s.rank,
                s.role.label(),
                s.bytes,
                s.seeks,
            );
            if let Some(l) = s.stage {
                let _ = write!(out, ",\"stage\":{l}");
            }
            if let Some(p) = s.peer {
                let _ = write!(out, ",\"peer\":{p}");
            }
            if let Some(m) = s.member {
                let _ = write!(out, ",\"member\":{m}");
            }
            if let Some(r) = s.res {
                let _ = write!(out, ",\"res\":{r}");
            }
            if let (Some(t), Some(j)) = (s.tenant, s.job) {
                let _ = write!(out, ",\"tenant\":{t},\"job\":{j}");
            }
            if let Some(kind) = s.fault {
                let _ = write!(out, ",\"fault\":\"{}\"", kind.label());
            }
            if s.attempt > 0 {
                let _ = write!(out, ",\"attempt\":{}", s.attempt);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Write the Chrome-trace JSON as `<dir>/<label>.json`, creating the
    /// directory if needed; returns the path written.
    pub fn write_chrome_json(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir.as_ref())?;
        let path = dir.as_ref().join(format!("{}.json", self.label));
        std::fs::write(&path, self.to_chrome_json())?;
        Ok(path)
    }
}

/// Shortest-roundtrip decimal for finite `f64` (Rust's `Display` never emits
/// `inf`/`NaN`-style tokens for the finite values traces hold).
fn fmt_json_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "trace times must be finite");
    format!("{v}")
}

/// Per-rank wall-clock span recorder for the real executors. All ranks of
/// one run share an epoch `Instant` so their spans lie on a common timeline.
#[derive(Debug)]
pub struct RankTracer {
    rank: usize,
    role: Role,
    epoch: Instant,
    spans: Vec<Span>,
}

impl RankTracer {
    /// A recorder for `rank`, starting as a compute rank.
    pub fn new(rank: usize, epoch: Instant) -> Self {
        RankTracer {
            rank,
            role: Role::Compute,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Reclassify this rank (an S-EnKF rank learns it is an I/O rank from
    /// its position).
    pub fn set_role(&mut self, role: Role) {
        self.role = role;
    }

    /// A second recorder for the *same* rank on the *same* epoch, for work
    /// the rank offloads to a sibling thread (e.g. the read-ahead prefetch
    /// thread). The fork starts empty; when the sibling finishes, merge its
    /// spans back with [`RankTracer::absorb`]. Digests are order-free
    /// multisets, so the interleaving of forked and main spans is
    /// irrelevant to conformance.
    pub fn fork(&self) -> RankTracer {
        RankTracer {
            rank: self.rank,
            role: self.role,
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// Merge a forked recorder's spans into this one (appended after the
    /// spans already recorded; per-rank span order is not chronological
    /// across threads, which no consumer relies on).
    pub fn absorb(&mut self, fork: RankTracer) {
        debug_assert_eq!(fork.rank, self.rank, "absorb crosses ranks");
        self.spans.extend(fork.spans);
    }

    /// Time `f` as one span of `op` described by `tag` — for callers that
    /// build the tag themselves (the member-read schedule of `enkf-pfs`);
    /// the methods below fill it in for the common operations.
    pub fn record<T>(&mut self, op: Op, tag: OpTag, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_secs_f64();
        let start = t0.duration_since(self.epoch).as_secs_f64();
        self.spans
            .push(Span::new(self.rank, self.role, op, start, dur, tag));
        out
    }

    /// Time a message transmission of `bytes` bytes to `peer`.
    pub fn send<T>(
        &mut self,
        stage: Option<usize>,
        peer: usize,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let tag = OpTag {
            stage,
            bytes,
            peer: Some(peer),
            ..OpTag::default()
        };
        self.record(Op::Send, tag, f)
    }

    /// Time a local-analysis batch.
    pub fn compute<T>(&mut self, stage: Option<usize>, f: impl FnOnce() -> T) -> T {
        self.record(
            Op::Compute,
            OpTag {
                stage,
                ..OpTag::default()
            },
            f,
        )
    }

    /// Time a durable checkpoint write of one member file.
    pub fn ckpt<T>(
        &mut self,
        member: Option<usize>,
        bytes: u64,
        seeks: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let tag = OpTag {
            io: true,
            bytes,
            seeks,
            member,
            ..OpTag::default()
        };
        self.record(Op::Ckpt, tag, f)
    }

    /// Time a checkpoint read performed during recovery or resume.
    pub fn restore<T>(
        &mut self,
        member: Option<usize>,
        bytes: u64,
        seeks: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let tag = OpTag {
            io: true,
            bytes,
            seeks,
            member,
            ..OpTag::default()
        };
        self.record(Op::Restore, tag, f)
    }

    /// Time supervisor recovery overhead (cycle teardown + restart backoff).
    pub fn recovery<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.record(Op::Recovery, OpTag::default(), f)
    }

    /// Time a blocking wait (receive, join).
    pub fn wait<T>(&mut self, stage: Option<usize>, f: impl FnOnce() -> T) -> T {
        self.record(
            Op::Wait,
            OpTag {
                stage,
                ..OpTag::default()
            },
            f,
        )
    }

    /// Consume the recorder, yielding its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: usize, op: Op, stage: Option<usize>, bytes: u64, seeks: u64) -> Span {
        let tag = OpTag {
            stage,
            bytes,
            seeks,
            ..OpTag::default()
        };
        Span::new(rank, Role::Compute, op, 0.5, 0.25, tag)
    }

    #[test]
    fn digest_is_order_independent_and_excludes_waits() {
        let mut a = Trace::new("a");
        a.push(span(0, Op::Read, Some(1), 64, 2));
        a.push(span(0, Op::Read, Some(1), 64, 2));
        a.push(span(1, Op::Compute, None, 0, 0));
        a.push(span(0, Op::Wait, Some(1), 0, 0));
        let mut b = Trace::new("b");
        b.push(span(1, Op::Compute, None, 0, 0));
        b.push(span(0, Op::Read, Some(1), 64, 2));
        b.push(span(0, Op::Read, Some(1), 64, 2));
        assert_eq!(
            a.digest(),
            b.digest(),
            "sorted aggregation ignores order and waits"
        );
        assert!(a.digest().contains("count=2 bytes=128 seeks=4"));
        assert!(!a.digest().contains("wait"));
    }

    #[test]
    fn digest_distinguishes_peers() {
        let mut a = Trace::new("a");
        let mut s = span(0, Op::Send, None, 10, 0);
        s.peer = Some(1);
        a.push(s.clone());
        let mut b = Trace::new("b");
        s.peer = Some(2);
        b.push(s);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn phases_project_spans_by_kind() {
        let mut t = Trace::new("t");
        t.push(span(0, Op::Read, None, 8, 1));
        t.push(span(0, Op::Compute, None, 0, 0));
        t.push(span(0, Op::Wait, None, 0, 0));
        let phases = t.per_rank_phases();
        let p = phases[&0];
        assert_eq!(p.read, 0.25);
        assert_eq!(p.compute, 0.25);
        assert_eq!(p.wait, 0.25);
        assert_eq!(p.comm, 0.0);
        assert_eq!(p.total(), 0.75);
    }

    #[test]
    fn totals_and_merge() {
        let mut a = PhaseBreakdown {
            read: 1.0,
            comm: 2.0,
            compute: 3.0,
            wait: 4.0,
            fault: 0.0,
        };
        assert_eq!(a.total(), 10.0);
        a.merge(&PhaseBreakdown {
            read: 0.5,
            comm: 0.5,
            compute: 0.5,
            wait: 0.5,
            fault: 0.25,
        });
        assert_eq!(a.total(), 12.25);
        assert_eq!(a.read, 1.5);
        assert_eq!(a.fault, 0.25);
    }

    #[test]
    fn fault_spans_enter_digest_and_fault_phase() {
        let mut t = Trace::new("f");
        t.push(span(0, Op::Fault, Some(1), 64, 2));
        t.push(span(0, Op::Read, Some(1), 64, 2));
        let d = t.digest();
        assert!(d.contains("op=fault"), "faults are operation structure");
        let p = t.per_rank_phases()[&0];
        assert_eq!(p.fault, 0.25);
        assert_eq!(p.read, 0.25);
        assert_eq!(p.total(), 0.5);
        // A trace with the fault missing digests differently.
        let mut clean = Trace::new("c");
        clean.push(span(0, Op::Read, Some(1), 64, 2));
        assert_ne!(d, clean.digest());
    }

    #[test]
    fn tracer_fault_spans_carry_member_and_cost() {
        let mut tr = RankTracer::new(2, Instant::now());
        let injected = OpTag {
            stage: Some(0),
            member: Some(4),
            bytes: 128,
            seeks: 3,
            fault: Some(FaultKind::Injected),
            ..OpTag::default()
        };
        tr.record(Op::Fault, injected, || ());
        let backoff = OpTag {
            bytes: 0,
            seeks: 0,
            fault: Some(FaultKind::Backoff),
            ..injected
        };
        tr.record(Op::Fault, backoff, || ());
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].op, Op::Fault);
        assert_eq!(spans[0].member, Some(4));
        assert_eq!(spans[0].bytes, 128);
        assert_eq!(spans[0].seeks, 3);
        assert_eq!(spans[0].fault, Some(FaultKind::Injected));
        assert_eq!(spans[1].bytes, 0, "backoff spans move no bytes");
        assert_eq!(spans[1].fault, Some(FaultKind::Backoff));
    }

    /// The events of one faulted read (member `member`, `rank`) as spans:
    /// `fails` injected attempts, each followed by a backoff, then the read.
    fn faulted_read(rank: usize, stage: Option<usize>, member: usize, fails: u32) -> Vec<Span> {
        let tag = |fault, attempt| OpTag {
            stage,
            member: Some(member),
            fault,
            attempt,
            ..OpTag::default()
        };
        let fault = |kind, attempt| {
            Span::new(
                rank,
                Role::Compute,
                Op::Fault,
                0.0,
                0.0,
                tag(Some(kind), attempt),
            )
        };
        let mut spans = Vec::new();
        for attempt in 0..fails {
            spans.push(fault(FaultKind::Injected, attempt));
            spans.push(fault(FaultKind::Backoff, attempt));
        }
        spans.push(Span::new(
            rank,
            Role::Compute,
            Op::Read,
            0.0,
            0.0,
            tag(None, fails),
        ));
        spans
    }

    #[test]
    fn fault_digest_is_span_order_independent() {
        let mut a = Trace::new("a");
        a.extend(faulted_read(0, Some(1), 3, 1));
        let mut b = Trace::new("b");
        b.extend(faulted_read(0, Some(1), 3, 1).into_iter().rev());
        assert_eq!(a.fault_digest(&[5]), b.fault_digest(&[5]));
        let digest = a.fault_digest(&[5]);
        assert!(digest.contains("attempt=0 event=injected"));
        assert!(digest.contains("attempt=0 event=backoff"));
        assert!(digest.contains("attempt=1 event=recovered"));
        assert!(digest.contains("rank=- stage=- member=5 attempt=- event=dropped"));
        assert_eq!(a.fault_events(&[5]).len(), 4);
        // The operation digest does not see kinds or attempts: stripping
        // them leaves it unchanged.
        let mut stripped = Trace::new("s");
        stripped.extend(a.spans().iter().map(|s| Span {
            fault: None,
            attempt: 0,
            ..s.clone()
        }));
        assert_eq!(a.digest(), stripped.digest());
        assert_eq!(
            stripped.fault_digest(&[]),
            "",
            "an untagged trace projects nothing"
        );
    }

    #[test]
    fn fault_digest_distinguishes_members_and_attempts() {
        let digest = |member, fails| {
            let mut t = Trace::new("t");
            t.extend(faulted_read(0, None, member, fails));
            t.fault_digest(&[])
        };
        assert_ne!(digest(1, 1), digest(2, 1));
        assert_ne!(digest(1, 1), digest(1, 2));
        assert_eq!(digest(1, 0), "", "a first-try read is no event");
    }

    #[test]
    fn class_phases_fold_ranks_by_class() {
        let mut t = Trace::new("classes");
        t.push(span(0, Op::Compute, None, 0, 0));
        t.push(span(1, Op::Compute, None, 0, 0));
        t.push(span(2, Op::Read, None, 8, 1));
        t.push(span(2, Op::Wait, None, 0, 0));
        let (compute, io) = t.class_phases(2);
        assert_eq!(compute.compute, 0.5);
        assert_eq!(compute.read, 0.0);
        assert_eq!(io.read, 0.25);
        assert_eq!(io.wait, 0.25);
        assert_eq!(class_phases(t.spans(), 2).2, 0.5, "earliest compute start");
        assert_eq!(
            class_phases(t.spans().iter().filter(|s| s.op != Op::Compute), 2).2,
            f64::INFINITY,
            "no compute span, no start"
        );
    }

    /// The fold on rank ids with gaps, a rank beyond the I/O ranks' block
    /// and an empty stream: every class sum equals the sum, in rank order,
    /// of the per-rank map's entries, bit for bit — whatever table holds
    /// the per-rank sums.
    #[test]
    fn class_phases_fold_sparse_ranks_like_the_per_rank_map() {
        let mut t = Trace::new("sparse");
        // Durations whose sums round, so the association order shows in the
        // bits: every rank computes (0.1, 0.2, 0.3, 0.4 summed in ascending
        // rank order differ from any other order), rank 7 reads 0.1, 0.2,
        // 0.3 in stream order.
        let spans = [
            (7, Op::Read, 0.1, 0.1),
            (0, Op::Compute, 2.5, 0.1),
            (3, Op::Send, 0.2, 1e-17),
            (7, Op::Wait, 0.0, 0.1),
            (12, Op::Compute, 3.0, 0.4),
            (3, Op::Compute, 0.75, 0.2),
            (7, Op::Read, 0.4, 0.2),
            (12, Op::Fault, 0.4, 0.3),
            (0, Op::Wait, 0.0, 1e-17),
            (7, Op::Compute, 1.0, 0.3),
            (3, Op::Send, 0.3, 0.2),
            (7, Op::Read, 0.6, 0.3),
        ];
        for (rank, op, start, dur) in spans {
            t.push(Span {
                start,
                dur,
                ..span(rank, op, None, 0, 0)
            });
        }
        let bits =
            |p: &PhaseBreakdown| [p.read, p.comm, p.compute, p.wait, p.fault].map(f64::to_bits);
        let per_rank = t.per_rank_phases();
        // Compute ranks {0, 3}; 7 and 12 are past the compute block.
        for compute_ranks in [0, 1, 4, 8, 13, 100] {
            let mut expected = (PhaseBreakdown::default(), PhaseBreakdown::default());
            for (&rank, phases) in &per_rank {
                if rank < compute_ranks {
                    expected.0.merge(phases);
                } else {
                    expected.1.merge(phases);
                }
            }
            let (compute, io, first) = class_phases(t.spans(), compute_ranks);
            assert_eq!(
                bits(&compute),
                bits(&expected.0),
                "compute, {compute_ranks}"
            );
            assert_eq!(bits(&io), bits(&expected.1), "io, {compute_ranks}");
            assert_eq!(first, 0.75);
            assert_eq!(t.class_phases(compute_ranks), (compute, io));
        }
        let empty = class_phases(Trace::new("empty").spans(), 3);
        assert_eq!(empty.0, PhaseBreakdown::default());
        assert_eq!(empty.1, PhaseBreakdown::default());
        assert_eq!(empty.2, f64::INFINITY);
        for p in [empty.0, empty.1] {
            assert!(bits(&p).iter().all(|&b| b == 0), "+0.0, not -0.0");
        }
    }

    #[test]
    fn durability_ops_project_and_digest() {
        let mut t = Trace::new("d");
        t.push(span(0, Op::Ckpt, None, 512, 1));
        t.push(span(0, Op::Restore, None, 512, 1));
        t.push(span(0, Op::Recovery, None, 0, 0));
        let d = t.digest();
        assert!(d.contains("op=ckpt"));
        assert!(d.contains("op=restore"));
        assert!(d.contains("op=recovery"));
        let p = t.per_rank_phases()[&0];
        assert_eq!(p.read, 0.5, "ckpt + restore are file I/O");
        assert_eq!(p.fault, 0.25, "recovery overhead counts as fault time");
        assert_eq!(t.total_seeks(), 2);

        let mut tr = RankTracer::new(9, Instant::now());
        tr.set_role(Role::Io);
        tr.ckpt(Some(3), 256, 1, || ());
        tr.restore(Some(3), 256, 1, || ());
        tr.recovery(|| ());
        let spans = tr.into_spans();
        assert_eq!(spans[0].op, Op::Ckpt);
        assert_eq!(spans[0].member, Some(3));
        assert_eq!(spans[1].op, Op::Restore);
        assert_eq!(spans[2].op, Op::Recovery);
        assert_eq!(spans[2].bytes, 0);
    }

    fn timed(rank: usize, op: Op, start: f64, dur: f64) -> Span {
        let mut s = span(rank, op, None, 0, 0);
        s.start = start;
        s.dur = dur;
        s
    }

    #[test]
    fn ckpt_overlap_splits_hidden_and_exposed_time() {
        let mut t = Trace::new("overlap");
        // Cycle work on ranks 0–1 covering [0, 10] with a gap at [4, 6].
        t.push(timed(0, Op::Read, 0.0, 4.0));
        t.push(timed(1, Op::Compute, 6.0, 4.0));
        // A pipelined checkpoint on the supervisor rank at [2, 8]: hidden
        // under the read for [2, 4] and the compute for [6, 8], exposed in
        // the gap [4, 6].
        t.push(timed(2, Op::Ckpt, 2.0, 6.0));
        let o = t.ckpt_overlap();
        assert!((o.total - 6.0).abs() < 1e-12);
        assert!((o.hidden - 4.0).abs() < 1e-12, "hidden {}", o.hidden);
        assert!((o.exposed - 2.0).abs() < 1e-12, "exposed {}", o.exposed);
    }

    #[test]
    fn ckpt_overlap_synchronous_commits_are_fully_exposed() {
        let mut t = Trace::new("sync");
        // The synchronous schedule: cycle, then checkpoint, then cycle —
        // no concurrency, every checkpoint second is exposed.
        t.push(timed(0, Op::Compute, 0.0, 5.0));
        t.push(timed(3, Op::Ckpt, 5.0, 2.0));
        t.push(timed(0, Op::Compute, 7.0, 5.0));
        let o = t.ckpt_overlap();
        assert!((o.exposed - 2.0).abs() < 1e-12);
        assert_eq!(o.hidden, 0.0);
        // Empty trace: all-zero split.
        let empty = Trace::new("none").ckpt_overlap();
        assert_eq!(empty, CkptOverlap::default());
    }

    #[test]
    fn ckpt_overlap_ignores_waits_and_other_ckpt_spans() {
        let mut t = Trace::new("waits");
        // A rank blocked on the writer does not hide the write; neither
        // does another checkpoint span running concurrently.
        t.push(timed(0, Op::Wait, 0.0, 10.0));
        t.push(timed(3, Op::Ckpt, 1.0, 3.0));
        t.push(timed(3, Op::Ckpt, 2.0, 3.0));
        let o = t.ckpt_overlap();
        assert!((o.total - 6.0).abs() < 1e-12);
        assert_eq!(o.hidden, 0.0, "waits and sibling ckpts hide nothing");
        assert!((o.exposed - 6.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_parses_and_roundtrips_times() {
        let mut t = Trace::new("roundtrip");
        let mut s = span(3, Op::Send, Some(2), 1024, 0);
        s.peer = Some(7);
        s.start = 0.001234567891;
        s.dur = 0.000000789;
        t.push(s);
        let doc = json::parse(&t.to_chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events array");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("tid").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
        let dur_s = e.get("dur").and_then(|v| v.as_f64()).unwrap() / 1e6;
        assert!((dur_s - 0.000000789).abs() < 1e-12);
        let args = e.get("args").expect("args");
        assert_eq!(args.get("peer").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(args.get("bytes").and_then(|v| v.as_f64()), Some(1024.0));
    }

    #[test]
    fn chrome_json_of_a_large_trace_parses_in_linear_time() {
        // 50 000 spans (≈6 MB): minutes through the former quadratic string
        // scan, well under a second now.
        let mut t = Trace::new("large");
        for i in 0..50_000 {
            let mut s = span(i % 64, Op::Read, Some(i % 7), 4096, 2);
            s.member = Some(i % 120);
            s.start = i as f64 * 1e-3;
            t.push(s);
        }
        let t0 = Instant::now();
        let doc = json::parse(&t.to_chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 50_000);
        let last = events[49_999].get("args").unwrap();
        assert_eq!(last.get("member").and_then(|v| v.as_f64()), Some(79.0));
        assert!(
            t0.elapsed().as_secs_f64() < 30.0,
            "parse took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn tracer_records_wall_spans_on_a_shared_epoch() {
        let epoch = Instant::now();
        let mut tr = RankTracer::new(5, epoch);
        tr.set_role(Role::Io);
        let read = OpTag {
            stage: Some(0),
            member: Some(2),
            bytes: 100,
            seeks: 3,
            ..OpTag::default()
        };
        let v = tr.record(Op::Read, read, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            17
        });
        assert_eq!(v, 17);
        tr.compute(Some(0), || ());
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].role, Role::Io);
        assert_eq!(spans[0].member, Some(2));
        assert!(
            spans[0].dur >= 0.002,
            "slept 2ms, recorded {}",
            spans[0].dur
        );
        assert!(
            spans[1].start >= spans[0].start + spans[0].dur - 1e-9,
            "ordered on one rank"
        );
    }
}
