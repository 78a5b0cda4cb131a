//! The discrete-event scheduler.

use crate::report::SimReport;
use crate::task::{AgentId, Kind, ResourceId, Task, TaskId};
use enkf_trace::{FaultKind, Op, OpTag, Role, Span, Trace};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Errors from running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The task graph never ran some tasks (dependency cycle or a
    /// dependency on a task id that was never satisfiable).
    Stuck {
        /// Number of tasks that never started.
        unfinished: usize,
    },
    /// A task named a resource id that was never registered.
    UnknownResource(ResourceId),
    /// A task named a dependency id that does not exist (forward edges are
    /// not allowed: dependencies must be created before dependents).
    UnknownDependency(TaskId),
    /// A service time was negative or non-finite.
    BadService(TaskId),
    /// A task's [`OpTag`] names a stage, peer or member index of
    /// `u32::MAX` or more, which its stored record cannot hold.
    TagIndex(TaskId),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stuck { unfinished } => {
                write!(f, "simulation stuck: {unfinished} tasks never ran (cycle?)")
            }
            SimError::UnknownResource(r) => write!(f, "unknown resource id {:?}", r),
            SimError::UnknownDependency(t) => write!(f, "unknown dependency task id {t}"),
            SimError::BadService(t) => write!(f, "task {t} has a negative/non-finite service time"),
            SimError::TagIndex(t) => {
                write!(
                    f,
                    "task {t}'s tag has a stage, peer or member index beyond u32"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    WaitingDeps,
    Acquiring,
    Running,
    Done,
}

/// One task's compact record, 40 bytes. Its resources are
/// `held[res_start..res_end]` (ascending, deduplicated), where
/// `res_start` is the previous task's `res_end` (0 for the first task);
/// `next_res` is the next one to acquire. No finish time is stored: the
/// finish event is pushed as `now + service` at the `now` the task
/// started, so it is `start + service`, bit for bit. The dependency
/// counters live apart, in `Simulation::remaining`.
struct Node {
    service: f64,
    ready: f64,
    start: f64,
    agent: u32,
    res_end: u32,
    next_res: u32,
    kind: Kind,
    state: State,
}

impl Node {
    /// How long the task stalled between ready and start, if it did: the
    /// duration of its wait span.
    fn stall(&self) -> Option<f64> {
        let wait = self.start - self.ready;
        (wait > 0.0).then_some(wait)
    }

    /// The operation span the task's kind records; `Control` records none.
    fn op(&self) -> Option<Op> {
        match self.kind {
            Kind::Read => Some(Op::Read),
            Kind::Comm => Some(Op::Send),
            Kind::Compute => Some(Op::Compute),
            Kind::Fault => Some(Op::Fault),
            Kind::Control => None,
        }
    }
}

/// The stored form of an index field of an [`OpTag`]: `NONE` is `None`.
const NONE: u32 = u32::MAX;

/// An [`OpTag`] packed into 40 bytes instead of 72: the stage, peer and
/// member indices as `u32` with [`NONE`] for `None`.
#[derive(Clone, Copy)]
struct Tag {
    bytes: u64,
    seeks: u64,
    stage: u32,
    peer: u32,
    member: u32,
    attempt: u32,
    fault: Option<FaultKind>,
    io: bool,
}

impl Tag {
    /// `tag` packed, or `None` when an index does not fit below [`NONE`].
    fn pack(tag: OpTag) -> Option<Tag> {
        let index = |i: Option<usize>| match i {
            None => Some(NONE),
            Some(i) => u32::try_from(i).ok().filter(|&i| i != NONE),
        };
        Some(Tag {
            bytes: tag.bytes,
            seeks: tag.seeks,
            stage: index(tag.stage)?,
            peer: index(tag.peer)?,
            member: index(tag.member)?,
            attempt: tag.attempt,
            fault: tag.fault,
            io: tag.io,
        })
    }

    fn unpack(&self) -> OpTag {
        let index = |i: u32| (i != NONE).then_some(i as usize);
        OpTag {
            io: self.io,
            stage: index(self.stage),
            bytes: self.bytes,
            seeks: self.seeks,
            peer: index(self.peer),
            member: index(self.member),
            fault: self.fault,
            attempt: self.attempt,
        }
    }
}

struct ResourceState {
    capacity: usize,
    free: usize,
    queue: VecDeque<u32>,
}

/// An event — task `tid`, started `seq`-th, finishes at `finish` — packed
/// so that integer order is event order: finish time, then start sequence
/// (unique, so `tid` never decides). Times are sums of the finite
/// non-negative services `add_task` admits — never NaN or `-0.0` — and such
/// floats order exactly as their bit patterns do.
fn event(finish: f64, seq: u32, tid: u32) -> u128 {
    (u128::from(finish.to_bits()) << 64) | (u128::from(seq) << 32) | u128::from(tid)
}

/// A record index. A graph of `u32::MAX` tasks, edges or resource slots
/// would take tens of gigabytes, so this bound is a caller bug, not a
/// condition a run can meet.
fn narrow(index: usize) -> u32 {
    assert!(index < u32::MAX as usize, "DES graph exceeds u32 indices");
    index as u32
}

/// A discrete-event simulation under construction (and, after [`Simulation::run`],
/// its recorded timings).
///
/// ```
/// use enkf_sim::{Kind, Simulation, Task};
///
/// // Two readers contend for a single-slot disk; a consumer computes after
/// // the first read completes.
/// let mut sim = Simulation::new();
/// let disk = sim.add_resource(1);
/// let reader_a = sim.add_agent();
/// let reader_b = sim.add_agent();
/// let consumer = sim.add_agent();
/// let ra = sim.add_task(Task::new(reader_a, Kind::Read, 1.0).with_resources(vec![disk])).unwrap();
/// sim.add_task(Task::new(reader_b, Kind::Read, 1.0).with_resources(vec![disk])).unwrap();
/// sim.add_task(Task::new(consumer, Kind::Compute, 0.5).with_deps(vec![ra])).unwrap();
/// let report = sim.run().unwrap();
/// assert_eq!(report.makespan, 2.0); // reads serialize; compute hides behind read B
/// ```
#[derive(Default)]
pub struct Simulation {
    nodes: Vec<Node>,
    tags: Vec<Tag>,
    /// Every task's resource indices, concatenated in task order.
    held: Vec<u32>,
    /// `(dependency, dependent)` edges in insertion order.
    edges: Vec<(u32, u32)>,
    resources: Vec<ResourceState>,
    /// The wait queues of the resources `clear` forgot, emptied, handed
    /// to the next graph's resources in registration order.
    spare_queues: Vec<VecDeque<u32>>,
    num_agents: usize,
    last_task_of_agent: Vec<Option<TaskId>>,
    // `run`'s scratch, rebuilt by every run and kept for the next: task
    // `t` waits on `remaining[t]` unfinished dependencies, and its
    // dependents are `dependents[offsets[t]..offsets[t + 1]]`.
    remaining: Vec<u32>,
    offsets: Vec<u32>,
    dependents: Vec<u32>,
    events: BinaryHeap<Reverse<u128>>,
    started: Vec<u32>,
}

impl Simulation {
    /// Create an empty simulation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the graph — agents, resources, tasks and timings — but keep
    /// every buffer's capacity, so a simulation reused graph after graph
    /// allocates only while a graph outgrows the largest before it.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.tags.clear();
        self.held.clear();
        self.edges.clear();
        // Reversed, so `add_resource`'s `pop` hands resource `r` the queue
        // resource `r` of this graph grew.
        for mut rs in self.resources.drain(..).rev() {
            rs.queue.clear();
            self.spare_queues.push(rs.queue);
        }
        self.num_agents = 0;
        self.last_task_of_agent.clear();
    }

    /// Register a serial execution context (rank thread, helper thread,
    /// I/O processor).
    pub fn add_agent(&mut self) -> AgentId {
        let id = AgentId(self.num_agents);
        self.num_agents += 1;
        self.last_task_of_agent.push(None);
        id
    }

    /// Register `n` agents, returning their ids in order.
    pub fn add_agents(&mut self, n: usize) -> Vec<AgentId> {
        (0..n).map(|_| self.add_agent()).collect()
    }

    /// Register a finite-capacity resource (OST, NIC). `capacity` is the
    /// number of tasks that may hold the resource simultaneously.
    pub fn add_resource(&mut self, capacity: usize) -> ResourceId {
        // A caller bug, not a condition a run can meet: a zero-slot
        // resource would park every task naming it forever.
        assert!(capacity > 0, "resource capacity must be positive");
        // `held` stores resource indices as `u32`.
        let id = ResourceId(narrow(self.resources.len()) as usize);
        self.resources.push(ResourceState {
            capacity,
            free: capacity,
            queue: self.spare_queues.pop().unwrap_or_default(),
        });
        id
    }

    /// Number of tasks added so far.
    pub fn num_tasks(&self) -> usize {
        self.nodes.len()
    }

    /// Add a task; returns its id. Dependencies must already exist. An
    /// implicit dependency on the agent's previous task enforces program
    /// order.
    pub fn add_task(&mut self, task: Task) -> Result<TaskId, SimError> {
        let op = task.op.unwrap_or_default();
        let (agent, kind, service) = (task.agent, task.kind, task.service);
        self.add_task_parts(agent, kind, service, &task.resources, &task.deps, op)
    }

    /// [`Simulation::add_task`] from the task's parts, its resources and
    /// dependencies borrowed — the one body that validates and records a
    /// task, so a caller holding them in a slice adds the task without
    /// building its vectors.
    pub fn add_task_parts(
        &mut self,
        agent: AgentId,
        kind: Kind,
        service: f64,
        resources: &[ResourceId],
        deps: &[TaskId],
        op: OpTag,
    ) -> Result<TaskId, SimError> {
        let id = self.nodes.len();
        if !(service >= 0.0 && service.is_finite()) {
            return Err(SimError::BadService(id));
        }
        if let Some(&r) = resources.iter().find(|r| r.0 >= self.resources.len()) {
            return Err(SimError::UnknownResource(r));
        }
        if let Some(&d) = deps.iter().find(|&&d| d >= id) {
            return Err(SimError::UnknownDependency(d));
        }
        let tag = Tag::pack(op).ok_or(SimError::TagIndex(id))?;
        // A caller bug: `AgentId`s only come from this simulation's
        // `add_agent`, so a foreign one mixes up two graphs.
        assert!(agent.0 < self.num_agents, "unknown agent");
        let tid = narrow(id);
        // Every dependency precedes `tid`, so it fits a `u32` too.
        self.edges.extend(deps.iter().map(|&d| (d as u32, tid)));
        if let Some(prev) = self.last_task_of_agent[agent.0].replace(id) {
            if !deps.contains(&prev) {
                self.edges.push((prev as u32, tid));
            }
        }
        // The task's resources, sorted and deduplicated in place at the end
        // of `held`; `add_resource` keeps every index below `u32::MAX`.
        let first = self.held.len();
        self.held.extend(resources.iter().map(|r| r.0 as u32));
        if resources.len() > 1 {
            self.held[first..].sort_unstable();
            let mut end = first + 1;
            for k in first + 1..self.held.len() {
                if self.held[k] != self.held[end - 1] {
                    self.held[end] = self.held[k];
                    end += 1;
                }
            }
            self.held.truncate(end);
        }
        self.nodes.push(Node {
            service,
            ready: 0.0,
            start: 0.0,
            agent: narrow(agent.0),
            res_end: narrow(self.held.len()),
            next_res: narrow(first),
            kind,
            state: State::WaitingDeps,
        });
        self.tags.push(tag);
        Ok(id)
    }

    /// Run to completion and return the run's summary; the timings stay in
    /// the simulation for [`Simulation::task_times`] and
    /// [`Simulation::spans`]. Every run
    /// starts from the graph alone, so running twice gives the same timings
    /// twice.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        self.reset();
        let mut seq = 0;
        // Seed: tasks with no dependencies are ready at t = 0.
        for t in 0..self.nodes.len() {
            if self.remaining[t] == 0 {
                self.mark_ready(t, 0.0);
            }
        }
        self.flush_started(0.0, &mut seq);

        let mut finished = 0usize;
        let mut makespan = 0.0f64;
        while let Some(Reverse(key)) = self.events.pop() {
            // Task `tid` finishes at `now`.
            let now = f64::from_bits((key >> 64) as u64);
            let tid = key as u32 as usize;
            let first = self.res_start(tid);
            let node = &mut self.nodes[tid];
            debug_assert_eq!(node.state, State::Running);
            node.state = State::Done;
            let end = node.res_end;
            makespan = makespan.max(now);
            finished += 1;

            // Release resources and wake queued tasks (FIFO).
            for k in first..end {
                let r = self.held[k as usize] as usize;
                self.resources[r].free += 1;
                while self.resources[r].free > 0 {
                    let Some(next) = self.resources[r].queue.pop_front() else {
                        break;
                    };
                    self.resources[r].free -= 1;
                    self.nodes[next as usize].next_res += 1;
                    self.try_advance(next as usize, now);
                }
            }

            // Notify dependents.
            for k in self.offsets[tid]..self.offsets[tid + 1] {
                let d = self.dependents[k as usize] as usize;
                self.remaining[d] -= 1;
                if self.remaining[d] == 0 {
                    self.mark_ready(d, now);
                }
            }

            self.flush_started(now, &mut seq);
        }

        if finished != self.nodes.len() {
            return Err(SimError::Stuck {
                unfinished: self.nodes.len() - finished,
            });
        }

        Ok(SimReport {
            makespan,
            tasks_executed: finished,
        })
    }

    /// `(ready, start, finish)` times of a task — valid after [`Simulation::run`].
    pub fn task_times(&self, id: TaskId) -> (f64, f64, f64) {
        let t = &self.nodes[id];
        // The finish event was pushed as `start + service`.
        (t.ready, t.start, t.start + t.service)
    }

    /// The run as a stream of `enkf_trace` spans in virtual time — valid
    /// after [`Simulation::run`], and the only definition of what a task
    /// becomes. In task order, a task yields a wait span covering
    /// `ready → start` whenever it stalled on program order, dependencies or
    /// resource queues, then its operation span (`Read` → read, `Comm` →
    /// send, `Compute` → compute, `Fault` → fault; `Control` tasks emit
    /// none). The spans are the run's only per-agent accounting: an
    /// operation span lasts exactly the service handed to
    /// [`Simulation::add_task`], a wait span exactly `start − ready`.
    /// Folding them (`enkf_trace::class_phases`) prices a run without
    /// keeping its trace; [`Simulation::export_trace`] collects them.
    pub fn spans(&self) -> impl Iterator<Item = Span> + '_ {
        let mut res_start = 0;
        self.nodes.iter().zip(&self.tags).flat_map(move |(t, tag)| {
            debug_assert_eq!(t.state, State::Done, "spans require a completed run");
            let first = std::mem::replace(&mut res_start, t.res_end);
            let (rank, tag) = (t.agent as usize, tag.unpack());
            let role = if tag.io { Role::Io } else { Role::Compute };
            let stalled = t.stall().map(|wait| {
                let tag = OpTag {
                    stage: tag.stage,
                    ..OpTag::default()
                };
                Span::new(rank, role, Op::Wait, t.ready, wait, tag)
            });
            let served = t.op().map(|op| Span {
                res: (first < t.res_end).then(|| self.held[first as usize] as usize),
                // The service, not `finish - start`: what the caller
                // priced, free of the rounding of `now + service`.
                ..Span::new(rank, role, op, t.start, t.service, tag)
            });
            stalled.into_iter().chain(served)
        })
    }

    /// [`Simulation::spans`] collected into an execution trace labelled
    /// `label` — valid after [`Simulation::run`].
    pub fn export_trace(&self, label: &str) -> Trace {
        // Exactly as many spans as `spans` yields: the trace never regrows.
        let count = self
            .nodes
            .iter()
            .map(|t| usize::from(t.stall().is_some()) + usize::from(t.op().is_some()));
        let mut trace = Trace::new(label);
        trace.reserve(count.sum());
        trace.extend(self.spans());
        trace
    }

    /// Where task `tid`'s resources begin in `held`: where the previous
    /// task's end.
    fn res_start(&self, tid: usize) -> u32 {
        match tid {
            0 => 0,
            _ => self.nodes[tid - 1].res_end,
        }
    }

    /// Rebuild everything a run consumes from the graph: resource slots,
    /// acquisition cursors, dependency counters and the dependents' CSR —
    /// a stable counting sort of the edges by dependency, so each list
    /// keeps insertion order, which is ascending `TaskId`.
    fn reset(&mut self) {
        let mut res_start = 0;
        for t in &mut self.nodes {
            t.next_res = std::mem::replace(&mut res_start, t.res_end);
            t.state = State::WaitingDeps;
        }
        for rs in &mut self.resources {
            rs.free = rs.capacity;
            rs.queue.clear();
        }
        // The CSR's `u32` offsets index the edges.
        narrow(self.edges.len());
        self.remaining.clear();
        self.remaining.resize(self.nodes.len(), 0);
        self.offsets.clear();
        self.offsets.resize(self.nodes.len() + 1, 0);
        for &(dep, task) in &self.edges {
            self.offsets[dep as usize] += 1;
            self.remaining[task as usize] += 1;
        }
        // Inclusive prefix sums: `offsets[d]` is the end of `d`'s list
        // until the backward placement below walks it to the start.
        let mut end = 0;
        for o in &mut self.offsets {
            end += *o;
            *o = end;
        }
        self.dependents.clear();
        self.dependents.resize(self.edges.len(), 0);
        for &(dep, task) in self.edges.iter().rev() {
            let slot = &mut self.offsets[dep as usize];
            *slot -= 1;
            self.dependents[*slot as usize] = task;
        }
        self.events.clear();
        self.started.clear();
    }

    fn mark_ready(&mut self, tid: usize, now: f64) {
        let t = &mut self.nodes[tid];
        debug_assert_eq!(t.state, State::WaitingDeps);
        t.state = State::Acquiring;
        t.ready = now;
        // Acquire the first resource (or start immediately when none).
        self.try_advance(tid, now);
    }

    /// Advance a task through its (sorted) resource list from `next_res`.
    /// Blocks (enqueues) on the first resource without a free slot. When
    /// all resources are held, records the start time and pushes to
    /// `started`.
    fn try_advance(&mut self, tid: usize, now: f64) {
        let t = &mut self.nodes[tid];
        while t.next_res < t.res_end {
            let rs = &mut self.resources[self.held[t.next_res as usize] as usize];
            if rs.free > 0 && rs.queue.is_empty() {
                rs.free -= 1;
                t.next_res += 1;
            } else {
                rs.queue.push_back(tid as u32);
                return;
            }
        }
        t.state = State::Running;
        t.start = now;
        self.started.push(tid as u32);
    }

    /// Queue the finish events of the tasks started at `now`; `seq` counts
    /// starts, which are at most as many as the `u32`-indexed tasks.
    fn flush_started(&mut self, now: f64, seq: &mut u32) {
        for tid in self.started.drain(..) {
            let finish = now + self.nodes[tid as usize].service;
            self.events.push(Reverse(event(finish, *seq, tid)));
            *seq += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_task_runs_at_zero() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let t = sim.add_task(Task::new(a, Kind::Compute, 2.5)).unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 2.5);
        assert_eq!(sim.task_times(t), (0.0, 0.0, 2.5));
        let p = sim.export_trace("single").per_rank_phases()[&0];
        assert_eq!(p.compute, 2.5);
        assert_eq!(p.wait, 0.0);
    }

    #[test]
    fn program_order_serializes_an_agent() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let t1 = sim.add_task(Task::new(a, Kind::Read, 1.0)).unwrap();
        let t2 = sim.add_task(Task::new(a, Kind::Compute, 2.0)).unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 3.0);
        assert_eq!(sim.task_times(t1).2, 1.0);
        assert_eq!(sim.task_times(t2).1, 1.0);
    }

    #[test]
    fn independent_agents_run_in_parallel() {
        let mut sim = Simulation::new();
        for _ in 0..4 {
            let a = sim.add_agent();
            sim.add_task(Task::new(a, Kind::Compute, 5.0)).unwrap();
        }
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 5.0);
        assert_eq!(rep.tasks_executed, 4);
    }

    #[test]
    fn explicit_dependency_across_agents() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let b = sim.add_agent();
        let t1 = sim.add_task(Task::new(a, Kind::Read, 3.0)).unwrap();
        let t2 = sim
            .add_task(Task::new(b, Kind::Compute, 1.0).with_deps(vec![t1]))
            .unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(sim.task_times(t2).0, 3.0, "ready when dep finishes");
        assert_eq!(rep.makespan, 4.0);
        assert_eq!(sim.task_times(t2).1, 3.0, "started as soon as ready");
    }

    #[test]
    fn running_twice_gives_the_same_makespan() {
        // Read 3 s → compute 1 s. A second run must not start from the
        // dependency counters and resource slots the first one spent.
        let mut sim = Simulation::new();
        let disk = sim.add_resource(1);
        let a = sim.add_agent();
        let b = sim.add_agent();
        let read = sim
            .add_task(Task::new(a, Kind::Read, 3.0).with_resources(vec![disk]))
            .unwrap();
        let compute = sim
            .add_task(Task::new(b, Kind::Compute, 1.0).with_deps(vec![read]))
            .unwrap();
        let first = sim.run().unwrap();
        assert_eq!(first.makespan, 4.0);
        assert_eq!(sim.run().unwrap(), first);
        assert_eq!(sim.task_times(compute), (3.0, 3.0, 4.0));
    }

    #[test]
    fn dependents_ready_at_once_acquire_in_task_order() {
        // Both readers wait on one task and then contend for one slot: the
        // lower `TaskId` is granted first (the insertion-order rule).
        let mut sim = Simulation::new();
        let disk = sim.add_resource(1);
        let agents = sim.add_agents(3);
        let root = sim
            .add_task(Task::new(agents[0], Kind::Compute, 1.0))
            .unwrap();
        let read = |agent| {
            Task::new(agent, Kind::Read, 1.0)
                .with_resources(vec![disk])
                .with_deps(vec![root])
        };
        let first = sim.add_task(read(agents[1])).unwrap();
        let second = sim.add_task(read(agents[2])).unwrap();
        sim.run().unwrap();
        assert_eq!(sim.task_times(first), (1.0, 1.0, 2.0));
        assert_eq!(sim.task_times(second), (1.0, 2.0, 3.0));
    }

    #[test]
    fn capacity_one_resource_serializes_contenders() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(1);
        let mut ids = Vec::new();
        for _ in 0..3 {
            let a = sim.add_agent();
            ids.push(
                sim.add_task(Task::new(a, Kind::Read, 2.0).with_resources(vec![r]))
                    .unwrap(),
            );
        }
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 6.0);
        // Total wait = 0 + 2 + 4.
        let wait = |&t| sim.task_times(t).1 - sim.task_times(t).0;
        assert_eq!(ids.iter().map(wait).sum::<f64>(), 6.0);
    }

    #[test]
    fn capacity_two_resource_allows_two_at_once() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(2);
        for _ in 0..4 {
            let a = sim.add_agent();
            sim.add_task(Task::new(a, Kind::Read, 2.0).with_resources(vec![r]))
                .unwrap();
        }
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 4.0);
    }

    #[test]
    fn fifo_order_on_contended_resource() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(1);
        let mut ids = Vec::new();
        for _ in 0..3 {
            let a = sim.add_agent();
            ids.push(
                sim.add_task(Task::new(a, Kind::Read, 1.0).with_resources(vec![r]))
                    .unwrap(),
            );
        }
        sim.run().unwrap();
        let starts: Vec<f64> = ids.iter().map(|&t| sim.task_times(t).1).collect();
        assert_eq!(starts, vec![0.0, 1.0, 2.0], "grants follow arrival order");
    }

    #[test]
    fn multi_resource_task_holds_both() {
        let mut sim = Simulation::new();
        let r1 = sim.add_resource(1);
        let r2 = sim.add_resource(1);
        let a = sim.add_agent();
        let b = sim.add_agent();
        let c = sim.add_agent();
        // Task A holds both for 2s; B wants r1, C wants r2: both must wait.
        sim.add_task(Task::new(a, Kind::Comm, 2.0).with_resources(vec![r1, r2]))
            .unwrap();
        let tb = sim
            .add_task(Task::new(b, Kind::Read, 1.0).with_resources(vec![r1]))
            .unwrap();
        let tc = sim
            .add_task(Task::new(c, Kind::Read, 1.0).with_resources(vec![r2]))
            .unwrap();
        sim.run().unwrap();
        assert_eq!(sim.task_times(tb).1, 2.0);
        assert_eq!(sim.task_times(tc).1, 2.0);
    }

    #[test]
    fn overlap_io_and_compute_on_separate_agents() {
        // The essence of the multi-stage design: reads for stage l+1 proceed
        // while stage l computes.
        let mut sim = Simulation::new();
        let ost = sim.add_resource(1);
        let io = sim.add_agent();
        let cpu = sim.add_agent();
        let read0 = sim
            .add_task(Task::new(io, Kind::Read, 1.0).with_resources(vec![ost]))
            .unwrap();
        let read1 = sim
            .add_task(Task::new(io, Kind::Read, 1.0).with_resources(vec![ost]))
            .unwrap();
        let _comp0 = sim
            .add_task(Task::new(cpu, Kind::Compute, 1.5).with_deps(vec![read0]))
            .unwrap();
        let comp1 = sim
            .add_task(Task::new(cpu, Kind::Compute, 1.5).with_deps(vec![read1]))
            .unwrap();
        let rep = sim.run().unwrap();
        // read1 (1..2) overlaps comp0 (1..2.5); comp1 runs 2.5..4.
        assert_eq!(sim.task_times(comp1).1, 2.5);
        assert_eq!(rep.makespan, 4.0);
    }

    #[test]
    fn zero_service_barrier() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let b = sim.add_agent();
        let ctrl = sim.add_agent();
        let t1 = sim.add_task(Task::new(a, Kind::Compute, 1.0)).unwrap();
        let t2 = sim.add_task(Task::new(b, Kind::Compute, 2.0)).unwrap();
        let bar = sim
            .add_task(Task::new(ctrl, Kind::Control, 0.0).with_deps(vec![t1, t2]))
            .unwrap();
        let after = sim
            .add_task(Task::new(a, Kind::Compute, 1.0).with_deps(vec![bar]))
            .unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(sim.task_times(after).1, 2.0);
        assert_eq!(rep.makespan, 3.0);
        let trace = sim.export_trace("barrier");
        assert!(
            trace
                .spans()
                .iter()
                .all(|s| s.rank != ctrl.0 || s.op == enkf_trace::Op::Wait),
            "control tasks emit no operation span"
        );
    }

    #[test]
    fn forward_dependency_rejected() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let err = sim
            .add_task(Task::new(a, Kind::Compute, 1.0).with_deps(vec![5]))
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownDependency(5)));
    }

    #[test]
    fn unknown_resource_rejected() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let err = sim
            .add_task(Task::new(a, Kind::Read, 1.0).with_resources(vec![ResourceId(3)]))
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownResource(ResourceId(3))));
    }

    /// The records a paper-scale graph stores per task.
    #[test]
    fn a_task_record_and_its_tag_are_40_bytes_each() {
        assert_eq!(std::mem::size_of::<Node>(), 40);
        assert_eq!(std::mem::size_of::<Tag>(), 40);
    }

    /// A stage, peer or member index the packed tag cannot hold is a typed
    /// error, and the refused task leaves no trace in the graph.
    #[test]
    fn a_tag_index_beyond_u32_is_refused() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        let tags = [
            OpTag {
                stage: Some(u32::MAX as usize),
                ..OpTag::default()
            },
            OpTag {
                peer: Some(usize::MAX),
                ..OpTag::default()
            },
            OpTag {
                member: Some(u32::MAX as usize + 1),
                ..OpTag::default()
            },
        ];
        for tag in tags {
            let task = Task::new(a, Kind::Compute, 1.0).with_op(tag);
            assert_eq!(sim.add_task(task), Err(SimError::TagIndex(0)));
        }
        let largest = OpTag {
            stage: Some(u32::MAX as usize - 1),
            ..OpTag::default()
        };
        let t = sim.add_task(Task::new(a, Kind::Compute, 1.0).with_op(largest));
        assert_eq!(t, Ok(0));
        sim.run().unwrap();
        assert_eq!(sim.spans().next().unwrap().stage, largest.stage);
    }

    #[test]
    fn bad_service_rejected() {
        let mut sim = Simulation::new();
        let a = sim.add_agent();
        assert!(matches!(
            sim.add_task(Task::new(a, Kind::Compute, f64::NAN)),
            Err(SimError::BadService(0))
        ));
        assert!(matches!(
            sim.add_task(Task::new(a, Kind::Compute, -1.0)),
            Err(SimError::BadService(0))
        ));
    }

    #[test]
    fn wait_time_includes_resource_queueing() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(1);
        let a = sim.add_agent();
        let b = sim.add_agent();
        sim.add_task(Task::new(a, Kind::Read, 4.0).with_resources(vec![r]))
            .unwrap();
        let t = sim
            .add_task(Task::new(b, Kind::Read, 1.0).with_resources(vec![r]))
            .unwrap();
        let rep = sim.run().unwrap();
        let (ready, start, finish) = sim.task_times(t);
        assert_eq!(ready, 0.0);
        assert_eq!(start, 4.0);
        assert_eq!(finish, 5.0);
        assert_eq!(rep.makespan, 5.0);
        assert_eq!(sim.export_trace("queue").per_rank_phases()[&b.0].wait, 4.0);
    }

    #[test]
    fn exported_trace_projects_report_exactly() {
        use enkf_trace::OpTag;
        let mut sim = Simulation::new();
        let r = sim.add_resource(1);
        let a = sim.add_agent();
        let b = sim.add_agent();
        let io_read = OpTag {
            io: true,
            bytes: 64,
            seeks: 4,
            ..OpTag::default()
        };
        let read = OpTag {
            bytes: 32,
            seeks: 2,
            ..OpTag::default()
        };
        // (agent, kind, service) as handed to `add_task`, in task-id order.
        let inputs = [
            (a, Kind::Read, 2.0, Some(io_read)),
            (b, Kind::Read, 1.0, Some(read)),
            (b, Kind::Compute, 0.5, None),
        ];
        for (agent, kind, service, tag) in inputs {
            let mut task = Task::new(agent, kind, service);
            if kind == Kind::Read {
                task = task.with_resources(vec![r]);
            }
            task.op = tag;
            sim.add_task(task).unwrap();
        }
        sim.run().unwrap();
        let trace = sim.export_trace("unit");
        // Per agent, span durations by op equal the services handed in and
        // wait spans equal `start − ready`.
        let phases = trace.per_rank_phases();
        for agent in [a, b] {
            let service = |k: Kind| -> f64 {
                let of_kind = inputs.iter().filter(|i| i.0 == agent && i.1 == k);
                of_kind.map(|i| i.2).sum()
            };
            let wait: f64 = (0..inputs.len())
                .filter(|&t| inputs[t].0 == agent)
                .map(|t| sim.task_times(t).1 - sim.task_times(t).0)
                .sum();
            let p = phases[&agent.0];
            assert_eq!(p.read, service(Kind::Read));
            assert_eq!(p.comm, service(Kind::Comm));
            assert_eq!(p.compute, service(Kind::Compute));
            assert_eq!(p.wait, wait);
        }
        // Rank b queued 2.0s on the disk: a wait span precedes its read.
        assert!(trace
            .spans()
            .iter()
            .any(|s| s.rank == 1 && s.op == enkf_trace::Op::Wait && s.dur == 2.0));
        // Tags survive into spans; the digest sees both reads.
        assert!(trace.digest().contains("role=io"));
        assert!(trace.digest().contains("bytes=32 seeks=2"));
    }

    #[test]
    fn fault_tasks_project_to_fault_spans_and_busy() {
        use enkf_trace::{FaultKind, OpTag};
        let mut sim = Simulation::new();
        let ost = sim.add_resource(1);
        let a = sim.add_agent();
        // Failed attempt on the OST, backoff off-resource, then the read.
        let read = OpTag {
            bytes: 64,
            seeks: 4,
            member: Some(1),
            attempt: 1,
            ..OpTag::default()
        };
        let injected = OpTag {
            fault: Some(FaultKind::Injected),
            attempt: 0,
            ..read
        };
        let backoff = OpTag {
            bytes: 0,
            seeks: 0,
            fault: Some(FaultKind::Backoff),
            ..injected
        };
        let on_ost = |kind, service, tag| {
            Task::new(a, kind, service)
                .with_resources(vec![ost])
                .with_op(tag)
        };
        sim.add_task(on_ost(Kind::Fault, 2.0, injected)).unwrap();
        sim.add_task(Task::new(a, Kind::Fault, 0.5).with_op(backoff))
            .unwrap();
        let retry = sim.add_task(on_ost(Kind::Read, 1.0, read)).unwrap();
        // A second reader of the OST queues behind the failed attempt and
        // takes the OST while the backoff holds none.
        let b = sim.add_agent();
        let other = Task::new(b, Kind::Read, 1.0).with_resources(vec![ost]);
        let other = sim.add_task(other).unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 4.0);
        assert_eq!(sim.task_times(other).1, 2.0, "the attempt held the OST");
        assert_eq!(sim.task_times(retry).1, 3.0, "the read holds the OST");
        let trace = sim.export_trace("faulted");
        let p = trace.per_rank_phases()[&0];
        assert_eq!(p.fault, 2.0 + 0.5, "the two fault services, exactly");
        assert_eq!(p.read, 1.0);
        assert!(trace.digest().contains("op=fault"));
        // The tags' kinds and attempts reach the spans, so the fault events
        // are a projection of the exported trace.
        let kinds: Vec<FaultKind> = trace.fault_events(&[]).iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                FaultKind::Injected,
                FaultKind::Backoff,
                FaultKind::Recovered
            ]
        );
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two identical runs give identical timings.
        let build = || {
            let mut sim = Simulation::new();
            let r = sim.add_resource(2);
            let mut ids = Vec::new();
            for _ in 0..6 {
                let a = sim.add_agent();
                ids.push(
                    sim.add_task(Task::new(a, Kind::Read, 1.0).with_resources(vec![r]))
                        .unwrap(),
                );
            }
            sim.run().unwrap();
            ids.iter().map(|&t| sim.task_times(t)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
    #[test]
    fn a_cleared_simulation_keeps_its_queues_and_prices_like_a_fresh_one() {
        // `readers` contend for a disk of `capacity` slots and a
        // single-slot NIC: alternately one or the other, every third
        // reader for both.
        let price = |sim: &mut Simulation, readers: usize, capacity: usize| {
            let disk = sim.add_resource(capacity);
            let nic = sim.add_resource(1);
            let ids: Vec<TaskId> = (0..readers)
                .map(|i| {
                    let res = match (i % 3, i % 2) {
                        (0, _) => vec![disk, nic],
                        (_, 0) => vec![disk],
                        _ => vec![nic],
                    };
                    let task = Task::new(sim.add_agent(), Kind::Read, 1.0 + i as f64 * 0.25);
                    sim.add_task(task.with_resources(res)).unwrap()
                })
                .collect();
            sim.run().unwrap();
            ids.iter().map(|&t| sim.task_times(t)).collect::<Vec<_>>()
        };
        let mut reused = Simulation::new();
        price(&mut reused, 9, 1);
        let grown: Vec<usize> = reused
            .resources
            .iter()
            .map(|r| r.queue.capacity())
            .collect();
        assert!(grown.iter().all(|&c| c > 0), "both queues grew");
        for (readers, capacity) in [(5, 2), (3, 1), (9, 1)] {
            reused.clear();
            let fresh = price(&mut Simulation::new(), readers, capacity);
            assert_eq!(price(&mut reused, readers, capacity), fresh);
        }
        // Resource `r` of each graph got back the queue resource `r` grew.
        let kept: Vec<usize> = reused
            .resources
            .iter()
            .map(|r| r.queue.capacity())
            .collect();
        assert!(
            kept.iter().zip(&grown).all(|(k, g)| k >= g),
            "{kept:?} < {grown:?}"
        );
    }

    /// A tie-heavy graph pinned as literals: equal finish times, zero-service
    /// tasks, a multi-resource task naming one resource twice, duplicate
    /// dependencies, a `Control` barrier and queueing on a capacity-2
    /// resource. Every `task_times` triple and every span is the engine's
    /// observable contract; any change to the record layout must keep them.
    #[test]
    fn a_tie_heavy_graph_keeps_its_pinned_times_and_spans() {
        use enkf_trace::FaultKind;
        let mut sim = Simulation::new();
        let pair = sim.add_resource(2);
        let nic_a = sim.add_resource(1);
        let nic_b = sim.add_resource(1);
        let a = sim.add_agents(5);
        let read = OpTag {
            io: true,
            member: Some(7),
            bytes: 64,
            seeks: 2,
            ..OpTag::default()
        };
        let send = OpTag {
            stage: Some(1),
            peer: Some(4),
            bytes: 128,
            ..OpTag::default()
        };
        let fault = OpTag {
            member: Some(3),
            fault: Some(FaultKind::Injected),
            attempt: 2,
            ..OpTag::default()
        };
        let stage = OpTag {
            stage: Some(0),
            ..OpTag::default()
        };
        // (agent, kind, service, resources, deps, tag), in task-id order.
        type Row<'a> = (usize, Kind, f64, &'a [ResourceId], &'a [TaskId], OpTag);
        let graph: [Row; 12] = [
            (0, Kind::Read, 1.0, &[pair], &[], read),
            (1, Kind::Read, 1.0, &[pair], &[], read),
            (2, Kind::Read, 1.0, &[pair], &[], read),
            (3, Kind::Compute, 0.0, &[], &[], stage),
            (3, Kind::Comm, 2.0, &[nic_b, nic_a, nic_b], &[0, 0], send),
            (4, Kind::Read, 0.1, &[nic_b], &[], read),
            (4, Kind::Control, 0.0, &[], &[1, 2, 4, 2], OpTag::default()),
            (0, Kind::Compute, 1.0, &[], &[6, 6], stage),
            (1, Kind::Fault, 0.3, &[pair], &[3], fault),
            (2, Kind::Compute, 0.0, &[], &[6], stage),
            (4, Kind::Comm, 1.0, &[nic_a], &[], send),
            (3, Kind::Read, 0.7, &[pair, nic_a], &[8], read),
        ];
        for (agent, kind, service, res, deps, tag) in graph {
            sim.add_task_parts(a[agent], kind, service, res, deps, tag)
                .unwrap();
        }
        let report = sim.run().unwrap();
        assert_eq!(report.makespan, 4.7);
        assert_eq!(report.tasks_executed, 12);
        let times: Vec<_> = (0..graph.len()).map(|t| sim.task_times(t)).collect();
        let pinned = [
            (0.0, 0.0, 1.0),
            (0.0, 0.0, 1.0),
            (0.0, 1.0, 2.0),
            (0.0, 0.0, 0.0),
            (1.0, 1.0, 3.0),
            (0.0, 0.0, 0.1),
            (3.0, 3.0, 3.0),
            (3.0, 3.0, 4.0),
            (1.0, 1.0, 1.3),
            (3.0, 3.0, 3.0),
            (3.0, 3.7, 4.7),
            (3.0, 3.0, 3.7),
        ];
        assert_eq!(times, pinned);
        let wait = |stage| OpTag {
            stage,
            ..OpTag::default()
        };
        let span = |rank, role, op, start, dur, res, tag| Span {
            res,
            ..Span::new(rank, role, op, start, dur, tag)
        };
        let pinned = [
            span(0, Role::Io, Op::Read, 0.0, 1.0, Some(0), read),
            span(1, Role::Io, Op::Read, 0.0, 1.0, Some(0), read),
            span(2, Role::Io, Op::Wait, 0.0, 1.0, None, wait(None)),
            span(2, Role::Io, Op::Read, 1.0, 1.0, Some(0), read),
            span(3, Role::Compute, Op::Compute, 0.0, 0.0, None, stage),
            span(3, Role::Compute, Op::Send, 1.0, 2.0, Some(1), send),
            span(4, Role::Io, Op::Read, 0.0, 0.1, Some(2), read),
            span(0, Role::Compute, Op::Compute, 3.0, 1.0, None, stage),
            span(1, Role::Compute, Op::Fault, 1.0, 0.3, Some(0), fault),
            span(2, Role::Compute, Op::Compute, 3.0, 0.0, None, stage),
            // 3.7 − 3.0: the wait is `start − ready`, rounding and all.
            span(
                4,
                Role::Compute,
                Op::Wait,
                3.0,
                0.7000000000000002,
                None,
                wait(Some(1)),
            ),
            span(4, Role::Compute, Op::Send, 3.7, 1.0, Some(1), send),
            span(3, Role::Io, Op::Read, 3.0, 0.7, Some(0), read),
        ];
        assert_eq!(sim.spans().collect::<Vec<_>>(), pinned);
    }
}
