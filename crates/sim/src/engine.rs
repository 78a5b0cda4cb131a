//! The discrete-event scheduler.

use crate::report::SimReport;
use crate::task::{AgentId, Kind, ResourceId, Task, TaskId};
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

struct TaskState {
    agent: AgentId,
    kind: Kind,
    service: f64,
    resources: Vec<ResourceId>, // sorted ascending
    acquired: usize,
    remaining_deps: usize,
    dependents: Vec<TaskId>,
    state: State,
    ready: f64,
    start: f64,
    finish: f64,
    op: Option<enkf_trace::OpTag>,
}

struct ResourceState {
    free: usize,
    queue: VecDeque<TaskId>,
}

/// Event-queue key: finish time, then insertion sequence. Times are sums of
/// the finite non-negative services `add_task` admits — never NaN or
/// `-0.0` — so `total_cmp` orders them exactly as the derived `<` does.
#[derive(PartialEq, PartialOrd)]
struct EventKey(f64, u64);

impl Eq for EventKey {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
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
pub struct Simulation {
    tasks: Vec<TaskState>,
    resources: Vec<ResourceState>,
    num_agents: usize,
    last_task_of_agent: Vec<Option<TaskId>>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Create an empty simulation.
    pub fn new() -> Self {
        Simulation {
            tasks: Vec::new(),
            resources: Vec::new(),
            num_agents: 0,
            last_task_of_agent: Vec::new(),
        }
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
        let id = ResourceId(self.resources.len());
        self.resources.push(ResourceState {
            free: capacity,
            queue: VecDeque::new(),
        });
        id
    }

    /// Number of tasks added so far.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Add a task; returns its id. Dependencies must already exist. An
    /// implicit dependency on the agent's previous task enforces program
    /// order.
    pub fn add_task(&mut self, task: Task) -> Result<TaskId, SimError> {
        let id = self.tasks.len();
        if !(task.service >= 0.0 && task.service.is_finite()) {
            return Err(SimError::BadService(id));
        }
        for &r in &task.resources {
            if r.0 >= self.resources.len() {
                return Err(SimError::UnknownResource(r));
            }
        }
        let mut deps = task.deps;
        for &d in &deps {
            if d >= id {
                return Err(SimError::UnknownDependency(d));
            }
        }
        // A caller bug: `AgentId`s only come from this simulation's
        // `add_agent`, so a foreign one mixes up two graphs.
        assert!(task.agent.0 < self.num_agents, "unknown agent");
        if let Some(prev) = self.last_task_of_agent[task.agent.0] {
            if !deps.contains(&prev) {
                deps.push(prev);
            }
        }
        self.last_task_of_agent[task.agent.0] = Some(id);
        let mut resources = task.resources;
        resources.sort_unstable();
        resources.dedup();
        for &d in &deps {
            self.tasks[d].dependents.push(id);
        }
        self.tasks.push(TaskState {
            agent: task.agent,
            kind: task.kind,
            service: task.service,
            resources,
            acquired: 0,
            remaining_deps: deps.len(),
            dependents: Vec::new(),
            state: State::WaitingDeps,
            ready: 0.0,
            start: 0.0,
            finish: 0.0,
            op: task.op,
        });
        Ok(id)
    }

    /// Run to completion and return the run's summary; the timings stay in
    /// the simulation for [`Simulation::task_times`] and
    /// [`Simulation::export_trace`].
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        let mut events: BinaryHeap<Reverse<(EventKey, TaskId)>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let mut started: Vec<TaskId> = Vec::new();

        // Seed: tasks with no dependencies are ready at t = 0.
        let initially_ready: Vec<TaskId> = (0..self.tasks.len())
            .filter(|&t| self.tasks[t].remaining_deps == 0)
            .collect();
        for t in initially_ready {
            self.mark_ready(t, 0.0, &mut started);
        }
        Self::flush_started(&mut started, &mut events, &mut seq, &self.tasks, 0.0);

        let mut finished = 0usize;
        let mut makespan = 0.0f64;
        while let Some(Reverse((EventKey(now, _), tid))) = events.pop() {
            // Task `tid` finishes at `now`.
            debug_assert_eq!(self.tasks[tid].state, State::Running);
            self.tasks[tid].state = State::Done;
            self.tasks[tid].finish = now;
            makespan = makespan.max(now);
            finished += 1;

            // Release resources and wake queued tasks (FIFO).
            let held: Vec<ResourceId> = self.tasks[tid].resources.clone();
            for r in held {
                self.resources[r.0].free += 1;
                loop {
                    let rs = &mut self.resources[r.0];
                    if rs.free == 0 {
                        break;
                    }
                    let Some(next) = rs.queue.pop_front() else {
                        break;
                    };
                    rs.free -= 1;
                    self.tasks[next].acquired += 1;
                    self.try_advance(next, now, &mut started);
                }
            }

            // Notify dependents.
            let deps = std::mem::take(&mut self.tasks[tid].dependents);
            for d in &deps {
                self.tasks[*d].remaining_deps -= 1;
                if self.tasks[*d].remaining_deps == 0 {
                    self.mark_ready(*d, now, &mut started);
                }
            }
            self.tasks[tid].dependents = deps;

            Self::flush_started(&mut started, &mut events, &mut seq, &self.tasks, now);
        }

        if finished != self.tasks.len() {
            return Err(SimError::Stuck {
                unfinished: self.tasks.len() - finished,
            });
        }

        let mut resource_busy = vec![0.0; self.resources.len()];
        for t in &self.tasks {
            for r in &t.resources {
                resource_busy[r.0] += t.service;
            }
        }
        Ok(SimReport {
            makespan,
            tasks_executed: finished,
            resource_busy,
        })
    }

    /// `(ready, start, finish)` times of a task — valid after [`Simulation::run`].
    pub fn task_times(&self, id: TaskId) -> (f64, f64, f64) {
        let t = &self.tasks[id];
        (t.ready, t.start, t.finish)
    }

    /// Export the run as an execution trace — valid after
    /// [`Simulation::run`]. Every task becomes one span in virtual time
    /// (`Read` → read, `Comm` → send, `Compute` → compute; `Control` tasks
    /// emit no operation span), plus a wait span covering `ready → start`
    /// whenever the task stalled on program order, dependencies or resource
    /// queues. The spans are the run's only per-agent accounting: an
    /// operation span lasts exactly the service handed to
    /// [`Simulation::add_task`], a wait span exactly `start − ready`.
    pub fn export_trace(&self, label: &str) -> enkf_trace::Trace {
        use enkf_trace::{Op, OpTag, Role, Span};
        let mut trace = enkf_trace::Trace::new(label);
        for t in &self.tasks {
            debug_assert_eq!(
                t.state,
                State::Done,
                "export_trace requires a completed run"
            );
            let tag = t.op.unwrap_or_default();
            let rank = t.agent.0;
            let role = if tag.io { Role::Io } else { Role::Compute };
            let wait = t.start - t.ready;
            if wait > 0.0 {
                let stalled = OpTag {
                    stage: tag.stage,
                    ..OpTag::default()
                };
                trace.push(Span::new(rank, role, Op::Wait, t.ready, wait, stalled));
            }
            let op = match t.kind {
                Kind::Read => Op::Read,
                Kind::Comm => Op::Send,
                Kind::Compute => Op::Compute,
                Kind::Fault => Op::Fault,
                Kind::Control => continue,
            };
            trace.push(Span {
                res: t.resources.first().map(|r| r.0),
                // The service, not `finish - start`: what the caller
                // priced, free of the rounding of `now + service`.
                ..Span::new(rank, role, op, t.start, t.service, tag)
            });
        }
        trace
    }

    fn mark_ready(&mut self, tid: TaskId, now: f64, started: &mut Vec<TaskId>) {
        let t = &mut self.tasks[tid];
        debug_assert_eq!(t.state, State::WaitingDeps);
        t.state = State::Acquiring;
        t.ready = now;
        // Acquire the first resource (or start immediately when none).
        self.try_advance(tid, now, started);
    }

    /// Advance a task through its (sorted) resource list. The task has
    /// already acquired `acquired` resources; try to take the rest. Blocks
    /// (enqueues) on the first resource without a free slot. When all
    /// resources are held, records the start time and pushes to `started`.
    fn try_advance(&mut self, tid: TaskId, now: f64, started: &mut Vec<TaskId>) {
        loop {
            let next_idx = self.tasks[tid].acquired;
            if next_idx == self.tasks[tid].resources.len() {
                let t = &mut self.tasks[tid];
                t.state = State::Running;
                t.start = now;
                started.push(tid);
                return;
            }
            let r = self.tasks[tid].resources[next_idx];
            let rs = &mut self.resources[r.0];
            if rs.free > 0 && rs.queue.is_empty() {
                rs.free -= 1;
                self.tasks[tid].acquired += 1;
            } else {
                rs.queue.push_back(tid);
                return;
            }
        }
    }

    fn flush_started(
        started: &mut Vec<TaskId>,
        events: &mut BinaryHeap<Reverse<(EventKey, TaskId)>>,
        seq: &mut u64,
        tasks: &[TaskState],
        now: f64,
    ) {
        for tid in started.drain(..) {
            let finish = now + tasks[tid].service;
            events.push(Reverse((EventKey(finish, *seq), tid)));
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
        sim.add_task(on_ost(Kind::Read, 1.0, read)).unwrap();
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan, 3.5);
        assert_eq!(rep.resource_busy[ost.0], 3.0, "attempt + read held the OST");
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
}
