//! Task, agent and resource identifiers for the DES.

/// Index of a task within a simulation.
pub type TaskId = usize;

/// Index of an agent (serial execution context) within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub usize);

/// Index of a finite-capacity resource within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub usize);

/// Work classification: which phase (Figures 1, 9, 11) a task's span
/// counts toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Parallel-file-system reads (occupies OST slots).
    Read,
    /// Message passing (occupies NIC slots).
    Comm,
    /// Local analysis computation.
    Compute,
    /// An injected fault or recovery action: a failed read attempt
    /// (occupying its OST slot) or a retry backoff (agent-local virtual
    /// sleep). Mirrors the real executors' `Op::Fault` spans.
    Fault,
    /// Synchronization / bookkeeping with no physical phase (barriers);
    /// emits no operation span.
    Control,
}

/// One node of the simulated task DAG. Build via [`crate::Simulation::add_task`]
/// (or hand its parts, borrowed, to [`crate::Simulation::add_task_parts`]).
#[derive(Debug, Clone)]
pub struct Task {
    /// Serial execution context this task runs on.
    pub agent: AgentId,
    /// Phase classification.
    pub kind: Kind,
    /// Virtual service duration in seconds once all resources are held.
    pub service: f64,
    /// Resources to hold for the duration of the service. Order does not
    /// matter; the engine acquires in ascending id order.
    pub resources: Vec<ResourceId>,
    /// Explicit dependencies (in addition to the implicit program-order
    /// dependency on the agent's previous task).
    pub deps: Vec<TaskId>,
    /// Operation metadata (role, stage, bytes, seeks, peer, member, fault
    /// kind, attempt) carried into the run's spans
    /// ([`crate::Simulation::spans`]). Untagged tasks still appear there
    /// with defaults derived from their kind.
    pub op: Option<enkf_trace::OpTag>,
}

impl Task {
    /// Convenience constructor for a task with no resources or deps.
    pub fn new(agent: AgentId, kind: Kind, service: f64) -> Self {
        Task {
            agent,
            kind,
            service,
            resources: Vec::new(),
            deps: Vec::new(),
            op: None,
        }
    }

    /// Builder-style: add resource requirements.
    pub fn with_resources(mut self, resources: Vec<ResourceId>) -> Self {
        self.resources = resources;
        self
    }

    /// Builder-style: add explicit dependencies.
    pub fn with_deps(mut self, deps: Vec<TaskId>) -> Self {
        self.deps = deps;
        self
    }

    /// Builder-style: attach operation metadata for the execution trace.
    pub fn with_op(mut self, op: enkf_trace::OpTag) -> Self {
        self.op = Some(op);
        self
    }
}
