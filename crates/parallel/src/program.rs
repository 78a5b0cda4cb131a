//! The cycle program: one assimilation cycle of a variant as a single
//! ordered stream of `(rank, op)`.
//!
//! This is the one algorithm description both execution paths share
//! (PAPER.md §1). [`Emitter::emit`] produces it from the geometry
//! alone — mesh and levels, members, radius, parameters, the dropout set
//! and the health monitor's frozen route view — and two interpreters
//! consume it:
//!
//! * the threaded interpreter ([`crate::exec::run_cycle`]) runs the emitter
//!   once, splits the stream by rank, and executes each rank's ops — its
//!   only source of regions, peers, bundle sizes, member order and
//!   expected-message counts;
//! * the DES pricer ([`crate::model::model_cycle`]) turns each op into
//!   tasks as it is emitted, so a 1200-rank model never materialises the
//!   program.
//!
//! **Insertion-order rule.** `enkf-sim` breaks ties between simultaneously
//! ready tasks on `TaskId`, so the order the pricer adds tasks in is part
//! of the makespan. The stream order *is* that insertion order, and is
//! fixed per variant: producers before consumers (every `Send` precedes
//! the `Await` it feeds), and within one rank, program order.
//!
//! **The block table.** A rank holds member blocks keyed by
//! `(stage, member)`. A `Read` adds the region it read; an unstaged
//! `Await` adds every block of the bundles it receives (a staged one's go
//! straight into its stage's `X̄ᵇ`). A `Send` of [`Payload::Blocks`]
//! extracts its `region` from the `members` blocks the rank acquired last
//! for that stage — so it must follow the `Read`s or unstaged `Await`s of
//! its stage whose blocks cover that region — and bundles them into one
//! message. A `Compute` assembles `X̄ᵇ` over its `expansion` from one block
//! per surviving member of its stage, whichever way each arrived. A stage's
//! blocks are released after the rank's last `Send` or `Compute` of that
//! stage.
//!
//! **Stage = permission to overlap.** An op with `stage: None` runs
//! strictly at its place in the rank's program — Fig. 4's sequential
//! workflow. An op with `stage: Some(l)` may run *ahead* of the rank's
//! program counter: staged `Read`s are prefetched one run ahead of the ops
//! that follow them, and the bundles of staged `Await`s are received and
//! assembled by a helper thread while the rank computes an earlier stage —
//! Fig. 7's overlap. Overlap is thus a property of the program, stated by
//! its emitter; neither interpreter asks which variant it is running.
//!
//! **Derived data.** A `Send` of [`Payload::Observed`] carries no member
//! block but the rank's *observed rows* of its `region` — `S = H·U` and
//! `D = Yˢ − H·X̄ᵇ`, derived once from the stage's blocks covering it — and
//! an `Await` files the rows it receives beside the block table. A
//! [`Update::Batched`] `Compute` assembles the whole network's `S`, `D`
//! from its own rows over `expansion` and every received block of rows,
//! and applies one batched transform to `X̄ᵇ` (D-EnKF, arXiv 2311.12909).
//!
//! **What a rank may mix.** Any of `Read`, `Send`, `Await`, `Compute`, in
//! any balanced order, staged or not — except that every `Await` is
//! followed, on its rank, by the `Compute` it gates and no other op first,
//! all of one rank's `Await`s are staged or none is (a helper thread owns
//! the rank's inbox, or the rank itself does), and observed rows are
//! received by unstaged `Await`s only. [`check`] enforces the static rules
//! before any thread starts.

use enkf_grid::{
    Decomposition, FileLayout, LocalizationRadius, Mesh, ObservationNetwork, RegionRect,
    SubDomainId,
};
use enkf_health::RouteView;
use enkf_tuning::Params;
use std::collections::BTreeMap;

/// Which variant a program describes (and a modeled campaign drives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelVariant {
    /// Single-reader baseline.
    LEnkf {
        /// Sub-domains along longitude.
        nsdx: usize,
        /// Sub-domains along latitude.
        nsdy: usize,
    },
    /// Block-reading baseline.
    PEnkf {
        /// Sub-domains along longitude.
        nsdx: usize,
        /// Sub-domains along latitude.
        nsdy: usize,
    },
    /// The co-designed variant.
    SEnkf(Params),
    /// The distributed-array non-sequential executor.
    DEnkf {
        /// State shards (= ranks).
        shards: usize,
    },
}

/// What a [`CycleOp::Send`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// `members` members' copies of `region`, bundled into one message.
    Blocks {
        /// The region every bundled block covers.
        region: RegionRect,
        /// Members in the bundle.
        members: usize,
    },
    /// The sender's observed rows of `region` (D-EnKF's exchanged data):
    /// `rows` observations' global indices plus their rows of `S` and `D`
    /// over the `members` surviving members.
    Observed {
        /// The region whose observations the rows are; the sender's last
        /// `members` blocks of the stage must cover it.
        region: RegionRect,
        /// Observations inside `region`.
        rows: usize,
        /// Surviving members (columns of `S` and `D`).
        members: usize,
    },
}

impl Payload {
    /// Wire size under `layout` — what the real tracer records and the
    /// pricer charges. Observed rows are 8 bytes of index plus two `f64`
    /// per member each.
    #[inline]
    pub fn bytes(&self, layout: &FileLayout) -> u64 {
        match *self {
            Payload::Blocks { region, members } => layout.region_bytes(&region) * members as u64,
            Payload::Observed { rows, members, .. } => 8 * (rows * (2 * members + 1)) as u64,
        }
    }
}

/// Which update a [`CycleOp::Compute`] applies to its `X̄ᵇ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// The point-wise local analysis of `target` from the observations
    /// near each point.
    Local,
    /// The batched update of the whole observation network (D-EnKF): one
    /// transform from the observed rows of every rank, applied to
    /// `expansion`, which must equal `target`. The interpreter's kernel
    /// for it travels beside the program; the pricer charges `work`.
    Batched,
}

/// One operation of a cycle program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleOp {
    /// Read `region` of member `member`'s file (retried, routed and
    /// rerouted by `enkf_pfs`, identically on both paths).
    Read {
        /// Multi-stage index, `None` for single-stage variants.
        stage: Option<usize>,
        /// Ensemble member.
        member: usize,
        /// Region to read.
        region: RegionRect,
    },
    /// Send `payload` to rank `to`.
    Send {
        /// Multi-stage index.
        stage: Option<usize>,
        /// Destination rank.
        to: usize,
        /// What travels.
        payload: Payload,
    },
    /// Block until `sends` messages addressed to this `(rank, stage)` have
    /// arrived; they gate the rank's next op, which must be a `Compute`.
    Await {
        /// Multi-stage index.
        stage: Option<usize>,
        /// Messages to wait for.
        sends: usize,
    },
    /// Analyze `target` from the data covering `expansion`.
    Compute {
        /// Multi-stage index.
        stage: Option<usize>,
        /// Points this analysis updates.
        target: RegionRect,
        /// Points whose background it needs.
        expansion: RegionRect,
        /// Modeled cost in grid-point units (`c` seconds each): the target's
        /// points for a local analysis; D-EnKF adds the observation rows
        /// its batched transform works through.
        work: usize,
        /// Local analysis or batched update.
        update: Update,
    },
}

impl CycleOp {
    /// The op's multi-stage index.
    #[inline]
    pub(crate) fn stage(&self) -> Option<usize> {
        match *self {
            CycleOp::Read { stage, .. }
            | CycleOp::Send { stage, .. }
            | CycleOp::Await { stage, .. }
            | CycleOp::Compute { stage, .. } => stage,
        }
    }
}

/// Everything a program is a function of, besides the variant.
#[derive(Debug, Clone, Copy)]
pub struct Geometry<'a> {
    /// Mesh and bytes per point (the vertical levels) of the member files.
    pub layout: FileLayout,
    /// Ensemble members (files `0..members`).
    pub members: usize,
    /// Localization radius.
    pub radius: LocalizationRadius,
    /// Sorted dropout set: these members' reads are still attempted, but
    /// nothing downstream carries them.
    pub dropped: &'a [usize],
    /// The health monitor's frozen view: members on blacklisted OSTs are
    /// read last. `None` reads in member order.
    pub view: Option<&'a RouteView>,
    /// The observation network; sizes D-EnKF's exchanged blocks. The other
    /// variants ignore it.
    pub network: Option<ObservedPoints<'a>>,
}

/// Where the observation network's points lie, as D-EnKF's emission counts
/// them: listed, or on a uniform lattice that is never listed.
#[derive(Debug, Clone, Copy)]
pub enum ObservedPoints<'a> {
    /// A network's points (the real executors pass their scenario's).
    Listed(&'a ObservationNetwork),
    /// [`ObservationNetwork::uniform`] of this stride, counted without
    /// building it (the pricer's).
    Uniform(usize),
}

impl ObservedPoints<'_> {
    /// The observed points each sub-domain of `decomp` holds, by rank: one
    /// pass over a listed network, O(1) per sub-domain of a lattice.
    fn per_subdomain(&self, decomp: &Decomposition) -> Vec<usize> {
        match *self {
            ObservedPoints::Listed(network) => {
                let mut counts = vec![0; decomp.num_subdomains()];
                for &p in network.points() {
                    if decomp.mesh().contains(p) {
                        counts[decomp.rank_of(decomp.owner_of(p))] += 1;
                    }
                }
                counts
            }
            ObservedPoints::Uniform(stride) => {
                // Multiples of `stride` in `lo..hi`: those below `hi` minus
                // those below `lo`.
                let axis = |lo: usize, hi: usize| hi.div_ceil(stride) - lo.div_ceil(stride);
                let in_rect = |r: RegionRect| axis(r.x0, r.x1) * axis(r.y0, r.y1);
                decomp
                    .iter_ids()
                    .map(|id| in_rect(decomp.subdomain(id)))
                    .collect()
            }
        }
    }
}

impl Geometry<'_> {
    fn member_order(&self, members: std::ops::Range<usize>) -> Vec<usize> {
        let members: Vec<usize> = members.collect();
        match self.view {
            Some(view) => view.reorder(&members),
            None => members,
        }
    }

    fn alive_in(&self, members: std::ops::Range<usize>) -> usize {
        members.filter(|k| !self.dropped.contains(k)).count()
    }
}

/// Why `rank`'s `op` lies outside a program of `ranks` ranks and `layers`
/// stages — it runs on no rank, sends to no rank, or is staged past the
/// last layer — or `None`. Both interpreters refuse such an op before they
/// index anything by it.
pub(crate) fn out_of_bounds(
    rank: usize,
    op: &CycleOp,
    ranks: usize,
    layers: usize,
) -> Option<&'static str> {
    if rank >= ranks {
        Some("runs on no rank of the program")
    } else if matches!(*op, CycleOp::Send { to, .. } if to >= ranks) {
        Some("sends to no peer")
    } else if op.stage().is_some_and(|l| l >= layers) {
        Some("is staged past the program's layers")
    } else {
        None
    }
}

/// Check an emitted `program` — `(rank, op)` in emission order over
/// `ranks` ranks and `layers` stages — against the rules both
/// interpreters rely on, before either runs it:
///
/// * **bounds** — every op runs on a rank of the program, sends to one,
///   and is staged below `layers`;
/// * **balance** — every `Await { stage, sends: n }` of rank `r` is fed by
///   exactly `n` earlier `Send`s to `(r, stage)`, and every `Send` is
///   awaited. The emission order is then a schedule that never blocks, so
///   the threaded interpreter cannot deadlock and the pricer's
///   dependencies are sound;
/// * **the block table** — a `Send` of `members` blocks or of observed
///   rows follows, on its rank, `Read`s or unstaged `Await`s of its stage
///   whose last `members` blocks cover its region (a dropped member's
///   `Read` yields no block, received observed rows are no block);
/// * **gates** — an `Await` is followed, on its rank, by a `Compute` before
///   any other op: the pricer makes the awaited messages that `Compute`'s
///   dependencies, so a `Read`, a `Send` or a second `Await` in between,
///   or no `Compute` at all, would be priced without the wait the real
///   rank blocks on;
/// * **staged `Await`s** — one rank's `Await`s are all staged or all not;
/// * **tiling** — the `Compute` targets cover every mesh point exactly
///   once.
pub fn check(
    geo: &Geometry<'_>,
    ranks: usize,
    layers: usize,
    program: &[(usize, CycleOp)],
) -> Result<(), String> {
    let mesh = geo.layout.mesh();
    let mut in_flight: BTreeMap<(usize, Option<usize>), Vec<Payload>> = BTreeMap::new();
    let mut acquired: BTreeMap<(usize, Option<usize>), Vec<RegionRect>> = BTreeMap::new();
    let mut staged_awaits: BTreeMap<usize, bool> = BTreeMap::new();
    let mut gated = vec![false; ranks];
    let mut covered = vec![false; mesh.n()];
    for &(rank, op) in program {
        if let Some(broken) = out_of_bounds(rank, &op, ranks, layers) {
            return Err(format!("rank {rank}'s {op:?} {broken}"));
        }
        let (stage, held) = (op.stage(), acquired.entry((rank, op.stage())).or_default());
        let broken = match op {
            CycleOp::Read { .. } | CycleOp::Send { .. } | CycleOp::Await { .. } if gated[rank] => {
                "follows an Await before the Compute it gates"
            }
            CycleOp::Read { member, region, .. } => {
                if !geo.dropped.contains(&member) {
                    held.push(region);
                }
                ""
            }
            CycleOp::Send { to, payload, .. } => {
                let (Payload::Blocks { region, members }
                | Payload::Observed {
                    region, members, ..
                }) = payload;
                in_flight.entry((to, stage)).or_default().push(payload);
                let last = held.len().checked_sub(members).map(|from| &held[from..]);
                if to == rank {
                    "sends to no peer"
                } else if !last.is_some_and(|last| last.iter().all(|b| b.contains_rect(&region))) {
                    "sends without blocks covering its region"
                } else {
                    ""
                }
            }
            CycleOp::Await { sends, .. } => {
                let fed = in_flight.remove(&(rank, stage)).unwrap_or_default();
                // Unstaged bundles enter the table; the helper thread
                // gathers staged ones straight into their stage's `X̄ᵇ`.
                for payload in fed.iter().filter(|_| stage.is_none()) {
                    if let Payload::Blocks { region, members } = *payload {
                        held.extend(std::iter::repeat_n(region, members));
                    }
                }
                if fed.len() != sends {
                    return Err(format!(
                        "unbalanced program: rank {rank}'s {op:?} is fed {}",
                        fed.len()
                    ));
                }
                gated[rank] = true;
                let staged = *staged_awaits.entry(rank).or_insert(stage.is_some());
                if staged != stage.is_some() {
                    "mixes staged and unstaged Awaits"
                } else {
                    ""
                }
            }
            CycleOp::Compute { target, .. } => {
                gated[rank] = false;
                let inside = RegionRect::full(mesh).contains_rect(&target);
                let mut points = target.iter_points();
                if !inside || points.any(|p| std::mem::replace(&mut covered[mesh.index(p)], true)) {
                    "analyzes a point twice or outside the mesh"
                } else {
                    ""
                }
            }
        };
        if !broken.is_empty() {
            return Err(format!("rank {rank}'s {op:?} {broken}"));
        }
    }
    if let Some(((to, stage), sends)) = in_flight.first_key_value() {
        let n = sends.len();
        return Err(format!(
            "unbalanced program: rank {to} never awaits {n} sends of {stage:?}"
        ));
    }
    let missed = covered.iter().filter(|&&c| !c).count();
    if missed > 0 {
        return Err(format!(
            "the Compute targets miss {missed} of {} points",
            mesh.n()
        ));
    }
    match gated.iter().position(|&g| g) {
        Some(rank) => Err(format!("rank {rank}'s last Await gates no Compute")),
        None => Ok(()),
    }
}

/// A source of cycle programs, as the two interpreters see it.
/// [`ModelVariant`] is the only implementor outside tests; the trait is the
/// seam through which a test runs a program no executor file knows.
pub trait Emitter {
    /// Lower-case name used in trace labels.
    fn name(&self) -> &'static str;

    /// Stages per cycle.
    fn layers(&self) -> usize;

    /// The program's `(compute, I/O)` rank counts on `mesh` with `members`
    /// members, or why it cannot run there. Compute ranks are
    /// `0..compute`, I/O ranks follow them.
    fn ranks(&self, mesh: Mesh, members: usize) -> Result<(usize, usize), String>;

    /// Emit the cycle program into `sink`, one `(rank, op)` at a time, in
    /// DES insertion order (see the module docs). Stops at the first sink
    /// error.
    fn emit(
        &self,
        geo: &Geometry<'_>,
        sink: &mut impl FnMut(usize, CycleOp) -> Result<(), String>,
    ) -> Result<(), String>;
}

impl Emitter for ModelVariant {
    fn name(&self) -> &'static str {
        match self {
            ModelVariant::LEnkf { .. } => "lenkf",
            ModelVariant::PEnkf { .. } => "penkf",
            ModelVariant::SEnkf(_) => "senkf",
            ModelVariant::DEnkf { .. } => "denkf",
        }
    }

    /// `L` for S-EnKF, 1 otherwise.
    fn layers(&self) -> usize {
        match *self {
            ModelVariant::SEnkf(p) => p.layers,
            _ => 1,
        }
    }

    fn ranks(&self, mesh: Mesh, members: usize) -> Result<(usize, usize), String> {
        self.validate(mesh, members)?;
        Ok(self.rank_counts())
    }

    fn emit(
        &self,
        geo: &Geometry<'_>,
        sink: &mut impl FnMut(usize, CycleOp) -> Result<(), String>,
    ) -> Result<(), String> {
        let decomp = self.validate(geo.layout.mesh(), geo.members)?;
        match *self {
            ModelVariant::PEnkf { .. } => emit_penkf(&decomp, geo, sink),
            ModelVariant::LEnkf { .. } => emit_lenkf(&decomp, geo, sink),
            ModelVariant::SEnkf(p) => emit_senkf(&decomp, p, geo, sink),
            ModelVariant::DEnkf { .. } => emit_denkf(&decomp, geo, sink),
        }
    }
}

impl ModelVariant {
    /// The variant's decomposition of `mesh`, validated against it and the
    /// ensemble size.
    fn validate(&self, mesh: Mesh, members: usize) -> Result<Decomposition, String> {
        let (nsdx, nsdy) = match *self {
            ModelVariant::LEnkf { nsdx, nsdy } | ModelVariant::PEnkf { nsdx, nsdy } => (nsdx, nsdy),
            ModelVariant::SEnkf(p) => (p.nsdx, p.nsdy),
            // Shards are full-width bars: the `1 × shards` decomposition.
            ModelVariant::DEnkf { shards } => (1, shards),
        };
        let decomp = Decomposition::new(mesh, nsdx, nsdy).map_err(|e| e.to_string())?;
        if let ModelVariant::SEnkf(p) = *self {
            decomp.check_layers(p.layers).map_err(|e| e.to_string())?;
            if p.ncg == 0 || !members.is_multiple_of(p.ncg) {
                return Err(format!("members {members} not divisible by n_cg {}", p.ncg));
            }
        }
        Ok(decomp)
    }

    /// The variant's `(compute, I/O)` rank counts. Compute ranks are
    /// `0..compute`, I/O ranks follow them.
    pub fn rank_counts(&self) -> (usize, usize) {
        match *self {
            ModelVariant::LEnkf { nsdx, nsdy } | ModelVariant::PEnkf { nsdx, nsdy } => {
                (nsdx * nsdy, 0)
            }
            ModelVariant::SEnkf(p) => (p.c2(), p.c1()),
            ModelVariant::DEnkf { shards } => (shards, 0),
        }
    }
}

/// One single-stage local analysis of sub-domain `id`.
fn local_analysis(decomp: &Decomposition, id: SubDomainId, geo: &Geometry<'_>) -> CycleOp {
    let target = decomp.subdomain(id);
    CycleOp::Compute {
        stage: None,
        target,
        expansion: decomp.expansion(id, geo.radius),
        work: target.npoints(),
        update: Update::Local,
    }
}

/// `rank` reads `region` of every member of `order`, in that order.
fn reads(
    sink: &mut impl FnMut(usize, CycleOp) -> Result<(), String>,
    rank: usize,
    stage: Option<usize>,
    order: &[usize],
    region: RegionRect,
) -> Result<(), String> {
    order.iter().try_for_each(|&member| {
        sink(
            rank,
            CycleOp::Read {
                stage,
                member,
                region,
            },
        )
    })
}

/// P-EnKF: every rank block-reads its expansion of every member file
/// (partial-width region: one disk addressing operation per latitude row —
/// the `O(n_y · n_sdx)` pattern of §4.1.1), then analyzes.
fn emit_penkf(
    decomp: &Decomposition,
    geo: &Geometry<'_>,
    sink: &mut impl FnMut(usize, CycleOp) -> Result<(), String>,
) -> Result<(), String> {
    let order = geo.member_order(0..geo.members);
    for (rank, id) in decomp.iter_ids().enumerate() {
        reads(sink, rank, None, &order, decomp.expansion(id, geo.radius))?;
        sink(rank, local_analysis(decomp, id, geo))?;
    }
    Ok(())
}

/// L-EnKF: rank 0 reads each full member file and scatters every other
/// rank its expansion block (a dropped member is read but not scattered);
/// each peer's analysis waits for one block per surviving member.
fn emit_lenkf(
    decomp: &Decomposition,
    geo: &Geometry<'_>,
    sink: &mut impl FnMut(usize, CycleOp) -> Result<(), String>,
) -> Result<(), String> {
    let full = RegionRect::full(decomp.mesh());
    let blocks: Vec<Payload> = decomp
        .iter_ids()
        .map(|id| Payload::Blocks {
            region: decomp.expansion(id, geo.radius),
            members: 1,
        })
        .collect();
    for member in geo.member_order(0..geo.members) {
        reads(sink, 0, None, &[member], full)?;
        if geo.dropped.contains(&member) {
            continue;
        }
        for (to, &payload) in blocks.iter().enumerate().skip(1) {
            let stage = None;
            sink(0, CycleOp::Send { stage, to, payload })?;
        }
    }
    let sends = geo.alive_in(0..geo.members);
    for (rank, id) in decomp.iter_ids().enumerate() {
        if rank > 0 {
            sink(rank, CycleOp::Await { stage: None, sends })?;
        }
        sink(rank, local_analysis(decomp, id, geo))?;
    }
    Ok(())
}

/// S-EnKF: per stage `l`, I/O rank `(g, j)` reads one single-seek small bar
/// per file of group `g` and sends each compute rank `(·, j)` its block,
/// bundled over the group's surviving files (a fully dropped group sends
/// nothing). Compute rank `(i, j)`'s stage-`l` analysis needs only the
/// stage-`l` bundles, so stage `l+1` I/O overlaps stage `l` computation
/// (Fig. 7).
fn emit_senkf(
    decomp: &Decomposition,
    p: Params,
    geo: &Geometry<'_>,
    sink: &mut impl FnMut(usize, CycleOp) -> Result<(), String>,
) -> Result<(), String> {
    let c2 = decomp.num_subdomains();
    let files_per_group = geo.members / p.ncg;
    let group = |g: usize| g * files_per_group..(g + 1) * files_per_group;
    for l in 0..p.layers {
        // What compute rank `r` needs of stage `l`, whichever group sends it.
        let blocks: Vec<RegionRect> = decomp
            .iter_ids()
            .map(|id| decomp.block_of_small_bar(id, l, p.layers, geo.radius))
            .collect();
        for g in 0..p.ncg {
            let order = geo.member_order(group(g));
            let alive = geo.alive_in(group(g));
            for j in 0..p.nsdy {
                let rank = c2 + g * p.nsdy + j;
                let bar = decomp.small_bar(j, l, p.layers, geo.radius);
                reads(sink, rank, Some(l), &order, bar)?;
                if alive == 0 {
                    continue;
                }
                for i in 0..p.nsdx {
                    let to = decomp.rank_of(SubDomainId { i, j });
                    let payload = Payload::Blocks {
                        region: blocks[to],
                        members: alive,
                    };
                    let stage = Some(l);
                    sink(rank, CycleOp::Send { stage, to, payload })?;
                }
            }
        }
    }
    let sends = (0..p.ncg).filter(|&g| geo.alive_in(group(g)) > 0).count();
    for (rank, id) in decomp.iter_ids().enumerate() {
        for l in 0..p.layers {
            sink(
                rank,
                CycleOp::Await {
                    stage: Some(l),
                    sends,
                },
            )?;
            let target = decomp.layer(id, l, p.layers);
            sink(
                rank,
                CycleOp::Compute {
                    stage: Some(l),
                    target,
                    expansion: decomp.layer_expansion(id, l, p.layers, geo.radius),
                    work: target.npoints(),
                    update: Update::Local,
                },
            )?;
        }
    }
    Ok(())
}

/// D-EnKF: every shard reads its full-width bar of every member file (one
/// disk addressing operation each) and sends every peer its observed rows
/// of the bar; the batched update — the whole network on every rank, then
/// the shard's own rows — waits for all of them.
fn emit_denkf(
    decomp: &Decomposition,
    geo: &Geometry<'_>,
    sink: &mut impl FnMut(usize, CycleOp) -> Result<(), String>,
) -> Result<(), String> {
    let network = geo
        .network
        .ok_or("the D-EnKF program needs the observation network")?;
    let shards = decomp.num_subdomains();
    let obs_rows = network.per_subdomain(decomp);
    let m_total: usize = obs_rows.iter().sum();
    let alive = geo.alive_in(0..geo.members);
    let order = geo.member_order(0..geo.members);
    for (rank, id) in decomp.iter_ids().enumerate() {
        let bar = decomp.subdomain(id);
        reads(sink, rank, None, &order, bar)?;
        let payload = Payload::Observed {
            region: bar,
            rows: obs_rows[rank],
            members: alive,
        };
        for to in (0..shards).filter(|&peer| peer != rank) {
            sink(
                rank,
                CycleOp::Send {
                    stage: None,
                    to,
                    payload,
                },
            )?;
        }
    }
    for (rank, id) in decomp.iter_ids().enumerate() {
        if shards > 1 {
            sink(
                rank,
                CycleOp::Await {
                    stage: None,
                    sends: shards - 1,
                },
            )?;
        }
        let bar = decomp.subdomain(id);
        sink(
            rank,
            CycleOp::Compute {
                stage: None,
                target: bar,
                expansion: bar,
                work: bar.npoints() + m_total,
                update: Update::Batched,
            },
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A uniform network's per-sub-domain counts are those of a scan
        /// over its listed points, on any mesh, stride and decomposition:
        /// the sub-domains start at every residue of the stride.
        #[test]
        fn uniform_counts_equal_the_scan_of_its_points(
            (nsdx, nsdy) in (1usize..=5, 1usize..=6),
            (cx, cy) in (1usize..=9, 1usize..=9),
            stride in 1usize..=12,
        ) {
            let mesh = Mesh::new(nsdx * cx, nsdy * cy);
            let network = ObservationNetwork::uniform(mesh, stride);
            let decomp = Decomposition::new(mesh, nsdx, nsdy).unwrap();
            let scan = ObservedPoints::Listed(&network).per_subdomain(&decomp);
            prop_assert_eq!(ObservedPoints::Uniform(stride).per_subdomain(&decomp), scan);
        }
    }

    /// Each rule of [`check`], broken once by mutating a well-formed
    /// program, is refused with its own error.
    #[test]
    fn check_refuses_every_broken_rule() {
        let mesh = Mesh::new(12, 8);
        let network = ObservationNetwork::uniform(mesh, 2);
        let geo = Geometry {
            layout: FileLayout::new(mesh, 8),
            members: 4,
            radius: LocalizationRadius { xi: 1, eta: 1 },
            dropped: &[],
            view: None,
            network: Some(ObservedPoints::Listed(&network)),
        };
        let emit = |variant: ModelVariant| {
            let mut ops = Vec::new();
            let mut sink = |rank, op| {
                ops.push((rank, op));
                Ok(())
            };
            variant.emit(&geo, &mut sink).map(|()| ops)
        };
        let lenkf = emit(ModelVariant::LEnkf { nsdx: 2, nsdy: 2 }).unwrap();
        let denkf = emit(ModelVariant::DEnkf { shards: 4 }).unwrap();
        assert_eq!(check(&geo, 4, 1, &lenkf), Ok(()));
        assert_eq!(check(&geo, 4, 1, &denkf), Ok(()));

        let mutated = |ops: &[(usize, CycleOp)], f: &dyn Fn(CycleOp) -> Option<CycleOp>| {
            let ops: Vec<_> = ops
                .iter()
                .filter_map(|&(r, op)| Some((r, f(op)?)))
                .collect();
            check(&geo, 4, 1, &ops).unwrap_err()
        };
        let refusals = [
            // An Await one long: the rank would wait forever.
            mutated(&lenkf, &|op| match op {
                CycleOp::Await { stage, sends } => Some(CycleOp::Await {
                    stage,
                    sends: sends + 1,
                }),
                op => Some(op),
            }),
            // Observed rows sent before the blocks they derive from.
            mutated(&denkf, &|op| match op {
                CycleOp::Read { .. } => None,
                op => Some(op),
            }),
            // A Compute dropped: its points are never analyzed.
            mutated(&lenkf, &|op| match op {
                CycleOp::Compute { target, .. } if target.x0 > 0 => None,
                op => Some(op),
            }),
            // Every rank analyzes the whole mesh: points analyzed twice.
            mutated(&denkf, &|op| match op {
                CycleOp::Compute {
                    stage,
                    expansion,
                    work,
                    update,
                    ..
                } => Some(CycleOp::Compute {
                    stage,
                    target: RegionRect::full(mesh),
                    expansion,
                    work,
                    update,
                }),
                op => Some(op),
            }),
        ];
        let expected = ["unbalanced", "without", "miss", "twice"];
        for (refusal, word) in refusals.iter().zip(expected) {
            assert!(refusal.contains(word), "{refusal}");
        }
        assert!(check(&geo, 3, 1, &lenkf)
            .unwrap_err()
            .contains("to no peer"));
    }
}
