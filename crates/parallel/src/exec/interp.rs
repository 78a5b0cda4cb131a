//! The threaded interpreter of cycle programs.
//!
//! One rank body for every checked program — the semantics are
//! [`crate::program`]'s module docs: member blocks in a block table,
//! observed rows derived from them once and exchanged, local or batched
//! `Compute`s. What this file adds is the thread structure the ops' stages
//! allow:
//!
//! * every run of staged `Read`s goes through the one-stage read-ahead
//!   pipeline: a prefetch thread reads the next run while this thread
//!   executes the ops that follow the current one (Fig. 7, I/O side);
//! * the bundles of staged `Await`s are received by a helper thread that
//!   assembles each stage's `X̄ᵇ` while this thread analyzes an earlier
//!   stage (Fig. 8);
//! * unstaged ops run in program order on this thread alone (Fig. 4).

use crate::exec::{compute_dilation, next_msg, Cycle, Msg, RankOut};
use crate::program::{CycleOp, Payload, Update};
use enkf_core::{batched_transform, BatchedKernel, EnkfError, Observations, Result};
use enkf_data::gather_surface_into;
use enkf_fault::SubstrateError;
use enkf_grid::RegionRect;
use enkf_linalg::Matrix;
use enkf_net::RankCtx;
use enkf_pfs::resilient::dilate;
use enkf_pfs::{read_region_adaptive, read_stages_ahead_adaptive, ReadAheadError};
use enkf_pfs::{RegionData, StageRead};
use enkf_trace::{RankTracer, Role};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::mpsc;
use std::time::Instant;

/// What the helper thread tells its rank: stage `.0` is complete — `.1` is
/// its `X̄ᵇ` with the `.2` member columns the stage's bundles carried — or
/// the typed error that ended ingestion (an aborting peer with its reason,
/// a receive timeout, exited peers, a bundle that fits no stage).
type Handover = std::result::Result<(usize, Matrix, usize), SubstrateError>;

/// The helper thread of a rank with staged `Await`s (Fig. 8): receive the
/// `sends` bundles of every stage in `stages` (with its `X̄ᵇ` region),
/// gather each bundle into the stage's matrix — one row-tiled pass per
/// bundle, columns placed by member — and hand a stage over as soon as its
/// last bundle is in.
fn ingest(
    mut inbox: RankCtx<Msg>,
    tx: &mpsc::Sender<Handover>,
    stages: &BTreeMap<usize, (usize, Option<RegionRect>)>,
    alive: &[usize],
    timeout: Option<f64>,
) -> std::result::Result<(), SubstrateError> {
    let rank = inbox.rank();
    let misfit = |detail: &str| SubstrateError::HelperFailed {
        rank,
        detail: format!("received a bundle {detail}"),
    };
    let mut open: BTreeMap<usize, (Matrix, usize, usize)> = BTreeMap::new();
    for _ in 0..stages.values().map(|&(sends, _)| sends).sum() {
        let Msg::Blocks {
            stage: Some(l),
            members,
            data,
        } = next_msg(&mut inbox, timeout)?
        else {
            return Err(misfit("no staged Await expects"));
        };
        let Some(&(sends, Some(region))) = stages.get(&l) else {
            return Err(misfit("of a stage the rank does not await and compute"));
        };
        let bundle: Vec<(usize, RegionData)> = members.into_iter().zip(data).collect();
        let (cols, views) = columns(&bundle, alive, &region)
            .ok_or_else(|| misfit("that does not fit its stage"))?;
        let (xb, pending, filled) = open
            .entry(l)
            .or_insert_with(|| (Matrix::zeros(region.npoints(), alive.len()), sends, 0));
        gather_surface_into(xb, &cols, &views);
        *pending = pending.saturating_sub(1);
        *filled += cols.len();
        if *pending == 0 {
            if let Some((xb, _, filled)) = open.remove(&l) {
                if tx.send(Ok((l, xb, filled))).is_err() {
                    break; // the rank bailed out
                }
            }
        }
    }
    Ok(())
}

/// One rank's observed rows of a region: the global indices of the
/// observations inside it and their rows of `S = H·U` and
/// `D = Yˢ − H·X̄ᵇ` over the surviving members.
#[derive(Debug, Clone)]
pub(crate) struct ObsRows {
    rows: Vec<usize>,
    s: Matrix,
    d: Matrix,
}

impl ObsRows {
    /// Derive `region`'s rows from a stage's `blocks`, one per survivor in
    /// `alive`. `S` is `H·X̄ᵇ` minus its row means — a row mean only mixes
    /// within a row, so both matrices are local to the region.
    fn derive(
        blocks: &[(usize, RegionData)],
        alive: &[usize],
        region: &RegionRect,
        observations: &Observations,
    ) -> std::result::Result<ObsRows, String> {
        let (cols, views) = columns(blocks, alive, region)
            .filter(|_| blocks.len() == alive.len())
            .ok_or_else(|| format!("{region:?} lacks one block per survivor"))?;
        // `localize` and `indices_in` enumerate the same ascending global
        // order, so `rows[r]` is the global index of local row `r`.
        let obs = observations.localize(region);
        let rows = observations.operator().network().indices_in(region);
        if rows.len() != obs.len() {
            return Err(format!(
                "{region:?}: {} rows localized, {} indexed",
                obs.len(),
                rows.len()
            ));
        }
        let n = alive.len();
        let (mut s, mut d) = (Matrix::zeros(rows.len(), n), Matrix::zeros(rows.len(), n));
        let mut hx = vec![0.0; n];
        for (r, &point) in obs.local_rows.iter().enumerate() {
            for (&c, view) in cols.iter().zip(&views) {
                hx[c] = view.value(point, 0);
            }
            let mean = hx.iter().sum::<f64>() / n as f64;
            for (c, (&k, &h)) in alive.iter().zip(&hx).enumerate() {
                s[(r, c)] = h - mean;
                d[(r, c)] = obs.perturbed[(r, k)] - h;
            }
        }
        Ok(ObsRows { rows, s, d })
    }
}

/// The batched update of `xb` (D-EnKF's analysis): the whole network's `S`
/// and `D` assembled from every rank's observed `blocks`, one transform
/// `T = Sᵀ (S Sᵀ/(N−1) + R)⁻¹ D/(N−1)` with `kernel`, then
/// `Xᵃ = Xᵇ + U·T`, `U` being `Xᵇ` minus its row means.
fn batched_update(
    xb: &Matrix,
    blocks: &[ObsRows],
    observations: &Observations,
    kernel: Option<BatchedKernel>,
) -> Result<Matrix> {
    let (m, n) = (observations.len(), xb.ncols());
    let placed: usize = blocks.iter().map(|b| b.rows.len()).sum();
    let detail = || format!("a batched update of {placed} of {m} rows, kernel {kernel:?}");
    let kernel = kernel
        .filter(|_| placed == m)
        .ok_or_else(|| EnkfError::GeometryMismatch(detail()))?;
    let (mut s, mut d) = (Matrix::zeros(m, n), Matrix::zeros(m, n));
    for block in blocks {
        for (r, &g) in block.rows.iter().enumerate() {
            s.row_mut(g).copy_from_slice(block.s.row(r));
            d.row_mut(g).copy_from_slice(block.d.row(r));
        }
    }
    let t = batched_transform(&s, &d, observations.error_var(), kernel)?;
    let mut u = xb.clone();
    let means = u.row_means();
    u.subtract_row_vector(&means);
    let mut xa = xb.clone();
    xa.axpy(1.0, &u.matmul(&t)?)?;
    Ok(xa)
}

/// A stage's blocks as `X̄ᵇ` columns over `region`: each block's column
/// (its member's place among the survivors `alive`) and its view of
/// `region`; `None` if a block is foreign or does not cover `region`.
fn columns(
    blocks: &[(usize, RegionData)],
    alive: &[usize],
    region: &RegionRect,
) -> Option<(Vec<usize>, Vec<RegionData>)> {
    let placed = blocks.iter().map(|(k, block)| {
        let col = alive.binary_search(k).ok()?;
        let covers = block.region().contains_rect(region);
        covers.then(|| (col, block.extract(region)))
    });
    placed
        .collect::<Option<Vec<_>>>()
        .map(|placed| placed.into_iter().unzip())
}

/// What a rank's ops mutate.
struct Held {
    ctx: RankCtx<Msg>,
    /// The block table: per stage, the `(member, block)`s acquired for it,
    /// in acquisition order.
    blocks: BTreeMap<Option<usize>, Vec<(usize, RegionData)>>,
    /// Per stage, the observed rows this rank derived (of the region `.0`)
    /// and those its peers sent, until the batched `Compute` takes them.
    own_rows: BTreeMap<Option<usize>, (RegionRect, ObsRows)>,
    peer_rows: BTreeMap<Option<usize>, Vec<ObsRows>>,
    /// Stages the helper handed over, until their `Compute` takes them.
    ready: BTreeMap<usize, (Matrix, usize)>,
    /// The rank's straggler dilation, drawn at its first `Compute`.
    dilation: Option<f64>,
    analyzed: Vec<(RegionRect, Matrix)>,
}

/// Execute `ctx.rank()`'s ops of `cycle`'s program.
pub(crate) fn run_rank(
    cycle: &Cycle<'_>,
    mut ctx: RankCtx<Msg>,
    tracer: &mut RankTracer,
) -> RankOut {
    let rank = ctx.rank();
    if rank >= cycle.compute_ranks {
        tracer.set_role(Role::Io);
    }
    let (store, alive) = (cycle.setup.store, &cycle.alive);
    let layout = store.layout();
    let failed =
        |detail: String| -> EnkfError { SubstrateError::HelperFailed { rank, detail }.into() };

    // A planned crash kills the rank as it reaches the first op at or past
    // its crash stage (an unstaged op is past every stage): it executes
    // the ops before that one, then stops responding — peers must time out.
    let mut ops = &cycle.ops[rank][..];
    let crash = cycle.injector.crash_stage(rank);
    if let Some(crash) = crash {
        let dies_at = ops
            .iter()
            .position(|op| op.stage().is_none_or(|l| l >= crash));
        ops = &ops[..dies_at.unwrap_or(ops.len())];
    }

    // One pass over the ops for what must be known up front: the peers to
    // unblock on failure, where each stage's blocks can be released, what
    // the helper thread will receive, and the read-ahead plan — each run of
    // staged `Read`s of one region, with the ops it covers.
    let mut peers = BTreeSet::new();
    let mut last_use = BTreeMap::new();
    let mut awaited: BTreeMap<usize, (usize, Option<RegionRect>)> = BTreeMap::new();
    let mut plan: Vec<StageRead> = Vec::new();
    let mut runs: Vec<Range<usize>> = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            CycleOp::Read {
                stage: Some(stage),
                member,
                region,
            } => match (plan.last_mut(), runs.last_mut()) {
                (Some(sr), Some(run))
                    if run.end == i && sr.stage == stage && sr.region == region =>
                {
                    sr.members.push(member);
                    run.end = i + 1;
                }
                _ => {
                    let members = vec![member];
                    plan.push(StageRead {
                        stage,
                        region,
                        members,
                    });
                    runs.push(i..i + 1);
                }
            },
            CycleOp::Send { stage, to, .. } => {
                peers.insert(to);
                last_use.insert(stage, i);
            }
            CycleOp::Await {
                stage: Some(l),
                sends,
            } => awaited.entry(l).or_default().0 += sends,
            CycleOp::Compute {
                stage, expansion, ..
            } => {
                last_use.insert(stage, i);
                if let Some(entry) = stage.and_then(|l| awaited.get_mut(&l)) {
                    entry.1 = Some(expansion);
                }
            }
            CycleOp::Read { .. } | CycleOp::Await { .. } => {}
        }
    }

    // The helper thread owns the receive side from here on. It is joined
    // on success; a failing rank leaves it to end at its next message,
    // timeout or disconnect.
    let helper = (!awaited.is_empty()).then(|| {
        let (inbox, alive, timeout) = (ctx.split_receiver(), alive.clone(), cycle.timeout);
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            if let Err(e) = ingest(inbox, &tx, &awaited, &alive, timeout) {
                let _ = tx.send(Err(e));
            }
        });
        (rx, handle)
    });

    // Derive the rank's observed rows of `region` from its blocks of
    // `stage` — once, by the first op that needs them, outside any span.
    let derive = |held: &mut Held, stage: Option<usize>, region: RegionRect| -> Result<()> {
        if matches!(held.own_rows.get(&stage), Some((of, _)) if *of == region) {
            return Ok(());
        }
        let blocks = held.blocks.get(&stage).map_or(&[][..], Vec::as_slice);
        let rows = ObsRows::derive(blocks, alive, &region, cycle.setup.observations);
        held.own_rows.insert(stage, (region, rows.map_err(failed)?));
        Ok(())
    };

    // Execute op `i`.
    let step = |held: &mut Held, tracer: &mut RankTracer, i: usize| -> Result<()> {
        let op = ops[i];
        let foreign = || failed(format!("{op:?} cannot run in the {} program", cycle.name));
        match op {
            CycleOp::Read {
                stage,
                member,
                region,
            } => {
                let (injector, monitor) = (&cycle.injector, cycle.monitor);
                match read_region_adaptive(store, tracer, stage, member, &region, injector, monitor)
                {
                    Ok(block) => held.blocks.entry(stage).or_default().push((member, block)),
                    // A dropped member still burns its injected-failure
                    // spans, then yields no block.
                    Err(_) if cycle.dropped.contains(&member) => {}
                    Err(e) => return Err(e.into()),
                }
            }
            CycleOp::Send {
                stage,
                to,
                payload: payload @ Payload::Blocks { region, members },
            } => {
                let acquired = held.blocks.get(&stage).map_or(&[][..], Vec::as_slice);
                // `check` proved the last `members` blocks cover `region`;
                // extraction is O(1) per member: each block is a view
                // sharing its source's allocation.
                let from = acquired.len().checked_sub(members).ok_or_else(foreign)?;
                let bundle = &acquired[from..];
                let bytes = payload.bytes(&layout);
                cycle.send(tracer, &held.ctx, stage, to, bytes, || Msg::Blocks {
                    stage,
                    members: bundle.iter().map(|&(k, _)| k).collect(),
                    data: bundle.iter().map(|(_, b)| b.extract(&region)).collect(),
                });
            }
            CycleOp::Send {
                stage,
                to,
                payload: payload @ Payload::Observed { region, .. },
            } => {
                derive(held, stage, region)?;
                let own = held.own_rows.get(&stage).ok_or_else(foreign)?;
                let bytes = payload.bytes(&layout);
                let msg = || Msg::ObsBlock(own.1.clone());
                cycle.send(tracer, &held.ctx, stage, to, bytes, msg);
            }
            // One wait span over the `sends` messages; a peer's abort, a
            // timeout or exited peers end it typed (`next_msg`).
            CycleOp::Await { stage: None, sends } => tracer.wait(None, || {
                (0..sends).try_for_each(|_| match next_msg(&mut held.ctx, cycle.timeout)? {
                    Msg::Blocks {
                        stage,
                        members,
                        data,
                    } => {
                        let acquired = held.blocks.entry(stage).or_default();
                        acquired.extend(members.into_iter().zip(data));
                        Ok(())
                    }
                    Msg::ObsBlock(rows) => {
                        held.peer_rows.entry(None).or_default().push(rows);
                        Ok(())
                    }
                    Msg::Abort { .. } => Err(foreign()),
                })
            })?,
            CycleOp::Await { stage: Some(l), .. } => {
                let (rx, _) = helper.as_ref().ok_or_else(foreign)?;
                while !held.ready.contains_key(&l) {
                    let (done, xb, filled) = tracer
                        .wait(Some(l), || rx.recv())
                        .map_err(|_| failed("helper thread terminated early".into()))??;
                    held.ready.insert(done, (xb, filled));
                }
            }
            CycleOp::Compute {
                stage,
                target,
                expansion,
                update,
                ..
            } => {
                // A batched update takes the stage's observed rows: its own
                // (derived here if no `Send` did) and its peers'.
                let observed = match update {
                    Update::Local => None,
                    Update::Batched => {
                        derive(held, stage, expansion)?;
                        let own = held.own_rows.remove(&stage).map(|(_, own)| own);
                        let peers = held.peer_rows.remove(&stage).unwrap_or_default();
                        Some(own.into_iter().chain(peers).collect::<Vec<_>>())
                    }
                };
                let (xb, filled) = stage.and_then(|l| held.ready.remove(&l)).unzip();
                let acquired = held.blocks.get(&stage).map_or(&[][..], Vec::as_slice);
                // Typed, not a panic: a protocol violation (a missing,
                // shadowed or foreign block) must tear this rank down
                // cleanly, like every other substrate failure.
                let have = filled.unwrap_or(0) + acquired.len();
                if have != alive.len() {
                    let n = alive.len();
                    return Err(failed(format!(
                        "stage {stage:?} holds {have} of {n} member blocks"
                    )));
                }
                let (cols, views) = columns(acquired, alive, &expansion).ok_or_else(foreign)?;
                let dilation = *held
                    .dilation
                    .get_or_insert_with(|| compute_dilation(&cycle.injector, cycle.monitor, rank));
                let setup = cycle.setup;
                // One compute span, dilated by the rank's straggler factor.
                let xa = tracer.compute(stage, || {
                    let start = Instant::now();
                    // One row-tiled pass over every block this rank holds;
                    // the helper gathered the received ones per bundle.
                    let mut xb =
                        xb.unwrap_or_else(|| Matrix::zeros(expansion.npoints(), alive.len()));
                    gather_surface_into(&mut xb, &cols, &views);
                    let xa = match &observed {
                        Some(rows) => batched_update(&xb, rows, setup.observations, cycle.kernel),
                        None => {
                            let mut obs = setup.observations.localize(&expansion);
                            if !cycle.dropped.is_empty() {
                                obs = obs.select_members(alive);
                            }
                            let analysis = &setup.analysis;
                            analysis.analyze(setup.mesh(), &target, &expansion, &xb, &obs)
                        }
                    };
                    dilate(start, dilation);
                    xa
                })?;
                held.analyzed.push((target, xa));
            }
        }
        if last_use.get(&op.stage()) == Some(&i) {
            held.blocks.remove(&op.stage());
        }
        Ok(())
    };

    // Drive: the ops before the first read-ahead run, then each run through
    // the pipeline — its blocks enter the table and the ops up to the next
    // run execute while the prefetch thread reads that one.
    let mut held = Held {
        ctx,
        blocks: BTreeMap::new(),
        own_rows: BTreeMap::new(),
        peer_rows: BTreeMap::new(),
        ready: BTreeMap::new(),
        dilation: None,
        analyzed: Vec::new(),
    };
    let run = |held: &mut Held, tracer: &mut RankTracer, ops: Range<usize>| {
        ops.into_iter().try_for_each(|i| step(held, tracer, i))
    };
    let first = runs.first().map_or(ops.len(), |r| r.start);
    let mut next_run = 0;
    let done = run(&mut held, tracer, 0..first).and_then(|()| {
        read_stages_ahead_adaptive(
            store,
            &cycle.injector,
            tracer,
            &plan,
            &cycle.dropped,
            cycle.monitor,
            |sr, datas, tracer| {
                // The pipeline delivers the run's surviving members, in
                // plan order.
                let members = sr.members.iter().filter(|k| !cycle.dropped.contains(k));
                let acquired = held.blocks.entry(Some(sr.stage)).or_default();
                acquired.extend(members.copied().zip(datas));
                let after = runs[next_run].end;
                next_run += 1;
                let until = runs.get(next_run).map_or(ops.len(), |r| r.start);
                run(&mut held, tracer, after..until)
            },
        )
        .map_err(|e| match e {
            ReadAheadError::Read { error, .. } => error.into(),
            ReadAheadError::Consume(e) => e,
            // Contained prefetch-thread panic: a typed substrate error
            // instead of tearing down the executor.
            ReadAheadError::ReaderPanicked { message } => {
                failed(format!("prefetch thread panicked: {message}"))
            }
        })
    });
    if let Err(e) = done {
        // Unblock every peer counting on this rank's messages before
        // bailing out.
        for &peer in &peers {
            let reason = e.to_string();
            held.ctx.send(peer, 0, Msg::Abort { reason });
        }
        return Err(e);
    }
    if let Some(stage) = crash {
        return Err(SubstrateError::RankCrashed { rank, stage }.into());
    }
    if helper.is_some_and(|(_, handle)| handle.join().is_err()) {
        return Err(failed("helper thread panicked".into()));
    }
    Ok(held.analyzed)
}

#[cfg(test)]
mod tests {
    use crate::exec::setup::AssimilationSetup;
    use crate::exec::Cycle;
    use crate::model::{collect, price_cycle, ModelConfig};
    use crate::program::{CycleOp, Emitter, Geometry, Payload, Update};
    use crate::PEnkf;
    use enkf_core::{serial_enkf, EnkfError, LocalAnalysis};
    use enkf_data::{write_ensemble, ScenarioBuilder};
    use enkf_fault::FaultConfig;
    use enkf_grid::{Decomposition, FileLayout, LocalizationRadius, Mesh, RegionRect};
    use enkf_pfs::{FileStore, ScratchDir};
    use enkf_trace::{Op, OpTag, Role, Span, Trace};
    use enkf_tuning::Workload;

    /// The fifth program — one no executor file knows. Every rank owns a
    /// sub-domain analyzed in `LAYERS` stages; ranks 0 and 1 are also the
    /// *readers*: per stage, reader `r` reads its half of the members (whole
    /// files, for simplicity) and scatters every other rank its layer
    /// expansion of them, bundled. So a reader mixes staged `Read`s, `Send`s,
    /// `Await`s (one bundle, from the other reader) and `Compute`s whose
    /// `X̄ᵇ` is half read, half received; the other ranks await two bundles
    /// per stage. Ignores the dropout set (the test runs fault-free).
    struct TwoReaders {
        nsdx: usize,
        nsdy: usize,
        /// Bundles every non-reader awaits per stage beyond the two sent to
        /// it: 0 for the balanced program.
        extra: usize,
    }
    const LAYERS: usize = 2;

    impl TwoReaders {
        fn decomp(&self, mesh: Mesh, members: usize) -> Result<Decomposition, String> {
            let decomp =
                Decomposition::new(mesh, self.nsdx, self.nsdy).map_err(|e| e.to_string())?;
            decomp.check_layers(LAYERS).map_err(|e| e.to_string())?;
            if decomp.num_subdomains() < 2 || !members.is_multiple_of(2) {
                return Err("two readers need two ranks and an even ensemble".into());
            }
            Ok(decomp)
        }
    }

    impl Emitter for TwoReaders {
        fn name(&self) -> &'static str {
            "two-readers"
        }

        fn layers(&self) -> usize {
            LAYERS
        }

        fn ranks(&self, mesh: Mesh, members: usize) -> Result<(usize, usize), String> {
            Ok((self.decomp(mesh, members)?.num_subdomains(), 0))
        }

        fn emit(
            &self,
            geo: &Geometry<'_>,
            sink: &mut impl FnMut(usize, CycleOp) -> Result<(), String>,
        ) -> Result<(), String> {
            let decomp = self.decomp(geo.layout.mesh(), geo.members)?;
            let half = geo.members / 2;
            for reader in 0..2 {
                for l in 0..LAYERS {
                    let stage = Some(l);
                    for member in reader * half..(reader + 1) * half {
                        let region = RegionRect::full(decomp.mesh());
                        sink(
                            reader,
                            CycleOp::Read {
                                stage,
                                member,
                                region,
                            },
                        )?;
                    }
                    for (to, id) in decomp.iter_ids().enumerate() {
                        if to != reader {
                            let payload = Payload::Blocks {
                                region: decomp.layer_expansion(id, l, LAYERS, geo.radius),
                                members: half,
                            };
                            sink(reader, CycleOp::Send { stage, to, payload })?;
                        }
                    }
                }
            }
            for (rank, id) in decomp.iter_ids().enumerate() {
                for l in 0..LAYERS {
                    let stage = Some(l);
                    let sends = if rank < 2 { 1 } else { 2 + self.extra };
                    sink(rank, CycleOp::Await { stage, sends })?;
                    let target = decomp.layer(id, l, LAYERS);
                    sink(
                        rank,
                        CycleOp::Compute {
                            stage,
                            target,
                            expansion: decomp.layer_expansion(id, l, LAYERS, geo.radius),
                            work: target.npoints(),
                            update: Update::Local,
                        },
                    )?;
                }
            }
            Ok(())
        }
    }

    /// The operation digest of a program alone: every `Read`, `Send` and
    /// `Compute` as the span both interpreters record for it, in the role
    /// of its rank.
    fn projected_digest(program: &impl Emitter, geo: &Geometry<'_>) -> String {
        let mut trace = Trace::new("program");
        let (compute, _) = program.ranks(geo.layout.mesh(), geo.members).unwrap();
        program
            .emit(geo, &mut |rank, op| {
                let (layout, stage) = (&geo.layout, op.stage());
                let (op, bytes, seeks, peer, member) = match op {
                    CycleOp::Read { member, region, .. } => (
                        Op::Read,
                        layout.region_bytes(&region),
                        layout.seek_count(&region) as u64,
                        None,
                        Some(member),
                    ),
                    CycleOp::Send { to, payload, .. } => {
                        (Op::Send, payload.bytes(layout), 0, Some(to), None)
                    }
                    CycleOp::Compute { .. } => (Op::Compute, 0, 0, None, None),
                    CycleOp::Await { .. } => return Ok(()),
                };
                let tag = OpTag {
                    stage,
                    bytes,
                    seeks,
                    peer,
                    member,
                    ..OpTag::default()
                };
                let role = if rank < compute {
                    Role::Compute
                } else {
                    Role::Io
                };
                trace.push(Span::new(rank, role, op, 0.0, 0.0, tag));
                Ok(())
            })
            .unwrap();
        trace.digest()
    }

    const MESH: (usize, usize) = (12, 8);
    const MEMBERS: usize = 6;
    const RADIUS: LocalizationRadius = LocalizationRadius { xi: 2, eta: 1 };

    /// A member store and scenario of the tests' geometry.
    fn harness() -> (ScratchDir, FileStore, enkf_data::Scenario) {
        let mesh = Mesh::new(MESH.0, MESH.1);
        let scenario = ScenarioBuilder::new(mesh).members(MEMBERS).seed(18).build();
        let scratch = ScratchDir::new("fifth-program").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        (scratch, store, scenario)
    }

    fn setup<'a>(store: &'a FileStore, scenario: &'a enkf_data::Scenario) -> AssimilationSetup<'a> {
        AssimilationSetup {
            store,
            members: MEMBERS,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(RADIUS),
        }
    }

    /// The paper's machine pricing the tests' geometry.
    fn model_config() -> ModelConfig {
        ModelConfig {
            workload: Workload {
                nx: MESH.0,
                ny: MESH.1,
                members: MEMBERS,
                h: 8,
                xi: RADIUS.xi,
                eta: RADIUS.eta,
            },
            ..ModelConfig::paper()
        }
    }

    /// The tests' fault-free geometry, as the program sees it.
    fn geometry(layout: FileLayout) -> Geometry<'static> {
        Geometry {
            layout,
            members: MEMBERS,
            radius: RADIUS,
            dropped: &[],
            view: None,
            network: None,
        }
    }

    #[test]
    fn a_fifth_program_runs_through_both_interpreters() {
        let (_scratch, store, scenario) = harness();
        let setup = setup(&store, &scenario);
        let program = TwoReaders {
            nsdx: 3,
            nsdy: 2,
            extra: 0,
        };
        let none = FaultConfig::none();

        let (analysis, report, real) = Cycle::run(&setup, &program, None, &none, None).unwrap();
        assert_eq!((report.num_compute_ranks, report.num_io_ranks), (6, 0));
        assert!(report.compute_ranks.read > 0.0 && report.compute_ranks.comm > 0.0);
        // (a) the serial point-wise reference, (b) P-EnKF on the same mesh:
        // the analysis does not depend on who read what or in how many stages.
        let reference = serial_enkf(&scenario.ensemble, &scenario.observations, RADIUS).unwrap();
        assert!(analysis.states().approx_eq(reference.states(), 1e-12));
        let (penkf, _) = PEnkf { nsdx: 3, nsdy: 2 }.run(&setup).unwrap();
        assert!(analysis.states().approx_eq(penkf.states(), 1e-12));

        // (c) what the threaded interpreter traced is what the pricer traced
        // is what the program says.
        let opts = Default::default();
        let (outcome, model) =
            price_cycle(&model_config(), &program, None, opts, &none, None, collect).unwrap();
        assert_eq!(outcome.num_compute_ranks, 6);
        let projected = projected_digest(&program, &geometry(store.layout()));
        assert_eq!(projected, real.digest(), "real trace");
        assert_eq!(projected, model.digest(), "model trace");
    }

    /// The smallest program whose I/O rank awaits and computes: compute
    /// rank 0 reads every member whole and sends the bundle to I/O rank 1,
    /// which analyzes the whole mesh from it. `Some` shape moves one op off
    /// the program's two ranks or its one stage.
    struct IoRank(Option<Beyond>);

    /// Where [`IoRank`] leaves its bounds.
    #[derive(Debug, Clone, Copy)]
    enum Beyond {
        /// A read runs on rank 2.
        Rank,
        /// Rank 0 sends to rank 2.
        Peer,
        /// Rank 0 sends at stage 1.
        Stage,
    }

    impl Emitter for IoRank {
        fn name(&self) -> &'static str {
            "io-rank"
        }

        fn layers(&self) -> usize {
            1
        }

        fn ranks(&self, _: Mesh, _: usize) -> Result<(usize, usize), String> {
            Ok((1, 1))
        }

        fn emit(
            &self,
            geo: &Geometry<'_>,
            sink: &mut impl FnMut(usize, CycleOp) -> Result<(), String>,
        ) -> Result<(), String> {
            let region = RegionRect::full(geo.layout.mesh());
            let read = |member| CycleOp::Read {
                stage: None,
                member,
                region,
            };
            if let Some(Beyond::Rank) = self.0 {
                sink(2, read(0))?;
            }
            for member in 0..geo.members {
                sink(0, read(member))?;
            }
            let (stage, to) = match self.0 {
                Some(Beyond::Peer) => (None, 2),
                Some(Beyond::Stage) => (Some(1), 1),
                _ => (None, 1),
            };
            let payload = Payload::Blocks {
                region,
                members: geo.members,
            };
            sink(0, CycleOp::Send { stage, to, payload })?;
            sink(1, CycleOp::Await { stage, sends: 1 })?;
            let compute = CycleOp::Compute {
                stage: None,
                target: region,
                expansion: region,
                work: region.npoints(),
                update: Update::Local,
            };
            sink(1, compute)
        }
    }

    /// An I/O rank that awaits and computes runs on both interpreters: the
    /// pricer gives every rank, not only the compute ranks, a NIC.
    #[test]
    fn an_io_rank_may_await_and_compute() {
        let (_scratch, store, scenario) = harness();
        let setup = setup(&store, &scenario);
        let (program, none) = (IoRank(None), FaultConfig::none());
        let (analysis, report, real) = Cycle::run(&setup, &program, None, &none, None).unwrap();
        assert_eq!((report.num_compute_ranks, report.num_io_ranks), (1, 1));
        let reference = serial_enkf(&scenario.ensemble, &scenario.observations, RADIUS).unwrap();
        assert!(analysis.states().approx_eq(reference.states(), 1e-12));
        let opts = Default::default();
        let (outcome, model) =
            price_cycle(&model_config(), &program, None, opts, &none, None, collect).unwrap();
        assert_eq!((outcome.num_compute_ranks, outcome.num_io_ranks), (1, 1));
        let projected = projected_digest(&program, &geometry(store.layout()));
        assert_eq!(projected, real.digest(), "real trace");
        assert_eq!(projected, model.digest(), "model trace");
    }

    /// An op on a rank the program does not have, a send to one, or an op
    /// staged past the program's layers is refused, typed and with the same
    /// message, by both interpreters — before either indexes a rank or a
    /// mailbox by it.
    #[test]
    fn an_op_beyond_the_programs_ranks_or_stages_is_refused() {
        let (_scratch, store, scenario) = harness();
        let setup = setup(&store, &scenario);
        let none = FaultConfig::none();
        for (shape, expected) in [
            (Beyond::Rank, "runs on no rank"),
            (Beyond::Peer, "sends to no peer"),
            (Beyond::Stage, "staged past the program's layers"),
        ] {
            let program = IoRank(Some(shape));
            let real = match Cycle::run(&setup, &program, None, &none, None) {
                Err(EnkfError::GeometryMismatch(e)) if e.contains(expected) => e,
                other => panic!("{shape:?}: {:?}", other.map(|_| ())),
            };
            let opts = Default::default();
            let model = price_cycle(&model_config(), &program, None, opts, &none, None, collect);
            assert_eq!(model.map(|_| ()), Err(real), "{shape:?}");
        }
    }

    /// A program that awaits one bundle more than it is sent is refused,
    /// typed, before any thread starts — it never reaches the interpreter,
    /// whose blocked receive would otherwise wait on peers. The watchdog
    /// turns a hang into a failure.
    #[test]
    fn an_unbalanced_program_is_refused_before_any_thread_starts() {
        let (tx, rx) = std::sync::mpsc::channel();
        let watched = std::thread::spawn(move || {
            let (_scratch, store, scenario) = harness();
            let program = TwoReaders {
                nsdx: 3,
                nsdy: 2,
                extra: 1,
            };
            let none = FaultConfig::none();
            let run = Cycle::run(&setup(&store, &scenario), &program, None, &none, None);
            let _ = tx.send(run.map(|_| ()));
        });
        let refused = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the unbalanced program hung the interpreter");
        watched.join().unwrap();
        assert!(
            matches!(&refused, Err(EnkfError::GeometryMismatch(e)) if e.contains("unbalanced")),
            "{refused:?}"
        );
    }

    /// The ways a program can misplace an `Await`, each a reshaping of the
    /// balanced [`TwoReaders`] program that keeps it balanced.
    #[derive(Debug, Clone, Copy)]
    enum Misplaced {
        /// Every rank awaits stage 1 before computing stage 0: two
        /// `Await`s before one `Compute`.
        TwoAwaits,
        /// Rank 2 reads a file between its stage-0 `Await` and `Compute`.
        ReadAfter,
        /// Rank 2 sends rank 3 an empty stage-1 bundle between its stage-0
        /// `Await` and `Compute` (rank 3 awaits one bundle more).
        SendAfter,
        /// Rank 2 computes stage 1 before awaiting it: its last `Await`
        /// gates nothing.
        Trailing,
    }

    /// [`TwoReaders`] reshaped so that one `Await` does not directly gate
    /// a `Compute` of its rank.
    struct Reshaped(Misplaced);

    impl Emitter for Reshaped {
        fn name(&self) -> &'static str {
            "reshaped"
        }

        fn layers(&self) -> usize {
            LAYERS
        }

        fn ranks(&self, mesh: Mesh, members: usize) -> Result<(usize, usize), String> {
            BALANCED.ranks(mesh, members)
        }

        fn emit(
            &self,
            geo: &Geometry<'_>,
            sink: &mut impl FnMut(usize, CycleOp) -> Result<(), String>,
        ) -> Result<(), String> {
            let mut ops = Vec::new();
            BALANCED.emit(geo, &mut |rank, op| {
                ops.push((rank, op));
                Ok(())
            })?;
            // Where `rank`'s `Await` (or `Compute`) of `stage` is.
            let at = |ops: &[(usize, CycleOp)], rank, awaits: bool, stage| {
                let of = |op: &CycleOp| match op {
                    CycleOp::Await { .. } => awaits,
                    CycleOp::Compute { .. } => !awaits,
                    _ => false,
                };
                let found = ops
                    .iter()
                    .position(|(r, op)| *r == rank && op.stage() == Some(stage) && of(op));
                found.unwrap()
            };
            let mesh = geo.layout.mesh();
            match self.0 {
                Misplaced::TwoAwaits => {
                    for rank in 0..BALANCED.nsdx * BALANCED.nsdy {
                        let compute = at(&ops, rank, false, 0);
                        ops.swap(compute, compute + 1);
                    }
                }
                Misplaced::ReadAfter => {
                    let read = CycleOp::Read {
                        stage: None,
                        member: 0,
                        region: RegionRect::full(mesh),
                    };
                    ops.insert(at(&ops, 2, true, 0) + 1, (2, read));
                }
                Misplaced::SendAfter => {
                    let payload = Payload::Blocks {
                        region: RegionRect::full(mesh),
                        members: 0,
                    };
                    let (stage, to) = (Some(1), 3);
                    let i = at(&ops, 3, true, 1);
                    if let CycleOp::Await { sends, .. } = &mut ops[i].1 {
                        *sends += 1;
                    }
                    let send = CycleOp::Send { stage, to, payload };
                    ops.insert(at(&ops, 2, true, 0) + 1, (2, send));
                }
                Misplaced::Trailing => {
                    let compute = at(&ops, 2, false, 1);
                    ops.swap(compute - 1, compute);
                }
            }
            ops.into_iter().try_for_each(|(rank, op)| sink(rank, op))
        }
    }

    const BALANCED: TwoReaders = TwoReaders {
        nsdx: 3,
        nsdy: 2,
        extra: 0,
    };

    /// An `Await` gates its rank's next op, which must be the `Compute` it
    /// feeds; every other shape — a second `Await`, a `Read` or a `Send`
    /// first, no `Compute` at all — is refused by both interpreters, typed,
    /// with the same message: by the rules both step, before any thread of
    /// `run_cycle`'s body starts and before `model_cycle`'s pricer runs.
    #[test]
    fn an_await_must_gate_the_next_op_of_its_rank() {
        let (_scratch, store, scenario) = harness();
        let setup = setup(&store, &scenario);
        let cfg = model_config();
        let none = FaultConfig::none();
        for shape in [
            Misplaced::TwoAwaits,
            Misplaced::ReadAfter,
            Misplaced::SendAfter,
            Misplaced::Trailing,
        ] {
            let expected = match shape {
                Misplaced::Trailing => "gates no Compute",
                _ => "before the Compute it gates",
            };
            let program = Reshaped(shape);
            let real = match Cycle::run(&setup, &program, None, &none, None) {
                Err(EnkfError::GeometryMismatch(e)) if e.contains(expected) => e,
                other => panic!("{shape:?}: {:?}", other.map(|_| ())),
            };
            let opts = Default::default();
            let model = price_cycle(&cfg, &program, None, opts, &none, None, collect);
            assert_eq!(model.map(|_| ()), Err(real), "{shape:?}");
        }
    }
}
