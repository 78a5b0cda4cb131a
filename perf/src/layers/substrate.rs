//! `enkf-pfs`, `enkf-net`, `enkf-data` and `enkf-ckpt`: the substrates the
//! executors and the campaign supervisor stand on, driven directly with the
//! regions, payloads and member files this workload uses.

use super::Ctx;
use crate::stats::{median, overhead_frac};
use crate::workload::{Exec, Kind, Real, Workload};
use enkf_ckpt::{AsyncCheckpointer, CampaignCheckpoint, CheckpointStore};
use enkf_data::{write_ensemble, CycleConfig, CycledExperiment, ScenarioBuilder};
use enkf_fault::{FaultConfig, FaultInjector};
use enkf_grid::{Decomposition, RegionRect, SubDomainId};
use enkf_net::{Cluster, RankCtx};
use enkf_parallel::CkptMode;
use enkf_pfs::{read_region_resilient, read_stages_ahead, FileStore, RegionData, StageRead};
use enkf_trace::RankTracer;
use std::convert::Infallible;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The layer count the two-rank S-EnKF runs with.
const LAYERS: usize = 2;

fn read_all(store: &FileStore, members: usize, region: &RegionRect) {
    for k in 0..members {
        black_box(
            store
                .read_region(k, region)
                .expect("member files were written during set-up"),
        );
    }
}

/// `(seeks, bytes)` one pass of `read` adds to the store's accounting.
fn counted(store: &FileStore, read: impl FnOnce()) -> (f64, f64) {
    store.reset_stats();
    read();
    let st = store.stats();
    (st.seeks as f64, st.bytes_read as f64)
}

/// Reads and writes. `writes` is a second store, seeded with the ensemble,
/// so the inputs the executors read are never rewritten.
pub fn pfs(ctx: &mut Ctx<'_>, real: &Real, writes: &FileStore) -> Result<(), String> {
    let g = real.geometry;
    let (store, n) = (&real.store, g.members);
    let decomp = Decomposition::new(g.mesh(), 2, 1).map_err(|e| e.to_string())?;
    let bar = decomp.small_bar(0, 0, LAYERS, g.radius());
    let block = decomp.expansion(SubDomainId { i: 0, j: 0 }, g.radius());
    let full = RegionRect::full(g.mesh());
    let budget = ctx.light();

    // S-EnKF's unit of reading (a full-width bar, one seek), P-EnKF's (a
    // rank's block, one seek per row) and D-EnKF's / L-EnKF's (whole file).
    let bar_s = ctx.time_s("pfs.read_bar_s", budget, || read_all(store, n, &bar));
    let (seeks, bytes) = counted(store, || read_all(store, n, &bar));
    ctx.set("pfs.read_bar_seeks", seeks);
    ctx.set("pfs.read_bar_bytes", bytes);
    ctx.time_s("pfs.read_block_s", budget, || read_all(store, n, &block));
    let (seeks, bytes) = counted(store, || read_all(store, n, &block));
    ctx.set("pfs.read_block_seeks", seeks);
    ctx.set("pfs.read_block_bytes", bytes);
    let full_s = ctx.time_s("pfs.read_full_s", budget, || read_all(store, n, &full));
    let (_, full_bytes) = counted(store, || read_all(store, n, &full));
    ctx.set("pfs.read_gbps", full_bytes / full_s / 1e9);

    // The staged bar reads of one I/O rank through the read-ahead pipeline.
    let injector = FaultInjector::new(FaultConfig::none());
    let stages: Vec<StageRead> = (0..LAYERS)
        .map(|l| StageRead {
            stage: l,
            region: decomp.small_bar(0, l, LAYERS, g.radius()),
            members: (0..n).collect(),
        })
        .collect();
    ctx.time_s("pfs.readahead_s", budget, || {
        let mut tracer = RankTracer::new(0, Instant::now());
        read_stages_ahead::<Infallible>(
            store,
            &injector,
            &mut tracer,
            &stages,
            &[],
            |_, bars, _| {
                black_box(bars);
                Ok(())
            },
        )
        .expect("an empty fault plan injects nothing");
    });
    // The resilient read path under an empty plan, against the plain one.
    let resilient_s = ctx.time("pfs.resilient_empty_overhead_frac", budget, || {
        let mut tracer = RankTracer::new(0, Instant::now());
        for k in 0..n {
            black_box(
                read_region_resilient(store, &mut tracer, Some(0), k, &bar, &injector)
                    .expect("an empty fault plan injects nothing"),
            );
        }
    });
    ctx.set(
        "pfs.resilient_empty_overhead_frac",
        overhead_frac(resilient_s, bar_s),
    );

    // Write-back of a bar per member, and one durable (fsynced) member.
    let bars: Vec<RegionData> = (0..n)
        .map(|k| store.read_region(k, &bar).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let write_s = ctx.time_s("pfs.write_region_s", budget, || {
        for (k, data) in bars.iter().enumerate() {
            writes.write_region(k, data).expect("target member exists");
        }
    });
    let bar_bytes: f64 = bars.iter().map(|b| 8.0 * b.len() as f64).sum();
    ctx.set("pfs.write_gbps", bar_bytes / write_s / 1e9);
    let member = store.read_full(0).map_err(|e| e.to_string())?.to_vec();
    ctx.time_s("pfs.write_member_durable_s", budget, || {
        writes
            .write_member_durable(0, &member)
            .expect("scratch directory is writable");
    });
    Ok(())
}

/// Run `body` `iters` times on every rank of a `ranks`-rank cluster and
/// record the slowest rank's microseconds per iteration as metric `name`.
fn per_iter_us<M: Send>(
    ctx: &mut Ctx<'_>,
    name: &str,
    ranks: usize,
    iters: u64,
    body: impl Fn(&mut RankCtx<M>, u64) + Sync,
) {
    let id = ctx.spans.begin(name);
    let seconds = Cluster::run(ranks, |mut rank: RankCtx<M>| {
        let t = Instant::now();
        for i in 0..iters {
            body(&mut rank, i);
        }
        t.elapsed().as_secs_f64() / iters as f64
    })
    .into_iter()
    .fold(0.0, f64::max);
    ctx.spans.end(id);
    ctx.set(name, seconds * 1e6);
}

pub fn net(ctx: &mut Ctx<'_>, real: &Real) -> Result<(), String> {
    let g = real.geometry;
    let iters: u64 = if ctx.smoke { 20 } else { 2000 };
    const PEER_GONE: &str = "both ranks run the same number of iterations";

    per_iter_us::<u64>(ctx, "net.pingpong_us", 2, iters, |rank, i| {
        if rank.rank() == 0 {
            rank.send(1, i, i);
            rank.recv_match(1, i).expect(PEER_GONE);
        } else {
            rank.recv_match(0, i).expect(PEER_GONE);
            rank.send(0, i, i);
        }
    });

    // One bar fanned out to its two compute ranks: two O(1) view
    // extractions and two refcounted sends, no copy of the payload.
    let decomp = Decomposition::new(g.mesh(), 2, 1).map_err(|e| e.to_string())?;
    let bar = real
        .store
        .read_region(0, &decomp.small_bar(0, 0, LAYERS, g.radius()))
        .map_err(|e| e.to_string())?;
    let blocks: Vec<RegionRect> = decomp
        .iter_ids()
        .map(|id| decomp.block_of_small_bar(id, 0, LAYERS, g.radius()))
        .collect();
    let ranks = 1 + blocks.len();
    per_iter_us::<RegionData>(ctx, "net.bar_fanout_us", ranks, iters, |rank, i| {
        if rank.rank() == 0 {
            for (peer, block) in blocks.iter().enumerate() {
                rank.send(peer + 1, i, bar.extract(block));
            }
        } else {
            black_box(rank.recv_match(0, i).expect(PEER_GONE));
        }
    });

    per_iter_us::<u64>(ctx, "net.bcast_us", 2, iters, |rank, i| {
        let payload = (rank.rank() == 0).then_some(i);
        black_box(rank.broadcast(0, i, payload));
    });
    per_iter_us::<u64>(ctx, "net.gather_us", 2, iters, |rank, i| {
        black_box(rank.gather(0, i, i));
    });
    per_iter_us::<u64>(ctx, "net.allreduce_us", 2, iters, |rank, i| {
        // all_reduce uses tags `t` and `t + 1`.
        black_box(rank.all_reduce(2 * i, i, |a, b| a + b));
    });
    Ok(())
}

/// Input generation, the member-file write every campaign cycle pays, and
/// the supervisor's forecast step (truth, background and free-run
/// ensembles advanced one cycle, observations drawn).
pub fn data(ctx: &mut Ctx<'_>, w: &Workload, writes: &FileStore) -> Result<(), String> {
    let real = w.real();
    let g = real.geometry;
    let heavy = ctx.heavy();
    ctx.time_s("data.scenario_build_s", heavy, || {
        black_box(
            ScenarioBuilder::new(g.mesh())
                .members(g.members)
                .observation_stride(g.obs_stride)
                .seed(w.seed)
                .build(),
        );
    });
    ctx.time_s("data.write_ensemble_s", heavy, || {
        write_ensemble(writes, &real.scenario.ensemble).expect("scratch directory is writable");
    });
    let cycle = CycleConfig {
        obs_stride: g.obs_stride,
        ..CycleConfig::default()
    };
    let mut experiment = CycledExperiment::new(g.mesh(), g.members, cycle, w.seed);
    ctx.time_s("data.forecast_s", heavy, || {
        experiment
            .run_cycle(|background, _| Ok::<_, Infallible>(background.clone()))
            .expect("the identity analysis cannot fail");
    });
    Ok(())
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Checkpoint commit, restore, the asynchronous hand-over, and one extra
/// S-EnKF campaign in pipelined mode for the hidden/exposed split.
pub fn ckpt(ctx: &mut Ctx<'_>, w: &Workload) -> Result<(), String> {
    const FINGERPRINT: u64 = 7;
    let real = w.real();
    let store = CheckpointStore::create(w.dir().join("layer-ckpt")).map_err(|e| e.to_string())?;
    let truth = Arc::new(real.scenario.truth.clone());
    let ensemble = Arc::new(real.scenario.ensemble.clone());
    let mut cycle = 0;
    let mut next = || {
        cycle += 1;
        CampaignCheckpoint {
            cycle,
            seed: w.seed,
            members0: real.geometry.members,
            rng_cursor: 0,
            config_fp: FINGERPRINT,
            truth: Arc::clone(&truth),
            analysis: Arc::clone(&ensemble),
            free_run: Arc::clone(&ensemble),
            stats: Vec::new(),
            cycle_digests: Vec::new(),
        }
    };
    let heavy = ctx.heavy();
    let save_s = ctx.time_s("ckpt.save_s", heavy, || {
        store
            .save(&next(), None)
            .expect("scratch directory is writable");
    });
    let latest = *store
        .durable_cycles()
        .map_err(|e| e.to_string())?
        .last()
        .ok_or("no checkpoint became durable")?;
    let bytes = dir_bytes(&store.cycle_dir(latest)).map_err(|e| e.to_string())? as f64;
    ctx.set("ckpt.save_bytes", bytes);
    ctx.set("ckpt.save_mbps", bytes / 1e6 / save_s);
    ctx.time_s("ckpt.load_latest_s", heavy, || {
        black_box(
            store
                .load_latest(FINGERPRINT, None)
                .expect("the checkpoint just written verifies"),
        );
    });

    // The asynchronous writer: what the supervisor waits for at hand-over,
    // and what a drain barrier then costs.
    let id = ctx.spans.begin("ckpt.async_handover_us");
    let (mut handover, mut drain) = (Vec::new(), Vec::new());
    let result = std::thread::scope(|scope| {
        let writer = AsyncCheckpointer::spawn(scope, &store, RankTracer::new(0, Instant::now()));
        for _ in 0..heavy.min_samples {
            let snapshot = next();
            let t = Instant::now();
            writer.save_async(snapshot)?;
            handover.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            writer.drain().1?;
            drain.push(t.elapsed().as_secs_f64());
        }
        Ok::<_, std::io::Error>(())
    });
    ctx.spans.end(id);
    result.map_err(|e| format!("asynchronous checkpoint write: {e}"))?;
    ctx.set("ckpt.async_handover_us", median(&handover) * 1e6);
    ctx.set("ckpt.drain_s", median(&drain));

    let cycles = match w.spec.kind {
        Kind::Campaign { cycles } => cycles,
        Kind::Cycle | Kind::Des { .. } => 2,
    };
    let id = ctx.spans.begin("ckpt.pipelined_cycle_s");
    let pipelined = w.run_campaign(Exec::Senkf, cycles, CkptMode::Pipelined);
    ctx.spans.end(id);
    let (report, seconds) = pipelined?;
    let overlap = report.trace.ckpt_overlap();
    ctx.set("ckpt.pipelined_cycle_s", seconds / cycles as f64);
    ctx.set("ckpt.exposed_s", overlap.exposed);
    ctx.set("ckpt.hidden_s", overlap.hidden);
    Ok(())
}
