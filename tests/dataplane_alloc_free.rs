//! Counting-allocator proof that the steady-state data-plane paths
//! perform no (payload) heap allocation.
//!
//! Three pinned guarantees:
//!
//! * The read → extract → gather → analyze cycle: one warm cycle fills the
//!   store's slab pool, the open-file-handle cache, the reused `X̄ᵇ`
//!   matrices and the analysis workspace high-water marks; a second
//!   identical cycle must then complete without a single call into the
//!   global allocator — with full-level reads, and with the executors'
//!   surface reads issued from a thread spawned afresh every pass.
//! * Alternating large and small reads on one store reuse the pool's
//!   slabs once warm.
//! * The checkpoint encode → durable-write sweep
//!   ([`s_enkf::ckpt::MemberEncoder`]): the member column gather buffer is
//!   reused and its bytes are written through a view, never staged, so a
//!   steady-state sweep performs no payload-sized allocation — only the
//!   handful of small path strings the temp + rename protocol inherently
//!   builds per file.
//!
//! The allocator tracks calls, bytes, and the largest single request so
//! the second guarantee can be stated precisely: "no allocation as large
//! as a member payload, and total bytes far below the payload swept".

use s_enkf::core::{
    AnomalyGram, Ensemble, LocalAnalysis, LocalAnalysisWorkspace, LocalObsIndex, LocalObservations,
    ObservationOperator, Observations, PerturbedObservations, PointInputs,
};
use s_enkf::data::gather_surface_into;
use s_enkf::grid::{FileLayout, LocalizationRadius, Mesh, ObservationNetwork, RegionRect};
use s_enkf::linalg::Matrix;
use s_enkf::pfs::{FileStore, RegionData, ScratchDir};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting, per thread, every allocation-side
/// call, the bytes it requested, and the largest single request. Per
/// thread, so that tests running in parallel, and the test harness
/// spawning their threads, never count each other.
struct CountingAlloc;

#[derive(Clone, Copy)]
struct Counts {
    calls: usize,
    bytes: usize,
    largest: usize,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts {
            calls: 0,
            bytes: 0,
            largest: 0,
        })
    };
}

/// The calling thread's counts so far.
fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

fn thread_allocations() -> usize {
    counts().calls
}

fn count(size: usize) {
    // A thread being torn down has no counter left to bump.
    let _ = COUNTS.try_with(|c| {
        let Counts {
            calls,
            bytes,
            largest,
        } = c.get();
        c.set(Counts {
            calls: calls + 1,
            bytes: bytes + size,
            largest: largest.max(size),
        });
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One compute rank's share of the cycle: its sub-domain, the expansion
/// its local analysis reads, and everything it reuses from cycle to cycle.
struct Rank {
    target: RegionRect,
    expansion: RegionRect,
    obs: LocalObservations,
    index: LocalObsIndex,
    /// `X̄ᵇ` over `expansion`, gathered into in place.
    xb: Matrix,
    gram: AnomalyGram,
}

/// The buffers one cycle runs in, all at steady-state capacity after the
/// warm pass.
struct Buffers {
    bars: Vec<RegionData>,
    views: Vec<RegionData>,
    cols: Vec<usize>,
    ws: LocalAnalysisWorkspace,
    out_row: Vec<f64>,
}

/// One steady-state S-EnKF-shaped cycle over pre-sized buffers: read every
/// member's full-width bar straight into a pooled slab (single seek), then
/// [`analyze_bars`]. Returns a checksum so nothing is optimized away.
fn cycle(
    store: &FileStore,
    bar: &RegionRect,
    ranks: &mut [Rank],
    analysis: &LocalAnalysis,
    buf: &mut Buffers,
) -> f64 {
    for k in 0..buf.cols.len() {
        buf.bars.push(store.read_region(k, bar).unwrap());
    }
    analyze_bars(store, ranks, analysis, buf)
}

/// The executors' cycle: every member's bar is read by
/// [`FileStore::read_surface`] on a thread spawned for this pass (as the
/// read-ahead thread and the rank threads are, once per cycle), then
/// [`analyze_bars`] runs on the caller. Returns the checksum and the
/// allocations the reader thread's reads and the caller's analysis made —
/// spawning and joining the thread is not counted.
fn surface_cycle(
    store: &FileStore,
    bar: &RegionRect,
    ranks: &mut [Rank],
    analysis: &LocalAnalysis,
    buf: &mut Buffers,
) -> (f64, usize) {
    let (members, bars) = (buf.cols.len(), &mut buf.bars);
    let reads = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let before = thread_allocations();
                for k in 0..members {
                    bars.push(store.read_surface(k, bar).unwrap());
                }
                thread_allocations() - before
            })
            .join()
            .unwrap()
    });
    assert!(buf.bars.iter().all(|b| b.levels() == 1), "surface views");
    let before = thread_allocations();
    let checksum = analyze_bars(store, ranks, analysis, buf);
    (checksum, reads + thread_allocations() - before)
}

/// Cut the read bars into the ranks' expansion blocks (O(1) strided
/// views), gather each rank's `X̄ᵇ` with the shared row-tiled gather, then
/// run the executors' point-wise local analysis (shared anomalies + Gram
/// table rebuilt in place, then the per-point kernel) into a caller-owned
/// row, and drop the bars.
fn analyze_bars(
    store: &FileStore,
    ranks: &mut [Rank],
    analysis: &LocalAnalysis,
    buf: &mut Buffers,
) -> f64 {
    let mesh = store.layout().mesh();
    let mut checksum = 0.0;
    for rank in ranks.iter_mut() {
        buf.views
            .extend(buf.bars.iter().map(|b| b.extract(&rank.expansion)));
        debug_assert!(buf.views[0].shares_backing(&buf.bars[0]), "zero-copy");
        debug_assert!(buf.views[0].as_contiguous().is_none(), "strided view");
        gather_surface_into(&mut rank.xb, &buf.cols, &buf.views);
        buf.views.clear();
        // What `LocalAnalysis::analyze` does per call, minus its output
        // matrix.
        rank.gram
            .rebuild(&rank.xb, &rank.expansion, &rank.obs, analysis.radius);
        for p in rank.target.iter_points() {
            let io = PointInputs {
                mesh,
                expansion: &rank.expansion,
                xb: &rank.xb,
                obs: &rank.obs,
                index: &rank.index,
                gram: &rank.gram,
            };
            analysis
                .analyze_points_into(&io, &[p], &mut buf.ws, &mut buf.out_row)
                .unwrap();
            checksum += buf.out_row[0];
        }
    }
    buf.bars.clear(); // slabs return to the pool
    checksum
}

/// A store of `members` three-level members on a 16 × 8 mesh, its two
/// compute ranks, their analysis, the full-width bar they share and the
/// cycle's buffers.
fn dataplane(
    scratch: &ScratchDir,
    members: usize,
) -> (FileStore, Vec<Rank>, LocalAnalysis, RegionRect, Buffers) {
    let mesh = Mesh::new(16, 8);
    let levels = 3; // the surface is every third value of a row
    let radius = LocalizationRadius { xi: 2, eta: 2 };
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8 * levels)).unwrap();
    for k in 0..members {
        let v: Vec<f64> = (0..mesh.n() * levels as usize)
            .map(|i| ((i + 3 * k) as f64 * 0.37).sin())
            .collect();
        store.write_member(k, &v).unwrap();
    }

    let net = ObservationNetwork::uniform(mesh, 3);
    let op = ObservationOperator::new(net);
    let m = op.len();
    let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.23).cos()).collect();
    let observations = Observations::new(
        op,
        values,
        vec![0.1; m],
        PerturbedObservations::new(0x5EED, members),
    );
    observations.prepare();

    // Two sub-domains side by side; their expansions overlap and together
    // span the full-width bar the I/O side reads with one seek.
    let analysis = LocalAnalysis::new(radius);
    let cell = radius.xi.max(radius.eta).max(1);
    let ranks: Vec<Rank> = [RegionRect::new(0, 8, 2, 6), RegionRect::new(8, 16, 2, 6)]
        .into_iter()
        .map(|target| {
            let expansion = target.expand(radius, mesh);
            let obs = observations.localize(&expansion);
            Rank {
                target,
                expansion,
                index: LocalObsIndex::build(&obs, &expansion, cell),
                obs,
                xb: Matrix::zeros(expansion.npoints(), members),
                gram: AnomalyGram::default(),
            }
        })
        .collect();
    let bar = RegionRect::new(0, 16, 0, 8);
    assert!(ranks.iter().all(|r| bar.contains_rect(&r.expansion)));
    let buf = Buffers {
        bars: Vec::with_capacity(members),
        views: Vec::with_capacity(members),
        cols: (0..members).collect(),
        ws: LocalAnalysisWorkspace::new(),
        out_row: vec![0.0; members],
    };
    (store, ranks, analysis, bar, buf)
}

#[test]
fn read_extract_gather_analyze_cycle_is_allocation_free_at_steady_state() {
    let scratch = ScratchDir::new("dataplane-alloc").unwrap();
    let (store, mut ranks, analysis, bar, mut buf) = dataplane(&scratch, 6);

    // Warm cycle: pool slabs, file handles and workspace buffers all reach
    // their steady-state capacity.
    let warm = cycle(&store, &bar, &mut ranks, &analysis, &mut buf);
    assert!(warm.is_finite());

    let before = thread_allocations();
    let steady = cycle(&store, &bar, &mut ranks, &analysis, &mut buf);
    let after = thread_allocations();

    assert_eq!(steady, warm, "cycles are deterministic");
    assert_eq!(
        after - before,
        0,
        "steady-state read→extract→gather→analyze cycle allocated {} times",
        after - before
    );
}

/// The executors' path: each pass reads the surfaces on a freshly spawned
/// thread. The store pools the bounce buffer the reads stream through, so
/// after one warm pass neither the reader thread nor the analysis
/// allocates — a bounce buffer per thread would allocate on every pass.
#[test]
fn surface_read_cycle_on_a_fresh_thread_is_allocation_free_at_steady_state() {
    let scratch = ScratchDir::new("dataplane-surface-alloc").unwrap();
    let (store, mut ranks, analysis, bar, mut buf) = dataplane(&scratch, 6);
    let (warm, _) = surface_cycle(&store, &bar, &mut ranks, &analysis, &mut buf);
    assert!(warm.is_finite());
    // The full-level path gathers the same surface.
    assert_eq!(cycle(&store, &bar, &mut ranks, &analysis, &mut buf), warm);
    for pass in 0..3 {
        let (steady, allocations) = surface_cycle(&store, &bar, &mut ranks, &analysis, &mut buf);
        assert_eq!(steady, warm, "cycles are deterministic");
        assert_eq!(
            allocations, 0,
            "steady-state surface cycle {pass} allocated {allocations} times"
        );
    }
}

/// One pool holds full-level slabs, surface slabs and bounce buffers; a
/// read takes the smallest free slab that covers it, so alternating
/// large and small reads reuse what they grew instead of growing a small
/// slab for a large read.
#[test]
fn alternating_large_and_small_reads_are_allocation_free_once_warm() {
    let mesh = Mesh::new(64, 32);
    // 30 levels: a full-level member (480 KiB) outgrows the 256 KiB bounce
    // buffer, a bar's surface (4 KiB) is far smaller than either.
    let levels = 30;
    let scratch = ScratchDir::new("dataplane-mixed-alloc").unwrap();
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8 * levels)).unwrap();
    for k in 0..2 {
        let v: Vec<f64> = (0..mesh.n() * levels as usize)
            .map(|i| (i + k) as f64)
            .collect();
        store.write_member(k, &v).unwrap();
    }
    let (full, bar) = (RegionRect::full(mesh), RegionRect::new(0, 64, 8, 16));
    // A surface read, a full-level read and a surface read, held together:
    // a slab and a bounce buffer, a large slab, a slab and the bounce
    // buffer again. Under a first fit, the large read grows the pass
    // before's small slab, and the next small read takes the bounce
    // buffer, for passes on end.
    let pass = || {
        let small = store.read_surface(1, &bar).unwrap();
        let large = store.read_region(0, &full).unwrap();
        let other = store.read_surface(0, &bar).unwrap();
        large.value(0, 0) + small.value(0, 0) + other.value(0, 0)
    };
    let warm = pass();
    let before = thread_allocations();
    for _ in 0..6 {
        assert_eq!(pass(), warm);
    }
    let allocations = thread_allocations() - before;
    assert_eq!(allocations, 0, "mixed reads allocated {allocations} times");
}

/// One checkpoint sweep: encode every member's column through the pooled
/// [`s_enkf::ckpt::MemberEncoder`] path and write it durably. Returns the
/// member checksums so nothing is optimized away.
fn ckpt_sweep(
    enc: &mut s_enkf::ckpt::MemberEncoder,
    store: &FileStore,
    ensemble: &Ensemble,
    crcs: &mut Vec<u64>,
) {
    crcs.clear();
    for k in 0..ensemble.size() {
        crcs.push(enc.write_durable(store, ensemble, k).unwrap());
    }
}

/// The steady-state checkpoint write path performs no payload-sized
/// allocation: the column gather buffer is recycled by the encoder and its
/// little-endian byte image is a view of that buffer. What remains is
/// the small per-file path strings — bounded to a sliver of the payload
/// and never one allocation as large as a member.
#[test]
fn checkpoint_member_writes_are_payload_allocation_free_at_steady_state() {
    let mesh = Mesh::new(16, 8);
    let members = 6;
    let scratch = ScratchDir::new("ckpt-alloc").unwrap();
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
    let ensemble = Ensemble::new(
        mesh,
        Matrix::from_fn(mesh.n(), members, |i, k| {
            ((i * 7 + k * 3) as f64 * 0.13).sin()
        }),
    );
    let payload_per_member = 8 * mesh.n();

    let mut enc = s_enkf::ckpt::MemberEncoder::new();
    let mut warm_crcs = Vec::with_capacity(members);
    let mut steady_crcs = Vec::with_capacity(members);
    // Warm sweep: the encoder's column buffer reaches member-payload
    // capacity.
    ckpt_sweep(&mut enc, &store, &ensemble, &mut warm_crcs);

    let before = counts();
    COUNTS.with(|c| {
        c.set(Counts {
            largest: 0,
            ..before
        })
    });
    ckpt_sweep(&mut enc, &store, &ensemble, &mut steady_crcs);
    let after = counts();
    let (calls, bytes) = (after.calls - before.calls, after.bytes - before.bytes);
    let largest = after.largest;

    assert_eq!(steady_crcs, warm_crcs, "sweeps are deterministic");
    assert!(
        largest < payload_per_member,
        "a payload-sized allocation ({largest} B >= {payload_per_member} B) leaked into the \
         steady-state checkpoint write path"
    );
    assert!(
        bytes < members * 512,
        "steady-state checkpoint sweep allocated {bytes} B for {} B of payload \
         (want only small path strings, < {} B)",
        members * payload_per_member,
        members * 512
    );
    assert!(
        calls <= members * 16,
        "steady-state checkpoint sweep allocated {calls} times"
    );
}
