//! Counting-allocator proof that the steady-state data-plane paths
//! perform no (payload) heap allocation.
//!
//! Two pinned guarantees:
//!
//! * The read → extract → gather → analyze cycle: one warm cycle fills the
//!   store's slab pool, the open-file-handle cache, the reused `X̄ᵇ`
//!   matrices and the analysis workspace high-water marks; a second
//!   identical cycle must then complete without a single call into the
//!   global allocator.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// System allocator wrapper counting every allocation-side call, the
/// bytes it requested, and the largest single request.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// The counters are process-global, so tests that assert on deltas must
/// not overlap with each other's allocations.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
    LARGEST.fetch_max(size, Ordering::Relaxed);
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
/// member's full-width bar straight into a pooled slab (single seek), cut
/// it into the ranks' expansion blocks (O(1) strided views), gather each
/// rank's `X̄ᵇ` with the shared row-tiled gather, then run the executors'
/// point-wise local analysis (shared anomalies + Gram table rebuilt in
/// place, then the per-point kernel) into a caller-owned row. Returns a
/// checksum so nothing is optimized away.
fn cycle(
    store: &FileStore,
    bar: &RegionRect,
    ranks: &mut [Rank],
    analysis: &LocalAnalysis,
    buf: &mut Buffers,
) -> f64 {
    let mesh = store.layout().mesh();
    for k in 0..buf.cols.len() {
        buf.bars.push(store.read_region(k, bar).unwrap());
    }
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
            .rebuild(&rank.xb, &rank.expansion, analysis.radius);
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

#[test]
fn read_extract_gather_analyze_cycle_is_allocation_free_at_steady_state() {
    let _x = EXCLUSIVE.lock().unwrap();
    let mesh = Mesh::new(16, 8);
    let members = 6;
    let levels = 3; // the surface is every third value of a row
    let radius = LocalizationRadius { xi: 2, eta: 2 };
    let scratch = ScratchDir::new("dataplane-alloc").unwrap();
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
    let mut ranks: Vec<Rank> = [RegionRect::new(0, 8, 2, 6), RegionRect::new(8, 16, 2, 6)]
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
    let mut buf = Buffers {
        bars: Vec::with_capacity(members),
        views: Vec::with_capacity(members),
        cols: (0..members).collect(),
        ws: LocalAnalysisWorkspace::new(),
        out_row: vec![0.0; members],
    };

    // Warm cycle: pool slabs, file handles and workspace buffers all reach
    // their steady-state capacity.
    let warm = cycle(&store, &bar, &mut ranks, &analysis, &mut buf);
    assert!(warm.is_finite());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let steady = cycle(&store, &bar, &mut ranks, &analysis, &mut buf);
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(steady, warm, "cycles are deterministic");
    assert_eq!(
        after - before,
        0,
        "steady-state read→extract→gather→analyze cycle allocated {} times",
        after - before
    );
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
    let _x = EXCLUSIVE.lock().unwrap();
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

    let (calls0, bytes0) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    LARGEST.store(0, Ordering::Relaxed);
    ckpt_sweep(&mut enc, &store, &ensemble, &mut steady_crcs);
    let calls = ALLOCATIONS.load(Ordering::Relaxed) - calls0;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
    let largest = LARGEST.load(Ordering::Relaxed);

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
