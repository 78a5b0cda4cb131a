//! Counting-allocator proof that the steady-state per-grid-point loops —
//! the modified-Cholesky [`LocalAnalysis`] kernel every executor runs, at
//! width 1 and over lane groups, and the LETKF kernel — perform no heap
//! allocation.
//!
//! The workspace buffers grow to their high-water mark during a warm pass
//! over every grid point; a second pass over the same points must then
//! complete without a single call into the global allocator.

use enkf_core::{
    AnomalyGram, LetkfAnalysis, LetkfWorkspace, LocalAnalysis, LocalAnalysisWorkspace,
    LocalObsIndex, LocalObservations, ObservationOperator, Observations, PerturbedObservations,
    PointInputs,
};
use enkf_grid::{GridPoint, LocalizationRadius, Mesh, ObservationNetwork, RegionRect};
use enkf_linalg::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting every allocation-side call of the
/// calling thread (the harness runs this file's tests side by side).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NENS: usize = 8;
const RADIUS: LocalizationRadius = LocalizationRadius { xi: 2, eta: 2 };

/// A 12×12 mesh, its background and a stride-3 network localized to it.
fn problem() -> (Mesh, Matrix, LocalObservations, LocalObsIndex) {
    let mesh = Mesh::new(12, 12);
    let (states, obs, index) = network_problem(mesh, 3, RADIUS);
    (mesh, states, obs, index)
}

/// `mesh`'s background and a network of `stride` localized to it, indexed
/// for `radius`.
fn network_problem(
    mesh: Mesh,
    stride: usize,
    radius: LocalizationRadius,
) -> (Matrix, LocalObservations, LocalObsIndex) {
    let states = Matrix::from_fn(mesh.n(), NENS, |i, k| {
        let p = mesh.point(i);
        (p.ix as f64 * 0.4).sin() + (p.iy as f64 * 0.3).cos() + 0.01 * k as f64
    });
    let net = ObservationNetwork::uniform(mesh, stride);
    let op = ObservationOperator::new(net);
    let m = op.len();
    let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.23).cos()).collect();
    let observations = Observations::new(
        op,
        values,
        vec![0.1; m],
        PerturbedObservations::new(0x5EED, NENS),
    );
    let full = RegionRect::full(mesh);
    let obs = observations.localize(&full);
    let cell = radius.xi.max(radius.eta).max(1);
    let index = LocalObsIndex::build(&obs, &full, cell);
    (states, obs, index)
}

/// Two passes of `point` over every grid point: the first warms the
/// workspace (box sizes vary with edge clamping, so every point must be
/// visited), the second must not allocate.
fn assert_second_pass_is_allocation_free(
    mesh: Mesh,
    mut point: impl FnMut(enkf_grid::GridPoint) -> f64,
) {
    let full = RegionRect::full(mesh);
    let warm: f64 = full.iter_points().map(&mut point).sum();
    let before = allocations();
    let steady: f64 = full.iter_points().map(&mut point).sum();
    let after = allocations();
    assert!(steady.is_finite());
    assert_eq!(steady.to_bits(), warm.to_bits(), "passes are deterministic");
    assert_eq!(
        after - before,
        0,
        "steady-state per-point loop allocated {} times",
        after - before
    );
}

#[test]
fn local_analysis_point_loop_is_allocation_free_at_steady_state() {
    let (mesh, states, obs, index) = problem();
    let full = RegionRect::full(mesh);
    let analysis = LocalAnalysis::new(RADIUS);
    // Shared by every point of an `analyze` call, so built outside the loop.
    let gram = AnomalyGram::build(&states, &full, &obs, RADIUS);
    let mut ws = LocalAnalysisWorkspace::new();
    let mut out_row = vec![0.0; NENS];
    let io = PointInputs {
        mesh,
        expansion: &full,
        xb: &states,
        obs: &obs,
        index: &index,
        gram: &gram,
    };
    let mut moved = false;
    assert_second_pass_is_allocation_free(mesh, |p| {
        analysis
            .analyze_points_into(&io, &[p], &mut ws, &mut out_row)
            .unwrap();
        moved |= out_row != states.row(full.local_index(p));
        out_row[0]
    });
    assert!(moved, "the network must reach the analysis");
}

/// An `io_bound`-like sub-domain: a stride-16 network at radius 1, so most
/// boxes hold no observation. Rebuilding the table in place for the next
/// background, then running the point loop, allocates nothing once warm.
#[test]
fn sparse_network_rebuild_and_point_loop_are_allocation_free_at_steady_state() {
    let mesh = Mesh::new(48, 40);
    let radius = LocalizationRadius { xi: 1, eta: 1 };
    let (states, obs, index) = network_problem(mesh, 16, radius);
    let full = RegionRect::full(mesh);
    let analysis = LocalAnalysis::new(radius);
    let mut gram = AnomalyGram::default();
    let mut ws = LocalAnalysisWorkspace::new();
    let mut out_row = vec![0.0; NENS];
    let points: Vec<GridPoint> = full.iter_points().collect();
    let mut pass = || {
        gram.rebuild(&states, &full, &obs, radius);
        let io = PointInputs {
            mesh,
            expansion: &full,
            xb: &states,
            obs: &obs,
            index: &index,
            gram: &gram,
        };
        let (mut sum, mut moved) = (0.0, 0);
        for &p in &points {
            analysis
                .analyze_points_into(&io, &[p], &mut ws, &mut out_row)
                .unwrap();
            moved += usize::from(out_row != states.row(full.local_index(p)));
            sum += out_row[0];
        }
        (sum, moved)
    };
    let (warm, moved) = pass();
    // Observations on columns and rows 0, 16, 32: the points within one of
    // them, (2 + 3 + 3)² of the 1,920, move.
    assert_eq!(moved, 64, "the network must reach the analysis");
    let before = allocations();
    let (steady, _) = pass();
    let after = allocations();
    assert_eq!(steady.to_bits(), warm.to_bits(), "passes are deterministic");
    assert_eq!(
        after - before,
        0,
        "steady-state sparse rebuild and point loop allocated {} times",
        after - before
    );
}

#[test]
fn lane_group_entry_is_allocation_free_at_steady_state() {
    let (mesh, states, obs, index) = problem();
    let full = RegionRect::full(mesh);
    let analysis = LocalAnalysis::new(RADIUS);
    let gram = AnomalyGram::build(&states, &full, &obs, RADIUS);
    // Every group of `LANES` points whose clipped boxes share a shape (box
    // extent and the point's place in it), as the analysis queues them.
    let mut by_shape: Vec<((usize, usize, usize), Vec<GridPoint>)> = Vec::new();
    for p in full.iter_points() {
        let boxr = RegionRect::new(p.ix, p.ix + 1, p.iy, p.iy + 1).expand(RADIUS, mesh);
        let shape = (boxr.width(), boxr.height(), boxr.local_index(p));
        match by_shape.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, points)) => points.push(p),
            None => by_shape.push((shape, vec![p])),
        }
    }
    let groups: Vec<&[GridPoint]> = by_shape
        .iter()
        .flat_map(|(_, points)| points.chunks_exact(LocalAnalysis::LANES))
        .collect();
    assert!(groups.len() >= 16, "only {} lane groups", groups.len());
    let mut ws = LocalAnalysisWorkspace::new();
    let mut out = vec![0.0; LocalAnalysis::LANES * NENS];
    let io = PointInputs {
        mesh,
        expansion: &full,
        xb: &states,
        obs: &obs,
        index: &index,
        gram: &gram,
    };
    let mut pass = || {
        let mut sum = 0.0;
        for points in &groups {
            analysis
                .analyze_points_into(&io, points, &mut ws, &mut out)
                .unwrap();
            sum += out.iter().sum::<f64>();
        }
        sum
    };
    let warm = pass();
    let before = allocations();
    let steady = pass();
    let after = allocations();
    assert!(steady.is_finite());
    assert_eq!(steady.to_bits(), warm.to_bits(), "passes are deterministic");
    assert_eq!(
        after - before,
        0,
        "steady-state lane groups allocated {} times",
        after - before
    );
}

#[test]
fn letkf_point_loop_is_allocation_free_at_steady_state() {
    let (mesh, states, obs, index) = problem();
    let full = RegionRect::full(mesh);
    let analysis = LetkfAnalysis::new(RADIUS);
    let mut ws = LetkfWorkspace::new();
    let mut out_row = vec![0.0; NENS];
    assert_second_pass_is_allocation_free(mesh, |p| {
        analysis
            .analyze_point_into(mesh, p, &full, &states, &obs, &index, &mut ws, &mut out_row)
            .unwrap();
        out_row[0]
    });
}
