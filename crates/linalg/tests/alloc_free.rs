//! Counting-allocator proof that the kernel layer is allocation-free at
//! steady state.
//!
//! One warm pass sizes every output matrix, vector and eigensolve
//! workspace to its high-water mark; a second identical pass must then
//! complete without a single call into the global allocator. This is the
//! guarantee the pointwise LETKF loop depends on: the cache-oblivious
//! recursion works in-place on the output, the microkernels keep their
//! tiles in registers/stack arrays, and `EigenWorkspace` reuses its
//! scratch.
//!
//! Problem sizes stay below `kernel::tiles::PAR_FLOPS` so the recursion
//! never forks — the shim's `rayon::join` spawns a real scoped thread,
//! which allocates by design and is exactly what the flop gate exists to
//! amortize away.

use enkf_linalg::{EigenWorkspace, GaussianSampler, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting every allocation-side call of the
/// calling thread. The count is per thread because the harness runs the
/// tests of this file side by side, and because a scoped worker's own
/// allocations say nothing about the thread that armed the count.
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

fn random_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gs = GaussianSampler::new();
    Matrix::from_fn(r, c, |_, _| gs.sample(&mut rng))
}

/// One steady-state pass over every GEMM-family entry point, returning a
/// checksum so nothing is optimized away.
fn gemm_pass(
    a: &Matrix,
    b: &Matrix,
    x: &[f64],
    nn: &mut Matrix,
    tn: &mut Matrix,
    nt: &mut Matrix,
    mv: &mut Vec<f64>,
) -> f64 {
    a.matmul_into(b, nn).unwrap();
    a.tr_matmul_into(b, tn).unwrap();
    a.matmul_tr_into(b, nt).unwrap();
    a.matvec_into(x, mv).unwrap();
    nn.as_slice()[0] + tn.as_slice()[1] + nt.as_slice()[2] + mv[3]
}

#[test]
fn gemm_and_eigensolve_steady_state_is_allocation_free() {
    // 96³ keeps 2·m·n·k below PAR_FLOPS (no fork) while still crossing
    // block boundaries of every microkernel (96 = 24 MR tiles, 12 NR
    // tiles, 1.5 NT_KC chunks).
    let n = 96;
    let a = random_matrix(n, n, 7);
    let b = random_matrix(n, n, 8);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
    let mut sym = random_matrix(n, n, 9);
    sym.symmetrize();

    let mut nn = Matrix::zeros(1, 1);
    let mut tn = Matrix::zeros(1, 1);
    let mut nt = Matrix::zeros(1, 1);
    let mut mv = Vec::new();
    let mut ws = EigenWorkspace::new();

    // Warm pass: outputs and workspace grow to their final sizes.
    let warm = gemm_pass(&a, &b, &x, &mut nn, &mut tn, &mut nt, &mut mv);
    ws.decompose(&sym).unwrap();
    let warm_eigen = ws.values()[0];

    let before = allocations();
    let steady = gemm_pass(&a, &b, &x, &mut nn, &mut tn, &mut nt, &mut mv);
    let after_gemm = allocations();
    ws.decompose(&sym).unwrap();
    let after_eigen = allocations();

    assert_eq!(
        (warm.to_bits(), warm_eigen.to_bits()),
        (steady.to_bits(), ws.values()[0].to_bits()),
        "passes must be deterministic"
    );
    assert_eq!(
        after_gemm - before,
        0,
        "steady-state GEMM/matvec must not touch the allocator"
    );
    assert_eq!(
        after_eigen - after_gemm,
        0,
        "steady-state eigensolve must not touch the allocator"
    );
}
