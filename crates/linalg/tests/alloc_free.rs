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
//! The GEMM runs on its caller's thread at every size: a rank is the unit
//! of parallelism, so no library product spawns a worker. A shape large
//! enough to be worth forking (256³) is in the steady-state pass beside a
//! small one, and spawning a thread would show there as allocations on the
//! calling thread.

use enkf_linalg::{EigenWorkspace, GaussianSampler, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting every allocation-side call of the
/// calling thread. The count is per thread because the harness runs the
/// tests of this file side by side.
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
    // 96³ crosses block boundaries of every microkernel (96 = 24 MR
    // tiles, 12 NR tiles, 1.5 NT_KC chunks); 256³ (2·m·n·k ≈ 3.4·10⁷
    // flops) splits down to many base-case panels.
    let sizes = [96, 256];
    let inputs = sizes.map(|n| {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        (random_matrix(n, n, 7), random_matrix(n, n, 8), x)
    });
    let mut sym = random_matrix(sizes[0], sizes[0], 9);
    sym.symmetrize();

    let mut outs = sizes.map(|_| {
        let out = || Matrix::zeros(1, 1);
        (out(), out(), out(), Vec::new())
    });
    let mut ws = EigenWorkspace::new();
    let mut pass = || -> [u64; 2] {
        std::array::from_fn(|s| {
            let ((a, b, x), (nn, tn, nt, mv)) = (&inputs[s], &mut outs[s]);
            gemm_pass(a, b, x, nn, tn, nt, mv).to_bits()
        })
    };

    // Warm pass: outputs and workspace grow to their final sizes.
    let warm = pass();
    ws.decompose(&sym).unwrap();
    let warm_eigen = ws.values()[0];

    let before = allocations();
    let steady = pass();
    let after_gemm = allocations();
    ws.decompose(&sym).unwrap();
    let after_eigen = allocations();

    assert_eq!(
        (warm, warm_eigen.to_bits()),
        (steady, ws.values()[0].to_bits()),
        "passes must be deterministic"
    );
    assert_eq!(
        after_gemm - before,
        0,
        "steady-state GEMM/matvec must not touch the allocator (96³ and 256³)"
    );
    assert_eq!(
        after_eigen - after_gemm,
        0,
        "steady-state eigensolve must not touch the allocator"
    );
}
