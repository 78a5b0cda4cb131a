//! Cache-oblivious GEMM drivers and the scalar register-tiled microkernels.
//!
//! # Structure
//!
//! Each product family (`nn` = `A·B`, `tn` = `Aᵀ·B`, `nt` = `A·Bᵀ`) is a
//! divide-and-conquer driver that recursively halves the **larger of the
//! two output dimensions** until the subproblem fits the
//! [`super::tiles::BASE_M`]`×`[`super::tiles::BASE_N`] base case, which dispatches to a
//! register-tiled microkernel (AVX2 when detected, scalar otherwise). The
//! recursion never splits the contraction dimension `k` in the default
//! path — a `k`-split would change each output element's accumulation
//! order and therefore its bits.
//!
//! # Determinism contract
//!
//! Per output element, the default kernels reproduce the legacy blocked
//! loops ([`super::reference`]) bit-for-bit:
//!
//! - **nn**: ascend the shared index `l`, skipping terms whose left
//!   operand is exactly `0.0` (one branch per `(row, l)` pair).
//! - **tn**: ascend `l`, no skip.
//! - **nt**: accumulate [`super::tiles::NT_KC`]-wide partial dot products, each
//!   folded from `0.0` in ascending `l`, added to the output in ascending
//!   chunk order.
//!
//! Splitting only `m`/`n` hands every recursion leaf a **disjoint** region
//! of `C`, so `rayon::join` parallelism (taken when the subproblem carries
//! at least [`super::tiles::PAR_FLOPS`] flops and more than one worker exists)
//! cannot reorder any element's accumulation: results are bit-identical
//! across thread counts, including fully serial.

// Pointer + stride kernels necessarily carry many scalar parameters.
#![allow(clippy::too_many_arguments)]
use super::simd::{active_isa, Isa};
use super::tiles::{BASE_M, BASE_N, MATVEC_MR, MR, NR, NT_KC, NT_NR, PAR_FLOPS};

/// Raw mutable view of `C` that may cross a `rayon::join`. Safe because
/// the two recursion halves address disjoint row/column ranges.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

#[inline]
fn fork(par: bool, m: usize, n: usize, k: usize, par_flops: usize) -> bool {
    par && 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k) >= par_flops
}

/// `c += a·b` with `a` `m×k`, `b` `k×n`, `c` `m×n` (all row-major,
/// contiguous). Callers wanting `c = a·b` zero `c` first (`Matrix::resize`
/// does). Allocation-free; deterministic per the module contract.
pub fn nn(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    nn_tuned(
        a,
        b,
        c,
        m,
        k,
        n,
        rayon::current_num_threads() > 1,
        PAR_FLOPS,
    )
}

/// [`nn`] with explicit parallel-dispatch knobs (tests force or forbid
/// the `join` path with a tiny/huge `par_flops`).
#[doc(hidden)]
pub fn nn_tuned(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    par: bool,
    par_flops: usize,
) {
    assert_eq!(a.len(), m * k, "nn: lhs buffer size");
    assert_eq!(b.len(), k * n, "nn: rhs buffer size");
    assert_eq!(c.len(), m * n, "nn: out buffer size");
    if m == 0 || n == 0 {
        return;
    }
    // b and c share the full output width n as their row stride.
    nn_rec(
        a,
        b,
        SendPtr(c.as_mut_ptr()),
        n,
        0,
        m,
        0,
        n,
        k,
        active_isa(),
        par,
        par_flops,
    );
}

#[allow(clippy::too_many_arguments)]
fn nn_rec(
    a: &[f64],
    b: &[f64],
    c: SendPtr,
    ld: usize,
    i0: usize,
    m: usize,
    j0: usize,
    n: usize,
    k: usize,
    isa: Isa,
    par: bool,
    par_flops: usize,
) {
    if m <= BASE_M && n <= BASE_N {
        unsafe {
            let ap = a.as_ptr().add(i0 * k);
            let bp = b.as_ptr().add(j0);
            let cp = c.0.add(i0 * ld + j0);
            dispatch_nn(isa, ap, k, bp, ld, cp, ld, m, n, k);
        }
        return;
    }
    if m >= n {
        let mh = m / 2;
        let lo = move || nn_rec(a, b, c, ld, i0, mh, j0, n, k, isa, par, par_flops);
        let hi = move || nn_rec(a, b, c, ld, i0 + mh, m - mh, j0, n, k, isa, par, par_flops);
        if fork(par, m, n, k, par_flops) {
            rayon::join(lo, hi);
        } else {
            lo();
            hi();
        }
    } else {
        let nh = n / 2;
        let lo = move || nn_rec(a, b, c, ld, i0, m, j0, nh, k, isa, par, par_flops);
        let hi = move || nn_rec(a, b, c, ld, i0, m, j0 + nh, n - nh, k, isa, par, par_flops);
        if fork(par, m, n, k, par_flops) {
            rayon::join(lo, hi);
        } else {
            lo();
            hi();
        }
    }
}

#[allow(clippy::too_many_arguments)]
unsafe fn dispatch_nn(
    isa: Isa,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    #[cfg(all(target_arch = "x86_64", feature = "simd"))]
    match isa {
        Isa::Avx2 | Isa::Avx2Fma => {
            return super::simd::nn_block_avx2(a, lda, b, ldb, c, ldc, m, n, k);
        }
        Isa::Scalar => {}
    }
    let _ = isa;
    nn_block_scalar(a, lda, b, ldb, c, ldc, m, n, k);
}

/// `c += aᵀ·b` with `a` `k×m` (its columns are the logical left rows),
/// `b` `k×n`, `c` `m×n`.
pub fn tn(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    tn_tuned(
        a,
        b,
        c,
        m,
        k,
        n,
        rayon::current_num_threads() > 1,
        PAR_FLOPS,
    )
}

/// [`tn`] with explicit parallel-dispatch knobs.
#[doc(hidden)]
pub fn tn_tuned(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    par: bool,
    par_flops: usize,
) {
    assert_eq!(a.len(), k * m, "tn: lhs buffer size");
    assert_eq!(b.len(), k * n, "tn: rhs buffer size");
    assert_eq!(c.len(), m * n, "tn: out buffer size");
    if m == 0 || n == 0 {
        return;
    }
    tn_rec(
        a,
        b,
        SendPtr(c.as_mut_ptr()),
        m,
        n,
        0,
        m,
        0,
        n,
        k,
        active_isa(),
        par,
        par_flops,
    );
}

#[allow(clippy::too_many_arguments)]
fn tn_rec(
    a: &[f64],
    b: &[f64],
    c: SendPtr,
    m_full: usize,
    ld: usize,
    i0: usize,
    m: usize,
    j0: usize,
    n: usize,
    k: usize,
    isa: Isa,
    par: bool,
    par_flops: usize,
) {
    if m <= BASE_M && n <= BASE_N {
        unsafe {
            let ap = a.as_ptr().add(i0);
            let bp = b.as_ptr().add(j0);
            let cp = c.0.add(i0 * ld + j0);
            dispatch_tn(isa, ap, m_full, bp, ld, cp, ld, m, n, k);
        }
        return;
    }
    if m >= n {
        let mh = m / 2;
        let lo = move || tn_rec(a, b, c, m_full, ld, i0, mh, j0, n, k, isa, par, par_flops);
        let hi = move || {
            tn_rec(
                a,
                b,
                c,
                m_full,
                ld,
                i0 + mh,
                m - mh,
                j0,
                n,
                k,
                isa,
                par,
                par_flops,
            )
        };
        if fork(par, m, n, k, par_flops) {
            rayon::join(lo, hi);
        } else {
            lo();
            hi();
        }
    } else {
        let nh = n / 2;
        let lo = move || tn_rec(a, b, c, m_full, ld, i0, m, j0, nh, k, isa, par, par_flops);
        let hi = move || {
            tn_rec(
                a,
                b,
                c,
                m_full,
                ld,
                i0,
                m,
                j0 + nh,
                n - nh,
                k,
                isa,
                par,
                par_flops,
            )
        };
        if fork(par, m, n, k, par_flops) {
            rayon::join(lo, hi);
        } else {
            lo();
            hi();
        }
    }
}

#[allow(clippy::too_many_arguments)]
unsafe fn dispatch_tn(
    isa: Isa,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    #[cfg(all(target_arch = "x86_64", feature = "simd"))]
    match isa {
        Isa::Avx2 | Isa::Avx2Fma => {
            return super::simd::tn_block_avx2(a, lda, b, ldb, c, ldc, m, n, k);
        }
        Isa::Scalar => {}
    }
    let _ = isa;
    tn_block_scalar(a, lda, b, ldb, c, ldc, m, n, k);
}

/// `c += a·bᵀ` with `a` `m×k`, `b` `n×k`, `c` `m×n`.
pub fn nt(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    nt_tuned(
        a,
        b,
        c,
        m,
        k,
        n,
        rayon::current_num_threads() > 1,
        PAR_FLOPS,
    )
}

/// [`nt`] with explicit parallel-dispatch knobs.
#[doc(hidden)]
pub fn nt_tuned(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    par: bool,
    par_flops: usize,
) {
    assert_eq!(a.len(), m * k, "nt: lhs buffer size");
    assert_eq!(b.len(), n * k, "nt: rhs buffer size");
    assert_eq!(c.len(), m * n, "nt: out buffer size");
    if m == 0 || n == 0 {
        return;
    }
    let ldc = n;
    nt_rec(
        a,
        b,
        SendPtr(c.as_mut_ptr()),
        ldc,
        0,
        m,
        0,
        n,
        k,
        par,
        par_flops,
    );
}

#[allow(clippy::too_many_arguments)]
fn nt_rec(
    a: &[f64],
    b: &[f64],
    c: SendPtr,
    ldc: usize,
    i0: usize,
    m: usize,
    j0: usize,
    n: usize,
    k: usize,
    par: bool,
    par_flops: usize,
) {
    if m <= BASE_M && n <= BASE_N {
        unsafe {
            let ap = a.as_ptr().add(i0 * k);
            let bp = b.as_ptr().add(j0 * k);
            let cp = c.0.add(i0 * ldc + j0);
            nt_block_scalar(ap, k, bp, k, cp, ldc, m, n, k);
        }
        return;
    }
    if m >= n {
        let mh = m / 2;
        let lo = move || nt_rec(a, b, c, ldc, i0, mh, j0, n, k, par, par_flops);
        let hi = move || nt_rec(a, b, c, ldc, i0 + mh, m - mh, j0, n, k, par, par_flops);
        if fork(par, m, n, k, par_flops) {
            rayon::join(lo, hi);
        } else {
            lo();
            hi();
        }
    } else {
        let nh = n / 2;
        let lo = move || nt_rec(a, b, c, ldc, i0, m, j0, nh, k, par, par_flops);
        let hi = move || nt_rec(a, b, c, ldc, i0, m, j0 + nh, n - nh, k, par, par_flops);
        if fork(par, m, n, k, par_flops) {
            rayon::join(lo, hi);
        } else {
            lo();
            hi();
        }
    }
}

/// Matrix-vector product `out = a·x` (`a` `m×k`), unrolled into
/// [`MATVEC_MR`] independent per-row accumulation chains. Each row is
/// still a single ascending fold seeded with `-0.0` — the identity
/// `Iterator::sum::<f64>` uses, which the legacy per-row `.sum()` loop
/// (and therefore the pinned bit pattern, signed zeros included) relied
/// on. `out` is cleared and refilled; allocation-free at steady state.
pub fn matvec(a: &[f64], x: &[f64], out: &mut Vec<f64>, m: usize, k: usize) {
    assert_eq!(a.len(), m * k, "matvec: matrix buffer size");
    assert_eq!(x.len(), k, "matvec: vector length");
    out.clear();
    out.reserve(m);
    let m_main = m - m % MATVEC_MR;
    let mut i = 0;
    while i < m_main {
        let mut acc = [-0.0_f64; MATVEC_MR];
        for (l, &xl) in x.iter().enumerate() {
            for (r, accr) in acc.iter_mut().enumerate() {
                *accr += a[(i + r) * k + l] * xl;
            }
        }
        out.extend_from_slice(&acc);
        i += MATVEC_MR;
    }
    for i in m_main..m {
        out.push(
            a[i * k..(i + 1) * k]
                .iter()
                .zip(x)
                .map(|(&a, &b)| a * b)
                .sum::<f64>(),
        );
    }
}

/// Inner product folded from `0.0` in ascending index order — bit for
/// bit the value the default [`tn`] kernel leaves in an element of `AᵀB`
/// whose two columns are `a` and `b` ("ascend `l`, no skip"). Callers that
/// tabulate Gram entries once instead of re-forming `XᵀX` rely on that.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut acc = 0.0_f64;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

// ---------------------------------------------------------------------------
// Scalar microkernels (dispatch targets and SIMD edge handlers)
// ---------------------------------------------------------------------------

/// Scalar NN base-case kernel: [`MR`]`×`[`NR`] register tiles with the
/// same per-element order as the AVX2 body (ascending `l`, zero-skip).
///
/// # Safety
/// Pointers must cover `m×k` (`a`, stride `lda`), `k×n` (`b`, stride
/// `ldb`) and `m×n` (`c`, stride `ldc`); `c` disjoint from `a`/`b`.
pub(crate) unsafe fn nn_block_scalar(
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    let m_main = m - m % MR;
    let n_main = n - n % NR;
    let mut i = 0;
    while i < m_main {
        let mut j = 0;
        while j < n_main {
            let mut acc = [[0.0_f64; NR]; MR];
            for (r, row) in acc.iter_mut().enumerate() {
                for (x, v) in row.iter_mut().enumerate() {
                    *v = *c.add((i + r) * ldc + j + x);
                }
            }
            for l in 0..k {
                let bl = b.add(l * ldb + j);
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = *a.add((i + r) * lda + l);
                    if av == 0.0 {
                        continue;
                    }
                    for (x, v) in row.iter_mut().enumerate() {
                        *v += av * *bl.add(x);
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (x, v) in row.iter().enumerate() {
                    *c.add((i + r) * ldc + j + x) = *v;
                }
            }
            j += NR;
        }
        if j < n {
            nn_tile_scalar(a, lda, b, ldb, c, ldc, i, j, MR, n - j, k);
        }
        i += MR;
    }
    if i < m {
        nn_tile_scalar(a, lda, b, ldb, c, ldc, i, 0, m - i, n, k);
    }
}

/// Generic-bounds NN edge tile: direct `c` updates, ascending `l` with
/// zero-skip — bit-identical per element to the register-tiled path.
///
/// # Safety
/// As [`nn_block_scalar`], with the tile `(i..i+mr) × (j..j+nr)` in range.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn nn_tile_scalar(
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    i: usize,
    j: usize,
    mr: usize,
    nr: usize,
    k: usize,
) {
    for l in 0..k {
        let bl = b.add(l * ldb + j);
        for r in 0..mr {
            let av = *a.add((i + r) * lda + l);
            if av == 0.0 {
                continue;
            }
            let crow = c.add((i + r) * ldc + j);
            for x in 0..nr {
                *crow.add(x) += av * *bl.add(x);
            }
        }
    }
}

/// Scalar TN base-case kernel: as [`nn_block_scalar`] but the left value
/// comes from `a[l*lda + i + r]` and there is no zero-skip (matching the
/// legacy transpose kernel).
///
/// # Safety
/// `a` covers `k×(lda ≥ i+m)`; `b`, `c` as in [`nn_block_scalar`].
pub(crate) unsafe fn tn_block_scalar(
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    let m_main = m - m % MR;
    let n_main = n - n % NR;
    let mut i = 0;
    while i < m_main {
        let mut j = 0;
        while j < n_main {
            let mut acc = [[0.0_f64; NR]; MR];
            for (r, row) in acc.iter_mut().enumerate() {
                for (x, v) in row.iter_mut().enumerate() {
                    *v = *c.add((i + r) * ldc + j + x);
                }
            }
            for l in 0..k {
                let al = a.add(l * lda + i);
                let bl = b.add(l * ldb + j);
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = *al.add(r);
                    for (x, v) in row.iter_mut().enumerate() {
                        *v += av * *bl.add(x);
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (x, v) in row.iter().enumerate() {
                    *c.add((i + r) * ldc + j + x) = *v;
                }
            }
            j += NR;
        }
        if j < n {
            tn_tile_scalar(a, lda, b, ldb, c, ldc, i, j, MR, n - j, k);
        }
        i += MR;
    }
    if i < m {
        tn_tile_scalar(a, lda, b, ldb, c, ldc, i, 0, m - i, n, k);
    }
}

/// Generic-bounds TN edge tile (no zero-skip).
///
/// # Safety
/// As [`tn_block_scalar`], with the tile in range.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn tn_tile_scalar(
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    i: usize,
    j: usize,
    mr: usize,
    nr: usize,
    k: usize,
) {
    for l in 0..k {
        let al = a.add(l * lda + i);
        let bl = b.add(l * ldb + j);
        for r in 0..mr {
            let av = *al.add(r);
            let crow = c.add((i + r) * ldc + j);
            for x in 0..nr {
                *crow.add(x) += av * *bl.add(x);
            }
        }
    }
}

/// Deterministic NT base-case kernel: [`NT_KC`]-chunked partial dot
/// products (legacy grouping) over [`MR`]`×`[`NT_NR`] tiles of
/// independent accumulator chains.
///
/// # Safety
/// `a` covers `m×k` stride `lda`, `b` covers `n×k` stride `ldb`, `c`
/// covers `m×n` stride `ldc`; `c` disjoint from `a`/`b`.
pub(crate) unsafe fn nt_block_scalar(
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    let m_main = m - m % MR;
    let n_main = n - n % NT_NR;
    let mut ll = 0;
    while ll < k {
        let lhi = (ll + NT_KC).min(k);
        let mut i = 0;
        while i < m_main {
            let mut j = 0;
            while j < n_main {
                let mut part = [[0.0_f64; NT_NR]; MR];
                for l in ll..lhi {
                    let mut bx = [0.0_f64; NT_NR];
                    for (x, v) in bx.iter_mut().enumerate() {
                        *v = *b.add((j + x) * ldb + l);
                    }
                    for (r, row) in part.iter_mut().enumerate() {
                        let ar = *a.add((i + r) * lda + l);
                        for (x, v) in row.iter_mut().enumerate() {
                            *v += ar * bx[x];
                        }
                    }
                }
                for (r, row) in part.iter().enumerate() {
                    for (x, v) in row.iter().enumerate() {
                        *c.add((i + r) * ldc + j + x) += *v;
                    }
                }
                j += NT_NR;
            }
            if j < n {
                nt_tile_chunk(a, lda, b, ldb, c, ldc, i, j, MR, n - j, ll, lhi);
            }
            i += MR;
        }
        if i < m {
            nt_tile_chunk(a, lda, b, ldb, c, ldc, i, 0, m - i, n, ll, lhi);
        }
        ll += NT_KC;
    }
}

/// Generic-bounds NT edge tile for one contraction chunk `[ll, lhi)` —
/// same partial-sum grouping as the full tile.
///
/// # Safety
/// As [`nt_block_scalar`], with the tile in range and `lhi ≤ k`.
#[allow(clippy::too_many_arguments)]
unsafe fn nt_tile_chunk(
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    i: usize,
    j: usize,
    mr: usize,
    nr: usize,
    ll: usize,
    lhi: usize,
) {
    for r in 0..mr {
        let arow = a.add((i + r) * lda);
        let crow = c.add((i + r) * ldc + j);
        for x in 0..nr {
            let brow = b.add((j + x) * ldb);
            let mut part = 0.0_f64;
            for l in ll..lhi {
                part += *arow.add(l) * *brow.add(l);
            }
            *crow.add(x) += part;
        }
    }
}
