//! Cache-oblivious GEMM: one recursion, one register-tiled body per
//! accumulation order.
//!
//! # Structure
//!
//! The three product families (`nn` = `A·B`, `tn` = `Aᵀ·B`, `nt` = `A·Bᵀ`)
//! are one divide-and-conquer recursion. It halves the **larger of the two
//! output dimensions** until the subproblem fits a
//! `tiles::BASE × tiles::BASE` panel, and a register-tiled
//! body finishes the panel. A [`Layout`] decides only where `A(i, l)` and
//! `B(l, j)` live, i.e. the pointer and stride arithmetic. The recursion
//! never splits the contraction dimension `k`: a `k`-split would change
//! each output element's accumulation order and therefore its bits.
//!
//! There is one body per accumulation order: NN and TN share one, NT has
//! its own. Each base case is a `lane_entry!` ([`super::lanes`]), so the
//! same body is compiled twice: an `avx2` instance that runs when
//! [`super::active_isa`] reports AVX2, and the baseline instance otherwise.
//! Both issue the same IEEE multiply-then-add per element, never fused, so
//! the bits do not depend on the host.
//!
//! # Determinism contract
//!
//! Per output element, the default kernels reproduce the legacy blocked
//! loops ([`super::reference`]) bit-for-bit:
//!
//! - **nn**: ascend the shared index `l`, skipping terms whose left
//!   operand is exactly `0.0` (one branch per `(row, l)` pair).
//! - **tn**: ascend `l`, no skip.
//! - **nt**: accumulate `super::tiles::NT_KC`-wide partial dot products, each
//!   folded from `0.0` in ascending `l`, added to the output in ascending
//!   chunk order.
//!
//! The recursion runs on its caller's thread and never forks: the rank is
//! the unit of parallelism. Splitting only `m`/`n` leaves each output
//! element's accumulation inside one leaf, so the split points cannot
//! change any bit.

use super::lanes::lane_entry;
use super::tiles::{BASE, MATVEC_MR, MR, NR, NT_KC, NT_NR};

/// Which operand a product reads transposed. It decides only the pointer
/// and stride arithmetic of [`tuned`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `c += a·b`: `a` is `m×k`, `b` is `k×n`.
    Nn,
    /// `c += aᵀ·b`: `a` is `k×m`, `b` is `k×n`.
    Tn,
    /// `c += a·bᵀ`: `a` is `m×k`, `b` is `n×k`.
    Nt,
}

/// `c += a·b` with `a` `m×k`, `b` `k×n`, `c` `m×n` (all row-major,
/// contiguous). Callers wanting `c = a·b` zero `c` first (`Matrix::resize`
/// does). Allocation-free; deterministic per the module contract.
pub fn nn(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    tuned(Layout::Nn, a, b, c, m, k, n)
}

/// `c += aᵀ·b` with `a` `k×m` (its columns are the logical left rows),
/// `b` `k×n`, `c` `m×n`.
pub(crate) fn tn(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    tuned(Layout::Tn, a, b, c, m, k, n)
}

/// `c += a·bᵀ` with `a` `m×k`, `b` `n×k`, `c` `m×n`.
pub(crate) fn nt(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    tuned(Layout::Nt, a, b, c, m, k, n)
}

/// [`nn`], [`tn`] or [`nt`] by [`Layout`] (the tests' one entry to all
/// three).
#[doc(hidden)]
pub fn tuned(layout: Layout, a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "{layout:?}: lhs buffer size");
    assert_eq!(b.len(), k * n, "{layout:?}: rhs buffer size");
    assert_eq!(c.len(), m * n, "{layout:?}: out buffer size");
    if m == 0 || n == 0 {
        return;
    }
    let (lda, ldb) = match layout {
        Layout::Nn => (k, n),
        Layout::Tn => (m, n),
        Layout::Nt => (k, k),
    };
    let whole = Panel {
        a: a.as_ptr(),
        lda,
        b: b.as_ptr(),
        ldb,
        c: c.as_mut_ptr(),
        ldc: n,
        m,
        n,
        k,
    };
    rec(&Product { layout, whole }, 0, 0, m, n);
}

/// One base-case block: `C(0..m, 0..n) += Σ_l A(i, l)·B(l, j)` with the
/// operands at `a`, `b`, `c` and row strides `lda`, `ldb`, `ldc`. `A(i, l)`
/// is `a[i·lda + l]`, or `a[l·lda + i]` when `TN` (`a` stored `k×m`).
///
/// Invariant: every address a body forms from a panel lies in the buffers
/// [`tuned`] checked, and nothing else touches the panel's block of `c`
/// while a body runs. Only [`rec`] builds panels, inside the checked shape,
/// one at a time; that invariant is what lets the bodies be safe
/// functions.
#[derive(Clone, Copy)]
struct Panel<const TN: bool = false> {
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    c: *mut f64,
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
}

impl<const TN: bool> Panel<TN> {
    /// Offset of `A(i, l)` from `a`.
    #[inline(always)]
    fn a_at(&self, i: usize, l: usize) -> usize {
        if TN {
            l * self.lda + i
        } else {
            i * self.lda + l
        }
    }
}

/// One product as the recursion sees it: `whole` spans all of `C`, and
/// [`Product::panel`] cuts one block's panel out of it for a body.
struct Product {
    layout: Layout,
    whole: Panel,
}

impl Product {
    /// The panel of the `m×n` block at `(i0, j0)`.
    fn panel<const TN: bool>(&self, i0: usize, j0: usize, m: usize, n: usize) -> Panel<TN> {
        let w = self.whole;
        let a = if TN { i0 } else { i0 * w.lda };
        let b = if self.layout == Layout::Nt {
            j0 * w.ldb
        } else {
            j0
        };
        Panel {
            a: w.a.wrapping_add(a),
            lda: w.lda,
            b: w.b.wrapping_add(b),
            ldb: w.ldb,
            c: w.c.wrapping_add(i0 * w.ldc + j0),
            ldc: w.ldc,
            m,
            n,
            k: w.k,
        }
    }
}

/// `C(i0.., j0..) += …` over an `m×n` block: halve the larger dimension
/// until the block fits one base-case panel.
fn rec(p: &Product, i0: usize, j0: usize, m: usize, n: usize) {
    if m <= BASE && n <= BASE {
        match p.layout {
            Layout::Nn => nn_tn_panel(p.panel::<false>(i0, j0, m, n)),
            Layout::Tn => nn_tn_panel(p.panel::<true>(i0, j0, m, n)),
            Layout::Nt => nt_panel(p.panel(i0, j0, m, n)),
        }
        return;
    }
    if m >= n {
        let h = m / 2;
        rec(p, i0, j0, h, n);
        rec(p, i0 + h, j0, m - h, n);
    } else {
        let h = n / 2;
        rec(p, i0, j0, m, h);
        rec(p, i0, j0 + h, m, n - h);
    }
}

/// Matrix-vector product `out = a·x` (`a` `m×k`), unrolled into
/// `MATVEC_MR` (4) independent per-row accumulation chains. Each row is
/// still a single ascending fold seeded with `-0.0` — the identity
/// `Iterator::sum::<f64>` uses, which the legacy per-row `.sum()` loop
/// (and therefore the pinned bit pattern, signed zeros included) relied
/// on. `out` is cleared and refilled; allocation-free at steady state.
pub(crate) fn matvec(a: &[f64], x: &[f64], out: &mut Vec<f64>, m: usize, k: usize) {
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
/// bit the value the default `tn` kernel leaves in an element of `AᵀB`
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
// Base-case bodies
// ---------------------------------------------------------------------------

lane_entry! {
    /// The NN (`TN = false`) or TN (`TN = true`) base case.
    fn nn_tn_panel[const TN: bool](p: Panel<TN>) -> () = nn_tn_body;
}

lane_entry! {
    /// The NT base case.
    fn nt_panel[](p: Panel) -> () = nt_body;
}

/// NN/TN body: [`MR`]`×`[`NR`] register tiles, each element accumulated
/// in ascending `l`, with an edge tile in the same order for the rest.
/// NN skips terms whose `A` value is exactly `0.0`; TN skips none (the
/// legacy kernels' two orders).
#[inline(always)]
fn nn_tn_body<const TN: bool>(p: Panel<TN>) {
    let Panel {
        a,
        b,
        ldb,
        c,
        ldc,
        m,
        n,
        k,
        ..
    } = p;
    let m_main = m - m % MR;
    let n_main = n - n % NR;
    // SAFETY: every address below lies in the panel (the `Panel` invariant).
    unsafe {
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
                    let bl = *b.add(l * ldb + j).cast::<[f64; NR]>();
                    for (r, row) in acc.iter_mut().enumerate() {
                        let av = *a.add(p.a_at(i + r, l));
                        if !TN && av == 0.0 {
                            continue;
                        }
                        for (v, &bx) in row.iter_mut().zip(&bl) {
                            *v += av * bx;
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
                nn_tn_edge(&p, i, j, MR, n - j);
            }
            i += MR;
        }
        if i < m {
            nn_tn_edge(&p, i, 0, m - i, n);
        }
    }
}

/// Generic-bounds NN/TN edge tile: direct `c` updates in the body's
/// per-element order.
///
/// # Safety
/// The tile `(i..i+mr) × (j..j+nr)` lies in the panel.
#[inline(always)]
unsafe fn nn_tn_edge<const TN: bool>(p: &Panel<TN>, i: usize, j: usize, mr: usize, nr: usize) {
    for l in 0..p.k {
        let bl = p.b.add(l * p.ldb + j);
        for r in 0..mr {
            let av = *p.a.add(p.a_at(i + r, l));
            if !TN && av == 0.0 {
                continue;
            }
            let crow = p.c.add((i + r) * p.ldc + j);
            for x in 0..nr {
                *crow.add(x) += av * *bl.add(x);
            }
        }
    }
}

/// NT body: [`NT_KC`]-chunked partial dot products (the legacy grouping)
/// over [`MR`]`×`[`NT_NR`] tiles of independent accumulator chains, with
/// an edge tile in the same grouping for the rest.
#[inline(always)]
fn nt_body(p: Panel) {
    let Panel {
        a,
        lda,
        b,
        ldb,
        c,
        ldc,
        m,
        n,
        k,
    } = p;
    let m_main = m - m % MR;
    let n_main = n - n % NT_NR;
    // SAFETY: every address below lies in the panel (the `Panel` invariant).
    unsafe {
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
                    nt_edge(&p, i, j, MR, n - j, ll, lhi);
                }
                i += MR;
            }
            if i < m {
                nt_edge(&p, i, 0, m - i, n, ll, lhi);
            }
            ll += NT_KC;
        }
    }
}

/// Generic-bounds NT edge tile for one contraction chunk `[ll, lhi)`, in
/// the body's partial-sum grouping.
///
/// # Safety
/// The tile `(i..i+mr) × (j..j+nr)` lies in the panel and `lhi ≤ k`.
#[inline(always)]
unsafe fn nt_edge(p: &Panel, i: usize, j: usize, mr: usize, nr: usize, ll: usize, lhi: usize) {
    for r in 0..mr {
        let arow = p.a.add((i + r) * p.lda);
        let crow = p.c.add((i + r) * p.ldc + j);
        for x in 0..nr {
            let brow = p.b.add((j + x) * p.ldb);
            let mut part = 0.0_f64;
            for l in ll..lhi {
                part += *arow.add(l) * *brow.add(l);
            }
            *crow.add(x) += part;
        }
    }
}
