//! ISA detection and the explicit-SIMD register-tiled microkernels.
//!
//! The default kernels are **bit-identical across every dispatch target**:
//! the AVX2 paths compute each output element with exactly the same IEEE
//! multiply-then-add sequence as the scalar fallback (vectorization is
//! across output *columns*, never across the contraction index, and no
//! fused multiply-add is issued), so a run on an AVX2 machine and a run on
//! a baseline x86-64 or non-x86 machine produce the same bytes. Runtime
//! dispatch therefore needs no feature gate for correctness; the `simd`
//! cargo feature (default on) only controls whether detection is compiled
//! in at all.

// Pointer + stride kernels necessarily carry many scalar parameters.
#![allow(clippy::too_many_arguments)]
use std::sync::OnceLock;

/// Instruction-set tier selected at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar kernels (auto-vectorized by the compiler for the
    /// build target's baseline, e.g. SSE2 on x86-64).
    Scalar,
    /// 4-lane `f64` AVX2 kernels, multiply-then-add only.
    Avx2,
    /// AVX2 plus FMA hardware. Dispatches the same multiply-then-add
    /// kernels as [`Isa::Avx2`]; the tier is reported so a ledger run
    /// records what the host has.
    Avx2Fma,
}

impl Isa {
    /// Human-readable tier name (the perf ledger records it in a run's `env`).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx2Fma => "avx2+fma",
        }
    }
}

/// The ISA tier the kernel layer dispatches to, detected once per process.
pub fn active_isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(detect)
}

#[cfg(all(target_arch = "x86_64", feature = "simd"))]
fn detect() -> Isa {
    if std::arch::is_x86_feature_detected!("avx2") {
        if std::arch::is_x86_feature_detected!("fma") {
            Isa::Avx2Fma
        } else {
            Isa::Avx2
        }
    } else {
        Isa::Scalar
    }
}

#[cfg(not(all(target_arch = "x86_64", feature = "simd")))]
fn detect() -> Isa {
    Isa::Scalar
}

#[cfg(all(target_arch = "x86_64", feature = "simd"))]
pub use x86::*;

#[cfg(all(target_arch = "x86_64", feature = "simd"))]
mod x86 {
    use crate::kernel::gemm::{nn_tile_scalar, tn_tile_scalar};
    use crate::kernel::tiles::{MR, NR};
    use core::arch::x86_64::*;

    /// `acc <- acc + a*b` as two IEEE roundings (never fused), which is
    /// what keeps the vector lanes bit-identical to the scalar kernels.
    #[inline(always)]
    unsafe fn mul_acc(acc: __m256d, a: __m256d, b: __m256d) -> __m256d {
        _mm256_add_pd(acc, _mm256_mul_pd(a, b))
    }

    /// AVX2 NN microkernel (multiply-then-add; bit-identical to scalar):
    /// 4×8 register tiles (8 accumulator vectors), edges delegated to the
    /// scalar tile (same per-element order). The `av == 0` skip branch of
    /// the legacy kernel is preserved per `(row, l)` pair.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and that the pointers cover
    /// `m×k` (`a`, row stride `lda`), `k×n` (`b`, stride `ldb`) and `m×n`
    /// (`c`, stride `ldc`) with `c` disjoint from `a`/`b`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn nn_block_avx2(
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
                let cij = c.add(i * ldc + j);
                let mut acc = [[_mm256_setzero_pd(); 2]; MR];
                for (r, row) in acc.iter_mut().enumerate() {
                    row[0] = _mm256_loadu_pd(cij.add(r * ldc));
                    row[1] = _mm256_loadu_pd(cij.add(r * ldc + 4));
                }
                for l in 0..k {
                    let bl = b.add(l * ldb + j);
                    let b0 = _mm256_loadu_pd(bl);
                    let b1 = _mm256_loadu_pd(bl.add(4));
                    for (r, row) in acc.iter_mut().enumerate() {
                        let av = *a.add((i + r) * lda + l);
                        if av == 0.0 {
                            continue;
                        }
                        let avv = _mm256_set1_pd(av);
                        row[0] = mul_acc(row[0], avv, b0);
                        row[1] = mul_acc(row[1], avv, b1);
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    _mm256_storeu_pd(cij.add(r * ldc), row[0]);
                    _mm256_storeu_pd(cij.add(r * ldc + 4), row[1]);
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

    /// AVX2 TN microkernel (`AᵀB`; multiply-then-add, bit-identical to
    /// scalar): identical tiling to NN; the left value comes from
    /// `a[l*lda + i + r]` (contiguous across the 4 tile rows) and there is
    /// deliberately no zero-skip branch, matching the legacy kernel.
    ///
    /// # Safety
    /// AVX2 available; `a` covers `k×(lda≥m)` (its columns are the logical
    /// left rows), `b` covers `k×n` stride `ldb`, `c` covers `m×n` stride
    /// `ldc`, `c` disjoint from `a`/`b`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tn_block_avx2(
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
                let cij = c.add(i * ldc + j);
                let mut acc = [[_mm256_setzero_pd(); 2]; MR];
                for (r, row) in acc.iter_mut().enumerate() {
                    row[0] = _mm256_loadu_pd(cij.add(r * ldc));
                    row[1] = _mm256_loadu_pd(cij.add(r * ldc + 4));
                }
                for l in 0..k {
                    let al = a.add(l * lda + i);
                    let bl = b.add(l * ldb + j);
                    let b0 = _mm256_loadu_pd(bl);
                    let b1 = _mm256_loadu_pd(bl.add(4));
                    for (r, row) in acc.iter_mut().enumerate() {
                        let avv = _mm256_set1_pd(*al.add(r));
                        row[0] = mul_acc(row[0], avv, b0);
                        row[1] = mul_acc(row[1], avv, b1);
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    _mm256_storeu_pd(cij.add(r * ldc), row[0]);
                    _mm256_storeu_pd(cij.add(r * ldc + 4), row[1]);
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
}
