//! The pre-kernel-layer blocked GEMM loops, kept verbatim.
//!
//! These are the exact serial kernels that `matrix.rs` shipped before the
//! cache-oblivious layer existed. They serve two purposes:
//!
//! 1. **Bit-identity oracle** — the proptests in `tests/proptests.rs` and
//!    the conformance suite assert that the new recursive + SIMD kernels
//!    reproduce these byte-for-byte under default features.
//! 2. **Roofline baseline** — the perf ledger times [`nn`] as
//!    `linalg.gemm_ref_gflops` beside `linalg.gemm_gflops`, so the speedup
//!    is against the real previous implementation rather than a strawman.
//!
//! Do not "improve" this module; its value is that it never changes.

use super::tiles::LEGACY_BLOCK;

/// Legacy blocked GEMM: `out[0..m] += a * b` with `a` `m×k`, `b` `k×n`.
///
/// Accumulation per output element ascends the shared index `l` and skips
/// exact-zero left operands — the order the default kernel layer pins.
pub fn nn(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_block(a, b, out, 0, m, k, n);
}

/// Legacy blocked transpose-GEMM: `out += aᵀ b` with `a` `k×m`, `b` `k×n`.
pub fn tn(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    tr_gemm_block(a, b, out, 0, m, k, n, m);
}

/// Legacy blocked NT-GEMM: `out += a bᵀ` with `a` `m×k`, `b` `n×k`.
///
/// Each output element accumulates `LEGACY_BLOCK`-wide partial dot
/// products in ascending chunk order; the default NT kernel reproduces the
/// same grouping via `super::tiles::NT_KC`.
pub fn nt(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    nt_gemm_block(a, b, out, 0, m, k, n);
}

/// Legacy matrix-vector product: one ascending fold per row.
pub fn matvec(a: &[f64], x: &[f64], out: &mut Vec<f64>, m: usize, k: usize) {
    out.clear();
    out.extend((0..m).map(|i| {
        a[i * k..(i + 1) * k]
            .iter()
            .zip(x)
            .map(|(&a, &b)| a * b)
            .sum::<f64>()
    }));
}

fn gemm_block(a: &[f64], b: &[f64], out: &mut [f64], i0: usize, rows: usize, k: usize, n: usize) {
    for jj in (0..n).step_by(LEGACY_BLOCK) {
        let jhi = (jj + LEGACY_BLOCK).min(n);
        for ll in (0..k).step_by(LEGACY_BLOCK) {
            let lhi = (ll + LEGACY_BLOCK).min(k);
            for i in 0..rows {
                let arow = &a[(i0 + i) * k..(i0 + i) * k + k];
                let orow = &mut out[i * n + jj..i * n + jhi];
                for l in ll..lhi {
                    let av = arow[l];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[l * n + jj..l * n + jhi];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn tr_gemm_block(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
    m: usize,
) {
    for jj in (0..n).step_by(LEGACY_BLOCK) {
        let jhi = (jj + LEGACY_BLOCK).min(n);
        for ll in (0..k).step_by(LEGACY_BLOCK) {
            let lhi = (ll + LEGACY_BLOCK).min(k);
            for l in ll..lhi {
                let arow = &a[l * m..(l + 1) * m];
                let brow = &b[l * n + jj..l * n + jhi];
                for i in 0..rows {
                    let av = arow[i0 + i];
                    let orow = &mut out[i * n + jj..i * n + jhi];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
    }
}

fn nt_gemm_block(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    for ll in (0..k).step_by(LEGACY_BLOCK) {
        let lhi = (ll + LEGACY_BLOCK).min(k);
        for i in 0..rows {
            let arow = &a[(i0 + i) * k + ll..(i0 + i) * k + lhi];
            let orow = &mut out[i * n..(i + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let brow = &b[j * k + ll..j * k + lhi];
                *o += arow.iter().zip(brow).map(|(&a, &b)| a * b).sum::<f64>();
            }
        }
    }
}
