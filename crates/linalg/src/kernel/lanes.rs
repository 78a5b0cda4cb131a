//! Lane kernels: `W` same-sized problems solved side by side, one per
//! lane of a `[f64; W]`.
//!
//! Every lane runs exactly the IEEE operation sequence of the scalar
//! kernel it mirrors — the same operands, the same order, multiply then
//! add, never fused — so a lane's bits equal the scalar result whatever
//! `W` is. Width 1 *is* the scalar kernel. The bodies are generic and
//! `#[inline(always)]`; every entry is defined by `lane_entry!`, which runs
//! them as an instance compiled with the `avx2` target feature when
//! [`super::active_isa`] reports AVX2, where a `[f64; 4]` operation is one
//! vector instruction, and as the baseline instance otherwise. The GEMM
//! base cases ([`super::gemm`]) are `lane_entry!`s too, so this macro is the
//! crate's one AVX2 dispatch.
//!
//! SPD systems are stored packed lower: row `i`'s entries `0..=i` start
//! at [`tri`]`(i)`.

use super::simd::{active_isa, Isa};
use crate::{LinalgError, Result};

/// Offset of row `i` in packed-lower storage.
#[inline(always)]
pub const fn tri(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Lane-wise arithmetic on `[f64; W]`, each lane the scalar operation.
pub trait LaneOps: Copy {
    /// `self + o`.
    fn add(self, o: Self) -> Self;
    /// `self − o`.
    fn sub(self, o: Self) -> Self;
    /// `self · o`.
    fn mul(self, o: Self) -> Self;
    /// `self / o`.
    fn div(self, o: Self) -> Self;
    /// [`f64::max`], NaN rule included.
    fn max(self, o: Self) -> Self;
    /// [`f64::sqrt`].
    fn sqrt(self) -> Self;
}

macro_rules! lane_binops {
    ($($name:ident: $f:expr),*) => {$(
        #[inline(always)]
        fn $name(self, o: Self) -> Self {
            let mut r = self;
            for l in 0..W {
                r[l] = $f(self[l], o[l]);
            }
            r
        }
    )*};
}

impl<const W: usize> LaneOps for [f64; W] {
    lane_binops!(add: |a, b| a + b, sub: |a, b| a - b, mul: |a, b| a * b,
        div: |a, b| a / b, max: f64::max);
    #[inline(always)]
    fn sqrt(self) -> Self {
        self.map(f64::sqrt)
    }
}

/// Whether the lane bodies run as their AVX2 instance on this host.
#[inline]
pub(crate) fn use_avx2() -> bool {
    !matches!(active_isa(), Isa::Scalar)
}

/// Define a lane entry: `fn $name[generics](args) -> R = body;` becomes a
/// function that calls the `#[inline(always)]` generic `body` with its
/// arguments, as an instance compiled with the `avx2` target feature when
/// [`use_avx2`] holds and as the baseline instance otherwise. Every lane
/// entry and every GEMM base case is defined through here, so this is the
/// one `unsafe` call of an AVX2 instance. (The body must be called in the
/// AVX2 function itself: a closure would be compiled as its own baseline
/// function.)
macro_rules! lane_entry {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident[$($g:tt)*]($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty = $body:path;
    ) => {
        $(#[$attr])*
        $vis fn $name<$($g)*>($($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            if $crate::kernel::lanes::use_avx2() {
                #[target_feature(enable = "avx2")]
                fn avx2<$($g)*>($($arg: $ty),*) -> $ret {
                    $body($($arg),*)
                }
                // SAFETY: `use_avx2` checked that the host executes AVX2.
                return unsafe { avx2($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}
pub(crate) use lane_entry;

lane_entry! {
    /// Factor `W` packed-lower SPD matrices of order `n` in place
    /// (`A = L Lᵀ`); `col` is scratch. Returns each lane's first
    /// non-positive or non-finite pivot, the index
    /// [`crate::Cholesky::factor`] reports; a failed lane's factor is
    /// garbage, the other lanes are unaffected.
    pub fn factor_lanes[const W: usize](
        l: &mut [[f64; W]],
        n: usize,
        col: &mut Vec<[f64; W]>,
    ) -> [Option<usize>; W] = factor_body;
}

/// `Ok` when every lane of a [`factor_lanes`] result factored, else the
/// first failed lane's [`LinalgError::NotPositiveDefinite`].
pub fn check_pivots<const W: usize>(bad: [Option<usize>; W]) -> Result<()> {
    match bad.into_iter().flatten().next() {
        Some(j) => Err(LinalgError::NotPositiveDefinite(j)),
        None => Ok(()),
    }
}

lane_entry! {
    /// Solve `L Lᵀ x = b` in place for every lane, given [`factor_lanes`]'s
    /// output (`x` holds `b` on entry).
    pub fn solve_lanes[const W: usize](l: &[[f64; W]], n: usize, x: &mut [[f64; W]]) -> () = solve_body;
}

/// The right-looking factor ([`crate::Cholesky`] is its width 1), lane by
/// lane: once column `j` is final, each trailing row gets
/// `-= L[i][j] · L[m][j]` in ascending `j`.
#[inline(always)]
pub(crate) fn factor_body<const W: usize>(
    l: &mut [[f64; W]],
    n: usize,
    col: &mut Vec<[f64; W]>,
) -> [Option<usize>; W] {
    let mut bad = [None; W];
    col.clear();
    col.resize(n, [0.0; W]);
    for j in 0..n {
        let pivot = l[tri(j) + j];
        for (b, &v) in bad.iter_mut().zip(&pivot) {
            if b.is_none() && (v <= 0.0 || !v.is_finite()) {
                *b = Some(j);
            }
        }
        let ljj = pivot.sqrt();
        l[tri(j) + j] = ljj;
        for i in (j + 1)..n {
            let lij = l[tri(i) + j].div(ljj);
            l[tri(i) + j] = lij;
            col[i] = lij;
        }
        for i in (j + 1)..n {
            let lij = col[i];
            let row = &mut l[tri(i) + j + 1..=tri(i) + i];
            for (x, &lmj) in row.iter_mut().zip(&col[j + 1..=i]) {
                *x = x.sub(lij.mul(lmj));
            }
        }
    }
    bad
}

/// Forward then back substitution, both subtracting in ascending `k`.
#[inline(always)]
pub(crate) fn solve_body<const W: usize>(l: &[[f64; W]], n: usize, x: &mut [[f64; W]]) {
    for i in 0..n {
        let row = &l[tri(i)..=tri(i) + i];
        let (done, rest) = x.split_at_mut(i);
        let mut sum = rest[0];
        for (&lik, &yk) in row.iter().zip(done.iter()) {
            sum = sum.sub(lik.mul(yk));
        }
        rest[0] = sum.div(row[i]);
    }
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in (i + 1)..n {
            sum = sum.sub(l[tri(k) + i].mul(x[k]));
        }
        x[i] = sum.div(l[tri(i) + i]);
    }
}
