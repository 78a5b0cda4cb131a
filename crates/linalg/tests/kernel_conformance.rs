//! Kernel conformance suite — the contract CI runs under both feature
//! combinations (default, `--no-default-features`):
//!
//! 1. **Bit-identity**: every GEMM flavour reproduces `kernel::reference`
//!    byte-for-byte on fixed shapes chosen to cross every tile boundary
//!    and the recursive split.
//! 2. **Run-to-run determinism**: two invocations of any kernel produce
//!    identical FNV-64 digests.
//! 3. **The zero skip is NN's alone**: exact zeros of `A` opposite
//!    non-finite entries of `B` keep `nn` finite and turn `tn`/`nt` NaN,
//!    each equal to `kernel::reference` bit for bit.

use enkf_linalg::kernel::gemm::{self, Layout};
use enkf_linalg::kernel::{self, reference};
use enkf_linalg::{GaussianSampler, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian bytes of the slice — the same digest
/// construction the trace/digest conformance suites use.
fn fnv64(data: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in data {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn random_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gs = GaussianSampler::new();
    Matrix::from_fn(r, c, |_, _| gs.sample(&mut rng))
}

/// Shapes crossing every boundary the kernels care about: the recursive
/// split (>128 rows/cols), partial MR/NR edge tiles, k past one NT chunk,
/// and degenerate single-row/column outputs.
const SHAPES: &[(usize, usize, usize)] = &[
    (200, 17, 150),
    (300, 3, 40),
    (40, 70, 300),
    (129, 1, 129),
    (1, 64, 1),
    (131, 131, 5),
];

fn assert_bits(new: &[f64], old: &[f64], what: &str) {
    assert_eq!(new.len(), old.len(), "{what}: length");
    for (i, (a, b)) in new.iter().zip(old).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
    }
}

/// Run all three GEMM flavours through the one entry point, each beside
/// its `kernel::reference` oracle.
fn run_all(m: usize, k: usize, n: usize, seed: u64) -> [(Vec<f64>, Vec<f64>); 3] {
    let a_nn = random_matrix(m, k, seed);
    let b_nn = random_matrix(k, n, seed ^ 1);
    let a_tn = random_matrix(k, m, seed ^ 2);
    let b_tn = random_matrix(k, n, seed ^ 3);
    let a_nt = random_matrix(m, k, seed ^ 4);
    let b_nt = random_matrix(n, k, seed ^ 5);

    let mut out = [
        (vec![0.0; m * n], vec![0.0; m * n]),
        (vec![0.0; m * n], vec![0.0; m * n]),
        (vec![0.0; m * n], vec![0.0; m * n]),
    ];
    gemm::tuned(
        Layout::Nn,
        a_nn.as_slice(),
        b_nn.as_slice(),
        &mut out[0].0,
        m,
        k,
        n,
    );
    reference::nn(a_nn.as_slice(), b_nn.as_slice(), &mut out[0].1, m, k, n);
    gemm::tuned(
        Layout::Tn,
        a_tn.as_slice(),
        b_tn.as_slice(),
        &mut out[1].0,
        m,
        k,
        n,
    );
    reference::tn(a_tn.as_slice(), b_tn.as_slice(), &mut out[1].1, m, k, n);
    gemm::tuned(
        Layout::Nt,
        a_nt.as_slice(),
        b_nt.as_slice(),
        &mut out[2].0,
        m,
        k,
        n,
    );
    reference::nt(a_nt.as_slice(), b_nt.as_slice(), &mut out[2].1, m, k, n);
    out
}

#[test]
fn gemm_conformance_against_reference() {
    println!("kernel conformance: isa={}", kernel::active_isa().name());
    for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
        let results = run_all(m, k, n, 1000 + si as u64);
        for (flavour, (new, old)) in ["nn", "tn", "nt"].iter().zip(&results) {
            assert_bits(new, old, &format!("{flavour} {m}x{k}x{n}"));
        }
    }
}

#[test]
fn kernels_are_run_to_run_deterministic() {
    for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
        let first = run_all(m, k, n, 2000 + si as u64);
        let second = run_all(m, k, n, 2000 + si as u64);
        for (flavour, (one, two)) in ["nn", "tn", "nt"]
            .iter()
            .zip(first.iter().map(|r| &r.0).zip(second.iter().map(|r| &r.0)))
        {
            assert_eq!(
                fnv64(one),
                fnv64(two),
                "{flavour} {m}x{k}x{n}: nondeterministic result"
            );
        }
    }
}

/// A `kernel::reference` product: `(a, b, out, m, k, n)`.
type Oracle = fn(&[f64], &[f64], &mut [f64], usize, usize, usize);

/// Exact zeros of `A` opposite `±∞`/NaN entries of `B`, on shapes that cross
/// the edge tiles, an NT contraction chunk and the 128-panel split. `nn` skips exact-zero `A` terms, as `reference::nn`
/// does, so its output stays finite; `tn` and `nt` add them, so `0·∞` and
/// `0·NaN` propagate NaN. Gaussian inputs cannot tell skip from no skip;
/// this case fails if the skip moves to the wrong layout.
#[test]
fn zero_skip_is_nn_only() {
    // Contraction index `l` is poisoned when `l % 3 == 1`: every `A(i, l)`
    // is 0 and `B(l, j)` is ∞, −∞ or NaN by `j % 3`, so no output element
    // meets two different NaN payloads.
    let poison = |l: usize| l % 3 == 1;
    let bad = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    for (si, &(m, k, n)) in [(131, 7, 133), (133, 70, 131), (5, 4, 9)]
        .iter()
        .enumerate()
    {
        let seed = 3000 + si as u64;
        let (a0, b0) = (random_matrix(m, k, seed), random_matrix(k, n, seed ^ 1));
        let a = Matrix::from_fn(m, k, |i, l| if poison(l) { 0.0 } else { a0[(i, l)] });
        let b = Matrix::from_fn(k, n, |l, j| if poison(l) { bad[j % 3] } else { b0[(l, j)] });
        let (at, bt) = (a.transpose(), b.transpose());
        let cases: [(Layout, &Matrix, &Matrix, Oracle); 3] = [
            (Layout::Nn, &a, &b, reference::nn),
            (Layout::Tn, &at, &b, reference::tn),
            (Layout::Nt, &a, &bt, reference::nt),
        ];
        for (layout, lhs, rhs, oracle) in cases {
            let (lhs, rhs) = (lhs.as_slice(), rhs.as_slice());
            let mut got = vec![0.0; m * n];
            let mut want = vec![0.0; m * n];
            gemm::tuned(layout, lhs, rhs, &mut got, m, k, n);
            oracle(lhs, rhs, &mut want, m, k, n);
            let what = format!("{layout:?} {m}x{k}x{n}");
            assert_bits(&got, &want, &what);
            assert_eq!(
                want.iter().all(|v| v.is_finite()),
                layout == Layout::Nn,
                "{what}: only the NN oracle skips"
            );
        }
    }
}
