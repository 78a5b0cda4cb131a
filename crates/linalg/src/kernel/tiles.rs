//! The single source of truth for every tiling constant in the kernel
//! layer.
//!
//! Before the kernel layer each blocked product in `matrix.rs` carried its
//! own hard-coded block edge; they happened to agree (64) but nothing
//! enforced it, and the parallel-dispatch heuristics were duplicated per
//! product. Everything tunable now lives here, with the cache-level
//! reasoning attached, so GEMM / trᵀ-GEMM / NT-GEMM cannot drift apart
//! again.
//!
//! # Cache reasoning
//!
//! The working set of the cache-oblivious recursion's base case is one
//! `BASE × BASE` panel of `C` (held hot across the full `k` sweep),
//! one `BASE × k` panel of `A` and one `k × BASE` panel of `B`
//! streaming through. At `BASE = 128` the `C` panel is
//! `128 · 128 · 8 B = 128 KiB` — it exceeds a typical 32–48 KiB L1d but
//! sits comfortably in a 512 KiB–1 MiB L2, and the *register* tile
//! (`MR × NR`, see below) is what actually bounces in and out of L1. The
//! divide-and-conquer above the base case keeps halving the larger of
//! `m`/`n`, so every recursion level reuses whatever cache level its panel
//! happens to fit in — the cache-oblivious property: no level-specific
//! tuning, near-optimal reuse at every level of the hierarchy.
//!
//! The register tile is `MR × NR = 4 × 8` doubles: 8 columns are two
//! 4-lane vectors in the `avx2` instance (or four SSE2 vectors in the
//! baseline instance), times 4 rows = 8 accumulator registers, leaving
//! the rest of the 16 architectural vector registers for the broadcast
//! `A` value and the streamed `B` row. Larger tiles spill; smaller tiles
//! leave the FMA/ALU ports idle waiting on the per-element dependency
//! chain (`vaddpd` latency ≈ 4 cycles needs ≥ 8 independent chains to
//! saturate two ports).

/// Base-case edge for the cache-oblivious recursion: subproblems with
/// `m ≤ BASE` and `n ≤ BASE` are handed to the register-tiled body. 128
/// keeps the hot `C` panel (≤ 128 KiB) within L2 while the recursion
/// above provides the L3/L2 blocking for free.
pub(crate) const BASE: usize = 128;

/// Register-tile rows: independent accumulator chains per column vector.
pub(crate) const MR: usize = 4;
/// Register-tile columns: two 4-lane `f64` vectors in the `avx2` instance.
pub(crate) const NR: usize = 8;

/// Contraction-dimension chunk of the NT (`A·Bᵀ`) kernel's partial sums.
///
/// **Pinned for bit-compatibility** — the pre-kernel-layer NT product
/// accumulated each output element as a sequence of 64-wide partial dot
/// products (`out += Σ_{l∈chunk} a·b` per chunk, chunks ascending), and
/// the default deterministic kernel must reproduce those exact bit
/// patterns. 64 doubles = 512 B per operand row chunk, comfortably L1
/// resident; do not retune without a digest migration.
pub(crate) const NT_KC: usize = 64;

/// Register-tile columns of the NT kernel: 4 independent `B` rows per `A`
/// row gives `MR × NT_NR = 16` scalar accumulator chains — enough to hide
/// the ~4-cycle add latency that made the old one-chain-per-element NT
/// loop latency-bound.
pub(crate) const NT_NR: usize = 4;

/// Row-group size of the unrolled `matvec` kernel: 4 independent
/// per-row dot-product chains (each still folded in ascending index
/// order, so per-row results are bit-identical to a single chain).
pub(crate) const MATVEC_MR: usize = 4;

/// Legacy block edge of the pre-kernel-layer blocked loops, kept for the
/// verbatim reference implementations in [`crate::kernel::reference`].
pub(crate) const LEGACY_BLOCK: usize = 64;
