//! The kernel layer: the compute floor of `enkf-linalg`.
//!
//! Everything above this module (matrix products, the Gram eigensolve,
//! the local-analysis solves, the PFS byte codecs) bottoms out in a small
//! set of kernels that this module owns:
//!
//! - [`gemm`] — one cache-oblivious divide-and-conquer recursion for the
//!   three product families (`A·B`, `Aᵀ·B`, `A·Bᵀ`), finished by one
//!   register-tiled body per accumulation order, plus the unrolled
//!   matrix-vector product and `dot`.
//! - `simd` (via re-exports) — runtime ISA detection, nothing else.
//! - [`lanes`] — `W` same-sized SPD factor/solves side by side, one per
//!   `[f64; W]` lane, each lane bit-identical to the scalar kernel, and
//!   `lane_entry!`, which compiles every lane and GEMM body as an `avx2`
//!   instance and a baseline instance.
//! - [`convert`] — bulk little-endian ↔ `f64` codecs shared with
//!   `enkf-pfs`.
//! - `tiles` — every tiling/dispatch constant, with the cache
//!   reasoning attached.
//! - [`mod@reference`] — the pre-kernel-layer blocked loops, frozen as the
//!   bit-identity oracle and the perf ledger's `linalg.gemm_ref_gflops`
//!   arm.
//!
//! # Determinism contract
//!
//! Default-feature kernels are **bit-identical** to the legacy
//! implementations, element for element, across ISA tiers and thread
//! counts (see [`gemm`] for the pinned accumulation orders); the digests
//! in `tests/kernel_conformance.rs` pin them under the default build and
//! under `--no-default-features`.

pub mod convert;
pub mod gemm;
pub mod lanes;
pub mod reference;
mod simd;
pub(crate) mod tiles;

pub use simd::active_isa;
