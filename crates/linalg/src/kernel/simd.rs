//! Runtime ISA detection.
//!
//! The kernels have no hand-written SIMD: every lane and GEMM body is
//! generic Rust that `lane_entry!` ([`super::lanes`]) compiles twice, as an
//! `avx2` instance and as the baseline instance, and [`active_isa`] picks
//! which one runs. Both instances issue each element's IEEE
//! multiply-then-add sequence unchanged (vectorization is across output
//! columns or lanes, never across a contraction, and no fused multiply-add
//! is issued), so an AVX2 host and a baseline x86-64 or non-x86 host
//! produce the same bytes. Dispatch therefore needs no feature gate for
//! correctness; the `simd` cargo feature (default on) only decides whether
//! detection is compiled in at all.

use std::sync::OnceLock;

/// Instruction-set tier selected at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The baseline instances (auto-vectorized by the compiler for the
    /// build target's baseline, e.g. SSE2 on x86-64).
    Scalar,
    /// The `avx2` instances, where a 4-lane `f64` operation is one vector
    /// instruction; multiply-then-add only.
    Avx2,
    /// AVX2 plus FMA hardware. Runs the same multiply-then-add instances
    /// as [`Isa::Avx2`]; the tier is reported so a ledger run records what
    /// the host has.
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
