//! Counting-allocator proof that an untraced modelled cycle pays only for
//! emission and the run: a warm call of each untraced forward
//! (`model_senkf`, `model_penkf`, `model_lenkf`, `model_denkf`) adds its
//! tasks without a per-task heap allocation and folds its outcome off the
//! run's span stream without building the trace.
//!
//! Two bounds, per variant, on a mid-size configuration:
//!
//! * at most one allocation call per two tasks (what is left is per call,
//!   per rank or per stage of the program, never per task);
//! * fewer bytes than a quarter of the spans' footprint
//!   (`tasks × size_of::<Span>() / 4`) — the trace the call no longer
//!   builds would be at least four times that. D-EnKF counts each shard's
//!   observed rows on the uniform network's lattice, so it builds no
//!   network and is held to this bound too.
//!
//! Beside them, a warm call at each of the four 1,200-rank points the
//! benchmark prices (`des_paper_scale`; S-EnKF has 406,080 tasks) stays
//! within a fixed budget of allocation calls and bytes, set from a
//! measurement: the pricer's mailboxes share one list of sends in the
//! thread's arena instead of owning a vector each, and the program's rules
//! the pricer steps keep their state there too.

use s_enkf::parallel::{
    model_cycle, model_denkf, model_lenkf, model_penkf, model_senkf, ModelConfig, ModelOutcome,
    ModelVariant,
};
use s_enkf::prelude::FaultConfig;
use s_enkf::trace::{Op, Span};
use s_enkf::tuning::{autotune, Params, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper counting every allocation-side call and the
/// bytes it requested.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A 720 × 360 mesh, 24 members: a few thousand to tens of thousands of
/// tasks per variant, quick in a debug build.
fn cfg() -> ModelConfig {
    ModelConfig {
        workload: Workload {
            nx: 720,
            ny: 360,
            members: 24,
            h: 80,
            xi: 2,
            eta: 2,
        },
        ..ModelConfig::paper()
    }
}

/// The untraced forward of `variant`.
fn untraced(cfg: &ModelConfig, variant: ModelVariant) -> ModelOutcome {
    match variant {
        ModelVariant::SEnkf(params) => model_senkf(cfg, params),
        ModelVariant::PEnkf { nsdx, nsdy } => model_penkf(cfg, nsdx, nsdy),
        ModelVariant::LEnkf { nsdx, nsdy } => model_lenkf(cfg, nsdx, nsdy),
        ModelVariant::DEnkf { shards } => model_denkf(cfg, shards),
    }
    .unwrap()
}

/// One test, so no other test's allocations land in the counters. Every
/// call runs on this thread, whose simulation the first calls warm.
#[test]
fn warm_untraced_calls_allocate_nothing_per_task() {
    let cfg = cfg();
    let variants = [
        ModelVariant::SEnkf(Params {
            nsdx: 24,
            nsdy: 6,
            layers: 6,
            ncg: 4,
        }),
        ModelVariant::PEnkf { nsdx: 24, nsdy: 12 },
        ModelVariant::LEnkf { nsdx: 24, nsdy: 12 },
        ModelVariant::DEnkf { shards: 24 },
    ];
    for variant in variants {
        let none = FaultConfig::none();
        let (traced, trace) = model_cycle(&cfg, &variant, Default::default(), &none, None).unwrap();
        let tasks = trace.spans().iter().filter(|s| s.op != Op::Wait).count();
        drop(trace);
        // Warm: the thread's simulation has held this graph already; one
        // untraced call more settles every other buffer it reuses.
        untraced(&cfg, variant);

        let (calls, bytes) = (
            ALLOCATIONS.load(Ordering::SeqCst),
            BYTES.load(Ordering::SeqCst),
        );
        let out = untraced(&cfg, variant);
        let calls = ALLOCATIONS.load(Ordering::SeqCst) - calls;
        let bytes = BYTES.load(Ordering::SeqCst) - bytes;

        println!("{variant:?}: {tasks} tasks, {calls} allocations, {bytes} bytes");
        assert_eq!(
            out, traced,
            "{variant:?}: the untraced outcome is model_cycle's"
        );
        assert!(
            calls <= tasks / 2,
            "{variant:?}: {calls} allocations for {tasks} tasks"
        );
        let bound = tasks * std::mem::size_of::<Span>() / 4;
        assert!(
            bytes < bound,
            "{variant:?}: {bytes} bytes allocated, bound {bound}"
        );
    }

    // The benchmark's points: the four 1,200-rank cycles of
    // `des_paper_scale`, S-EnKF autotuned as the perf ledger tunes it. A
    // warm call allocates per call, per stage or per contended resource,
    // never per task, per mailbox, or per `(rank, stage)` or mesh row of
    // the program's rules: the arena keeps them all. Bounds set from a
    // measurement before the rules
    // moved into the arena — S-EnKF 321 allocations and 1,957,824 bytes
    // (the list the cleared resources' queues wait in grows once, in this
    // first warm call), P-EnKF 4 and 68,160, L-EnKF 5 and 135,360, D-EnKF
    // 5 and 8,640 — which the rules leave unchanged. A vector per mailbox
    // (51,840 of them) would make ~10⁵ calls, a fresh queue per contended
    // NIC and OST ~1,100 more.
    let paper = ModelConfig::paper();
    let tuned = autotune(&paper.cost_params(), 1_200, 1e-3).unwrap().params;
    for (variant, max_calls, max_bytes) in [
        (ModelVariant::SEnkf(tuned), 400, 2_000_000),
        (ModelVariant::PEnkf { nsdx: 30, nsdy: 40 }, 8, 80_000),
        (ModelVariant::LEnkf { nsdx: 30, nsdy: 40 }, 8, 150_000),
        (ModelVariant::DEnkf { shards: 120 }, 8, 10_000),
    ] {
        untraced(&paper, variant);
        let (calls, bytes) = (
            ALLOCATIONS.load(Ordering::SeqCst),
            BYTES.load(Ordering::SeqCst),
        );
        untraced(&paper, variant);
        let calls = ALLOCATIONS.load(Ordering::SeqCst) - calls;
        let bytes = BYTES.load(Ordering::SeqCst) - bytes;
        println!("paper-scale {variant:?}: {calls} allocations, {bytes} bytes");
        assert!(
            calls <= max_calls,
            "paper-scale {variant:?}: {calls} allocations"
        );
        assert!(bytes <= max_bytes, "paper-scale {variant:?}: {bytes} bytes");
    }
}
