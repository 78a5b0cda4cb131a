//! Read-ahead pipelining for the staged reading loop.
//!
//! The S-EnKF concurrent-group reader walks the vertical stages in order:
//! read stage `l`'s bar, split it into per-sub-domain blocks, send the
//! blocks onward. The reads and the sends are independent across stages,
//! so [`read_stages_ahead`] overlaps them: a prefetch thread reads stage
//! `l+1`'s bar (through the resilient path, with its own forked tracer)
//! while the caller's closure is still scattering stage `l`'s blocks —
//! deepening the read/compute overlap the paper's Fig. 11 measures,
//! double-buffered through the store's [`crate::store::BufferPool`].
//!
//! Digest safety: the prefetch thread performs *exactly* the reads the
//! sequential loop would (same members, same regions, same stage tags,
//! same resilient retry/backoff sequence), only earlier in wall time.
//! Trace digests are time-free sorted multisets and the fault digest sorts
//! the events it projects from the same spans, so overlapping the reads
//! cannot move either digest.
//! The stage plan must therefore be truncated *before* calling (e.g. at a
//! planned crash stage) — the prefetcher never reads past the plan.

use crate::resilient::read_region_adaptive;
use crate::store::{FileStore, RegionData};
use enkf_fault::{FaultInjector, SubstrateError};
use enkf_grid::RegionRect;
use enkf_health::HealthMonitor;
use enkf_trace::RankTracer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;

/// Failpoint: when set, the next read-ahead reader thread panics before its
/// first read, then the flag clears itself. This is the regression hook
/// pinning that a prefetch-thread panic surfaces as
/// [`ReadAheadError::ReaderPanicked`] instead of propagating a panic out of
/// the pipelined read path. Test-only by convention; one relaxed load per
/// plan when unset.
#[doc(hidden)]
pub(crate) static FAIL_READER_PANIC: AtomicBool = AtomicBool::new(false);

/// One stage of a read plan: which members' copies of which region to read.
#[derive(Debug, Clone)]
pub struct StageRead {
    /// Vertical stage index (trace stage tag).
    pub stage: usize,
    /// The region (bar) every listed member reads at this stage.
    pub region: RegionRect,
    /// Members to read, in order.
    pub members: Vec<usize>,
}

/// Why [`read_stages_ahead`] stopped early.
#[derive(Debug)]
pub enum ReadAheadError<E> {
    /// A member read failed (after the resilient retry policy) at `stage`.
    Read {
        stage: usize,
        member: usize,
        error: SubstrateError,
    },
    /// The consumer closure returned an error.
    Consume(E),
    /// The prefetch thread panicked. The panic is contained here — spans of
    /// reads that completed before the panic are preserved in the caller's
    /// tracer, and the caller gets a typed error instead of a propagated
    /// panic (the pre-fix behaviour was an `.expect()` that tore down the
    /// whole executor).
    ReaderPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

/// Run a staged read plan with one-stage read-ahead.
///
/// For each entry of `stages` in order, all listed members' `region` data
/// is read via [`crate::read_region_resilient`] and handed to `consume` together
/// with the stage descriptor and the main tracer (for send spans). While
/// `consume` runs for stage `k`, a prefetch thread is already reading
/// stage `k+1` (bounded to one stage of look-ahead by a rendezvous
/// channel, so at most two stages of bars are in flight — double
/// buffering).
///
/// Members listed in `skip_failed` (the degraded-mode dropped set) still
/// have their reads *attempted* — charging the same fault spans the
/// sequential loop charges — but a failure skips the member instead of
/// stopping the pipeline, so `consume` receives data for the plan's
/// surviving members only, in plan order.
///
/// The prefetch thread traces into a [`RankTracer::fork`] that is absorbed
/// back before returning, on success *and* on error — the spans of reads
/// that completed before a failure are preserved, matching the sequential
/// loop's accounting exactly.
pub fn read_stages_ahead<E>(
    store: &FileStore,
    injector: &FaultInjector,
    tracer: &mut RankTracer,
    stages: &[StageRead],
    skip_failed: &[usize],
    consume: impl FnMut(&StageRead, Vec<RegionData>, &mut RankTracer) -> Result<(), E>,
) -> Result<(), ReadAheadError<E>> {
    read_stages_ahead_adaptive(store, injector, tracer, stages, skip_failed, None, consume)
}

/// [`read_stages_ahead`] with online health monitoring: every member read
/// goes through [`crate::read_region_adaptive`], so a blacklisted OST
/// triggers the deterministic speculative-duplicate route and each
/// completed read reports its observed dilation ratio to the monitor. With
/// `monitor: None` this is exactly [`read_stages_ahead`].
pub fn read_stages_ahead_adaptive<E>(
    store: &FileStore,
    injector: &FaultInjector,
    tracer: &mut RankTracer,
    stages: &[StageRead],
    skip_failed: &[usize],
    monitor: Option<&HealthMonitor>,
    mut consume: impl FnMut(&StageRead, Vec<RegionData>, &mut RankTracer) -> Result<(), E>,
) -> Result<(), ReadAheadError<E>> {
    if stages.is_empty() {
        return Ok(());
    }
    let mut reader_tracer = tracer.fork();
    // Rendezvous + 1 slot: the reader may finish stage k+1 while the main
    // thread consumes stage k, and then blocks — one stage of look-ahead.
    let (tx, rx) = sync_channel::<(usize, Result<Vec<RegionData>, (usize, SubstrateError)>)>(1);
    let mut out: Result<(), ReadAheadError<E>> = Ok(());
    std::thread::scope(|scope| {
        let reader_tracer = &mut reader_tracer;
        let reader = scope.spawn(move || {
            if FAIL_READER_PANIC.swap(false, Ordering::SeqCst) {
                // The one deliberate panic of the crate: a panicking reader
                // thread is what the failpoint exists to produce, only a
                // test arms it, and the join contains it.
                #[allow(clippy::panic)]
                {
                    panic!("injected read-ahead reader panic (failpoint)");
                }
            }
            'stages: for (idx, sr) in stages.iter().enumerate() {
                let mut bars = Vec::with_capacity(sr.members.len());
                for &member in &sr.members {
                    match read_region_adaptive(
                        store,
                        reader_tracer,
                        Some(sr.stage),
                        member,
                        &sr.region,
                        injector,
                        monitor,
                    ) {
                        Ok(data) => bars.push(data),
                        Err(_) if skip_failed.contains(&member) => {}
                        Err(e) => {
                            let _ = tx.send((idx, Err((member, e))));
                            break 'stages;
                        }
                    }
                }
                // A full buffer blocks until the consumer takes the previous
                // stage; a closed channel means the consumer bailed early.
                if tx.send((idx, Ok(bars))).is_err() {
                    break 'stages;
                }
            }
        });
        for expect in 0..stages.len() {
            let (idx, result) = match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break, // reader stopped after reporting an error
            };
            debug_assert_eq!(idx, expect, "stages arrive in plan order");
            match result {
                Ok(bars) => {
                    if let Err(e) = consume(&stages[idx], bars, tracer) {
                        out = Err(ReadAheadError::Consume(e));
                        break;
                    }
                }
                Err((member, error)) => {
                    out = Err(ReadAheadError::Read {
                        stage: stages[idx].stage,
                        member,
                        error,
                    });
                    break;
                }
            }
        }
        drop(rx); // unblock the reader if we bailed mid-plan
        if let Err(payload) = reader.join() {
            // Contain the panic as a typed error; an earlier consume/read
            // error stays the root cause (the reader only panics after the
            // consumer bailed in that ordering).
            if out.is_ok() {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                out = Err(ReadAheadError::ReaderPanicked { message });
            }
        }
    });
    tracer.absorb(reader_tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::read_region_resilient;
    use crate::{FileStore, ScratchDir};
    use enkf_fault::{FaultConfig, FaultPlan, RetryPolicy};
    use enkf_grid::{FileLayout, Mesh};
    use std::time::Instant;

    fn store(members: usize) -> (ScratchDir, FileStore) {
        let scratch = ScratchDir::new("readahead").unwrap();
        let mesh = Mesh::new(8, 8);
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        for k in 0..members {
            let v: Vec<f64> = (0..mesh.n()).map(|i| (k * 1000 + i) as f64).collect();
            store.write_member(k, &v).unwrap();
        }
        (scratch, store)
    }

    fn plan(stages: usize, members: usize) -> Vec<StageRead> {
        (0..stages)
            .map(|l| StageRead {
                stage: l,
                region: RegionRect::new(0, 8, l, l + 2),
                members: (0..members).collect(),
            })
            .collect()
    }

    fn trace_of(tracer: RankTracer) -> enkf_trace::Trace {
        let mut trace = enkf_trace::Trace::new("t");
        trace.extend(tracer.into_spans());
        trace
    }

    fn digest_of(tracer: RankTracer) -> String {
        trace_of(tracer).digest()
    }

    #[test]
    fn matches_sequential_reads_bit_for_bit() {
        let (_s, st) = store(3);
        let inj = FaultInjector::new(FaultConfig::none());
        let stages = plan(4, 3);

        // Sequential reference.
        st.reset_stats();
        let mut seq_tracer = RankTracer::new(0, Instant::now());
        let mut seq_data: Vec<Vec<RegionData>> = Vec::new();
        for sr in &stages {
            let mut bars = Vec::new();
            for &m in &sr.members {
                bars.push(
                    read_region_resilient(
                        &st,
                        &mut seq_tracer,
                        Some(sr.stage),
                        m,
                        &sr.region,
                        &inj,
                    )
                    .unwrap(),
                );
            }
            seq_data.push(bars);
        }
        let seq_stats = st.stats();
        let seq_digest = digest_of(seq_tracer);

        st.reset_stats();
        let mut ra_tracer = RankTracer::new(0, Instant::now());
        let mut ra_data: Vec<Vec<RegionData>> = Vec::new();
        read_stages_ahead::<std::convert::Infallible>(
            &st,
            &inj,
            &mut ra_tracer,
            &stages,
            &[],
            |_, bars, _| {
                ra_data.push(bars);
                Ok(())
            },
        )
        .unwrap();

        assert_eq!(ra_data, seq_data, "payloads identical");
        assert_eq!(st.stats(), seq_stats, "accounting identical");
        assert_eq!(digest_of(ra_tracer), seq_digest, "digest identical");
    }

    #[test]
    fn consume_sees_stages_in_order() {
        let (_s, st) = store(2);
        let inj = FaultInjector::new(FaultConfig::none());
        let stages = plan(5, 2);
        let mut seen = Vec::new();
        let mut t = RankTracer::new(0, Instant::now());
        read_stages_ahead::<std::convert::Infallible>(
            &st,
            &inj,
            &mut t,
            &stages,
            &[],
            |sr, bars, _| {
                assert_eq!(bars.len(), 2);
                seen.push(sr.stage);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn read_failure_stops_the_pipeline() {
        let (_s, st) = store(2);
        let inj = FaultInjector::new(FaultConfig::none());
        let mut stages = plan(4, 2);
        stages[2].members.push(99); // missing member fails at stage 2
        let mut seen = Vec::new();
        let mut t = RankTracer::new(0, Instant::now());
        let err = read_stages_ahead::<std::convert::Infallible>(
            &st,
            &inj,
            &mut t,
            &stages,
            &[],
            |sr, _, _| {
                seen.push(sr.stage);
                Ok(())
            },
        )
        .unwrap_err();
        match err {
            ReadAheadError::Read { stage, member, .. } => {
                assert_eq!(stage, 2);
                assert_eq!(member, 99);
            }
            other => panic!("expected read error, got {other:?}"),
        }
        assert_eq!(seen, vec![0, 1], "stages before the failure were consumed");
    }

    #[test]
    fn consume_error_aborts_without_hanging() {
        let (_s, st) = store(2);
        let inj = FaultInjector::new(FaultConfig::none());
        let stages = plan(6, 2);
        let mut t = RankTracer::new(0, Instant::now());
        let err = read_stages_ahead(&st, &inj, &mut t, &stages, &[], |sr, _, _| {
            if sr.stage == 1 {
                Err("stop")
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        match err {
            ReadAheadError::Consume(msg) => assert_eq!(msg, "stop"),
            other => panic!("expected consume error, got {other:?}"),
        }
    }

    #[test]
    fn resilient_retries_match_sequential_under_faults() {
        let (_s, st) = store(3);
        let cfg = FaultConfig::degraded(FaultPlan::new(11).with_read_fault(1, 1)).with_retry(
            RetryPolicy {
                max_retries: 2,
                base_backoff: 1e-6,
                multiplier: 2.0,
            },
        );
        let stages = plan(3, 3);

        let inj_seq = FaultInjector::new(cfg.clone());
        let mut seq_tracer = RankTracer::new(0, Instant::now());
        for sr in &stages {
            for &m in &sr.members {
                read_region_resilient(
                    &st,
                    &mut seq_tracer,
                    Some(sr.stage),
                    m,
                    &sr.region,
                    &inj_seq,
                )
                .unwrap();
            }
        }
        let seq = trace_of(seq_tracer);

        let inj_ra = FaultInjector::new(cfg);
        let mut ra_tracer = RankTracer::new(0, Instant::now());
        read_stages_ahead::<std::convert::Infallible>(
            &st,
            &inj_ra,
            &mut ra_tracer,
            &stages,
            &[],
            |_, _, _| Ok(()),
        )
        .unwrap();

        let ra = trace_of(ra_tracer);
        assert_eq!(ra.digest(), seq.digest());
        assert!(!seq.fault_digest(&[]).is_empty(), "the plan injects faults");
        assert_eq!(ra.fault_digest(&[]), seq.fault_digest(&[]));
    }

    #[test]
    fn reader_panic_is_contained_as_a_typed_error() {
        let (_s, st) = store(2);
        let inj = FaultInjector::new(FaultConfig::none());
        let stages = plan(3, 2);
        let mut t = RankTracer::new(0, Instant::now());
        FAIL_READER_PANIC.store(true, std::sync::atomic::Ordering::SeqCst);
        let err = read_stages_ahead::<std::convert::Infallible>(
            &st,
            &inj,
            &mut t,
            &stages,
            &[],
            |_, _, _| Ok(()),
        )
        .unwrap_err();
        match err {
            ReadAheadError::ReaderPanicked { message } => {
                assert!(
                    message.contains("failpoint"),
                    "payload preserved: {message}"
                );
            }
            other => panic!("expected ReaderPanicked, got {other:?}"),
        }
        assert!(
            !FAIL_READER_PANIC.load(std::sync::atomic::Ordering::SeqCst),
            "failpoint clears itself"
        );
        // The pipeline must stay reusable after a contained panic.
        read_stages_ahead::<std::convert::Infallible>(
            &st,
            &inj,
            &mut t,
            &stages,
            &[],
            |_, _, _| Ok(()),
        )
        .unwrap();
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let (_s, st) = store(1);
        st.reset_stats();
        let inj = FaultInjector::new(FaultConfig::none());
        let mut t = RankTracer::new(0, Instant::now());
        read_stages_ahead::<std::convert::Infallible>(
            &st,
            &inj,
            &mut t,
            &[],
            &[],
            |_, _, _| Ok(()),
        )
        .unwrap();
        assert_eq!(st.stats(), crate::IoStats::default());
    }
}
