//! Asynchronous checkpoint writer: durability off the critical path.
//!
//! The synchronous supervisor pays the full checkpoint write (an fsync
//! per member, a directory fsync, the commit record) on the critical
//! path after every cycle.
//! This module moves that write to a background thread, FTI-style: the
//! supervisor hands over an O(1) [`CampaignCheckpoint`] snapshot
//! (`Arc`-backed, see `enkf_data::CycleState`) and immediately starts the
//! next cycle while the writer persists cycle k behind it.
//!
//! Semantics the campaign engine builds on:
//!
//! * **Durable frontier** — the highest cycle durably committed by this
//!   writer. It may lag the
//!   computed frontier by at most one cycle (the in-flight write); a kill
//!   at any instant loses at most that one cycle, and recovery restores
//!   the last *durable* cycle.
//! * **Backpressure** — at most one checkpoint is in flight.
//!   [`AsyncCheckpointer::save_async`] blocks while the previous write is
//!   still running, bounding both OST write contention (one writer
//!   stream) and memory (one outstanding snapshot).
//! * **Drain barrier** — [`AsyncCheckpointer::drain`] blocks until the
//!   queue is empty and surfaces any deferred write error; after an `Ok`
//!   drain the durable frontier equals the last cycle handed over. The
//!   supervisor drains at campaign end, before every restore, and on
//!   error paths, so recovery never races an in-flight write.
//! * **Traced** — member payload writes are recorded through a forked
//!   [`RankTracer`] on the supervisor's rank and handed back at drain, so
//!   pipelined and synchronous campaigns emit the identical span multiset
//!   (digests are time-free) and real-vs-modeled conformance still holds.

use crate::{CampaignCheckpoint, CheckpointStore};
use enkf_trace::{RankTracer, Span};
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};

#[derive(Default)]
struct WriterState {
    /// The checkpoint handed over but not yet picked up by the worker.
    pending: Option<CampaignCheckpoint>,
    /// Whether the worker is mid-write.
    writing: bool,
    /// Highest cycle durably committed by this writer (monotone).
    durable: Option<usize>,
    /// A failed write, surfaced at the next `save_async` or `drain`.
    error: Option<io::Error>,
    /// Ckpt spans recorded by the worker since the last drain.
    spans: Vec<Span>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<WriterState>,
    cv: Condvar,
}

impl Shared {
    // A poisoned lock is entered as is: every critical section only sets
    // fields (the write itself runs unlocked), so the state is valid at
    // every step.
    fn lock(&self) -> MutexGuard<'_, WriterState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, WriterState>) -> MutexGuard<'a, WriterState> {
        self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }
}

/// A background checkpoint writer scoped to a [`std::thread::scope`]
/// block. Dropping it shuts the worker down after any in-flight or
/// pending write completes (best-effort durability on abrupt exits).
pub struct AsyncCheckpointer<'scope> {
    shared: Arc<Shared>,
    handle: Option<ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> AsyncCheckpointer<'scope> {
    /// Spawn the writer thread on `scope`, persisting through `store`.
    /// `tracer` must be a fork of the supervisor's tracer (same rank and
    /// epoch) so the writer's Ckpt spans land on the supervisor timeline.
    pub fn spawn<'env>(
        scope: &'scope Scope<'scope, 'env>,
        store: &'env CheckpointStore,
        tracer: RankTracer,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(WriterState::default()),
            cv: Condvar::new(),
        });
        let worker = Arc::clone(&shared);
        let handle = scope.spawn(move || worker_loop(&worker, store, &tracer));
        AsyncCheckpointer {
            shared,
            handle: Some(handle),
        }
    }

    /// Hand a checkpoint to the background writer and return immediately
    /// — unless the previous write is still in flight, in which case this
    /// blocks until it completes (the backpressure bound: one in-flight
    /// checkpoint). A failure of a *previous* asynchronous write is
    /// surfaced here (the handed-over checkpoint is then not enqueued).
    pub fn save_async(&self, ckpt: CampaignCheckpoint) -> io::Result<()> {
        let mut st = self.shared.lock();
        while st.pending.is_some() || st.writing {
            st = self.shared.wait(st);
        }
        if let Some(e) = st.error.take() {
            return Err(e);
        }
        st.pending = Some(ckpt);
        drop(st);
        self.shared.cv.notify_all();
        Ok(())
    }

    /// Drain barrier: block until nothing is queued or in flight, then
    /// return the Ckpt spans recorded since the last drain along with any
    /// deferred write error. After an `Ok` drain the durable frontier
    /// equals the last cycle handed to [`AsyncCheckpointer::save_async`].
    pub fn drain(&self) -> (Vec<Span>, io::Result<()>) {
        let mut st = self.shared.lock();
        while st.pending.is_some() || st.writing {
            st = self.shared.wait(st);
        }
        let spans = std::mem::take(&mut st.spans);
        let res = match st.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        };
        (spans, res)
    }
}

impl Drop for AsyncCheckpointer<'_> {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, store: &CheckpointStore, tracer: &RankTracer) {
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if let Some(c) = st.pending.take() {
                    st.writing = true;
                    break c;
                }
                if st.shutdown {
                    return;
                }
                st = shared.wait(st);
            }
        };
        let cycle = job.cycle;
        let mut t = tracer.fork();
        let res = store.save(&job, Some(&mut t));
        let mut st = shared.lock();
        st.spans.extend(t.into_spans());
        st.writing = false;
        match res {
            Ok(()) => st.durable = Some(st.durable.map_or(cycle, |d| d.max(cycle))),
            Err(e) => st.error = Some(e),
        }
        drop(st);
        shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_core::Ensemble;
    use enkf_grid::Mesh;
    use enkf_linalg::Matrix;
    use enkf_pfs::ScratchDir;
    use std::time::Instant;

    /// The highest cycle `w` has durably committed (`None` before the first
    /// asynchronous write completes).
    fn durable_frontier(w: &AsyncCheckpointer) -> Option<usize> {
        w.shared.lock().durable
    }

    fn sample(cycle: usize) -> CampaignCheckpoint {
        let mesh = Mesh::new(6, 4);
        let n = mesh.n();
        let mk = |salt: usize| {
            Arc::new(Ensemble::new(
                mesh,
                Matrix::from_fn(n, 3, |i, k| ((i * 13 + k * 7 + salt) as f64).sin()),
            ))
        };
        CampaignCheckpoint {
            cycle,
            seed: 9,
            members0: 3,
            rng_cursor: 100 + cycle as u64,
            config_fp: 0xBEEF,
            truth: Arc::new((0..n).map(|i| i as f64).collect()),
            analysis: mk(1),
            free_run: mk(2),
            stats: Vec::new(),
            cycle_digests: Vec::new(),
        }
    }

    #[test]
    fn async_writes_are_durable_and_frontier_is_monotone() {
        let scratch = ScratchDir::new("ckpt-async").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        std::thread::scope(|s| {
            let tracer = RankTracer::new(4, Instant::now());
            let w = AsyncCheckpointer::spawn(s, &store, tracer);
            let mut seen = Vec::new();
            for c in 0..5 {
                w.save_async(sample(c)).unwrap();
                seen.push(durable_frontier(&w));
            }
            let (spans, res) = w.drain();
            res.unwrap();
            assert_eq!(durable_frontier(&w), Some(4));
            // Frontier observations are monotone and never ahead of what
            // was handed over.
            let mut last = None;
            for (i, f) in seen.iter().enumerate() {
                assert!(*f >= last, "frontier regressed at save {i}");
                if let Some(f) = f {
                    assert!(*f <= i);
                }
                last = *f;
            }
            // Every member write was traced on the supervisor rank.
            assert_eq!(spans.len(), 5 * 3);
            assert!(spans.iter().all(|sp| sp.rank == 4));
        });
        assert_eq!(store.durable_cycles().unwrap(), vec![3, 4]);
        store.load_cycle(4, 0xBEEF, None).unwrap();
    }

    #[test]
    fn write_errors_are_deferred_and_surfaced_at_the_barrier() {
        let scratch = ScratchDir::new("ckpt-async-err").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        // A plain *file* where cycle 7's directory must go makes the save
        // fail (remove_dir_all on a non-directory).
        std::fs::write(store.root.join("cycle_0007"), b"squatter").unwrap();
        std::thread::scope(|s| {
            let tracer = RankTracer::new(4, Instant::now());
            let w = AsyncCheckpointer::spawn(s, &store, tracer);
            w.save_async(sample(7)).unwrap();
            let (_, res) = w.drain();
            assert!(res.is_err(), "the failed write must surface at drain");
            assert_eq!(durable_frontier(&w), None);
            // The error is consumed: a subsequent drain is clean.
            let (_, res2) = w.drain();
            assert!(res2.is_ok());
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Under a random interleaving of hand-overs, drains and frontier
        /// reads, the durable frontier is monotone, never ahead of the
        /// last handed-over cycle, and lags it by at most the one
        /// in-flight write once backpressure has been taken (save_async
        /// returning means every *earlier* write completed). Killing the
        /// writer at a random point (scope exit, no drain) still leaves
        /// the last handed-over cycle durable on disk.
        #[test]
        fn durable_frontier_is_monotone_and_lags_by_at_most_one(
            saves in 1usize..6,
            drain_mask in proptest::collection::vec(proptest::prelude::any::<bool>(), 5),
        ) {
            let scratch = ScratchDir::new("ckpt-async-prop").unwrap();
            let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
            std::thread::scope(|s| {
                let tracer = RankTracer::new(4, Instant::now());
                let w = AsyncCheckpointer::spawn(s, &store, tracer);
                let mut last = None;
                for c in 0..saves {
                    w.save_async(sample(c)).unwrap();
                    // Backpressure: returning from save_async(c) means
                    // cycles 0..c are durable, so the lag is exactly the
                    // one in-flight write.
                    let f = durable_frontier(&w);
                    proptest::prop_assert!(f >= last, "frontier regressed");
                    if c > 0 {
                        proptest::prop_assert!(
                            f >= Some(c - 1),
                            "frontier {f:?} lags save {c} by more than one"
                        );
                    }
                    proptest::prop_assert!(f <= Some(c), "frontier ahead of hand-over");
                    last = f;
                    if drain_mask[c % drain_mask.len()] {
                        let (_, res) = w.drain();
                        res.unwrap();
                        proptest::prop_assert_eq!(durable_frontier(&w), Some(c));
                        last = Some(c);
                    }
                }
                Ok(())
            })?;
            // The scope exit is the "kill": Drop flushed the in-flight
            // write, so the last handed-over cycles (as many as the store
            // retains) are durable on disk.
            proptest::prop_assert_eq!(
                store.durable_cycles().unwrap(),
                (saves.saturating_sub(2)..saves).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn drop_flushes_pending_writes() {
        let scratch = ScratchDir::new("ckpt-async-drop").unwrap();
        let store = CheckpointStore::create(scratch.path().join("ckpt")).unwrap();
        std::thread::scope(|s| {
            let tracer = RankTracer::new(4, Instant::now());
            let w = AsyncCheckpointer::spawn(s, &store, tracer);
            w.save_async(sample(2)).unwrap();
            // No drain: Drop must still let the in-flight write finish.
        });
        assert_eq!(store.durable_cycles().unwrap(), vec![2]);
    }
}
