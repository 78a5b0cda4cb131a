//! Ranks as threads, messages as typed channel payloads.
//!
//! [`Cluster::run`] spawns one thread per rank and hands each a
//! [`RankCtx`]: a sender to every peer plus its own receive endpoint.
//! Matching (`recv_match`) buffers out-of-order arrivals, mirroring MPI's
//! `(source, tag)` matching semantics that the EnKF planners rely on.
//!
//! # Zero-copy payloads
//!
//! [`Envelope`] moves the payload by value — nothing is serialized — so a
//! payload that is itself a shared view (an `Arc`-backed
//! `enkf_pfs::RegionData`, produced by the O(1) bar→block `extract`)
//! travels as an offset plus a refcount bump on the sender's single
//! allocation. An I/O rank fanning one bar out to `G` compute peers
//! therefore performs `G` refcount increments, not `G` deep copies; the
//! bar's slab is freed (returned to the store's buffer pool) when the last
//! receiver drops its view.

use crossbeam::channel::{unbounded, Receiver, Sender};
use enkf_fault::SubstrateError;
use std::collections::VecDeque;
use std::time::Duration;

/// A delivered message: source rank, tag, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Sending rank.
    pub from: usize,
    /// Application-defined tag.
    pub tag: u64,
    /// The payload.
    pub payload: M,
}

/// One rank's communication context.
///
/// Cloneable senders, single receive endpoint: to offload reception to a
/// helper thread (Fig. 8), move the whole `RankCtx` into the helper and keep
/// clones of what the main thread needs, or split with [`RankCtx::split_receiver`].
pub struct RankCtx<M> {
    rank: usize,
    size: usize,
    peers: Vec<Sender<Envelope<M>>>,
    inbox: Receiver<Envelope<M>>,
    stash: VecDeque<Envelope<M>>,
}

impl<M: Send> RankCtx<M> {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Send a payload to a peer (non-blocking, unbounded buffering).
    ///
    /// A send to a rank that has already exited (its receive endpoint is
    /// gone) is silently dropped: a rank only hangs up after deciding its
    /// own outcome — e.g. aborting on a peer's failure notice — so a
    /// message it will never read cannot change any result, and the
    /// fault-tolerant executors must not crash healthy senders racing
    /// against an aborting peer.
    pub fn send(&self, to: usize, tag: u64, payload: M) {
        let _ = self.peers[to].send(Envelope {
            from: self.rank,
            tag,
            payload,
        });
    }

    /// Receive the next message from any source (blocking). Messages
    /// previously stashed by a non-matching [`RankCtx::recv_match`] are
    /// delivered first, in arrival order.
    ///
    /// When every peer that could still send has exited (all send
    /// endpoints dropped and the inbox is drained), the blocked receive
    /// can never complete: this surfaces as a typed
    /// [`SubstrateError::PeerExited`] — the same treatment
    /// [`RankCtx::recv_timeout`] gives silent peers — instead of a channel
    /// panic, so fault-tolerant executors can tear down cleanly.
    pub fn recv(&mut self) -> Result<Envelope<M>, SubstrateError> {
        if let Some(env) = self.stash.pop_front() {
            return Ok(env);
        }
        self.inbox
            .recv()
            .map_err(|_| SubstrateError::PeerExited { rank: self.rank })
    }

    /// Like [`RankCtx::recv`], but give up after `timeout` seconds with a
    /// typed [`SubstrateError::RecvTimeout`] instead of blocking forever —
    /// how a rank survives a crashed or silent peer.
    pub fn recv_timeout(&mut self, timeout: f64) -> Result<Envelope<M>, SubstrateError> {
        if let Some(env) = self.stash.pop_front() {
            return Ok(env);
        }
        self.inbox
            .recv_timeout(Duration::from_secs_f64(timeout))
            .map_err(|_| SubstrateError::RecvTimeout {
                rank: self.rank,
                waited: timeout,
            })
    }

    /// Receive the next message matching `(from, tag)`; non-matching
    /// messages are stashed for later `recv`/`recv_match` calls.
    ///
    /// Like [`RankCtx::recv`], a receive that can never complete because
    /// every remaining sender has exited returns a typed
    /// [`SubstrateError::PeerExited`] instead of panicking.
    pub fn recv_match(&mut self, from: usize, tag: u64) -> Result<M, SubstrateError> {
        if let Some(env) = self.take_stashed(from, tag) {
            return Ok(env.payload);
        }
        loop {
            let env = self
                .inbox
                .recv()
                .map_err(|_| SubstrateError::PeerExited { rank: self.rank })?;
            if env.from == from && env.tag == tag {
                return Ok(env.payload);
            }
            self.stash.push_back(env);
        }
    }

    /// The earliest stashed message from `from` with `tag`, removed.
    fn take_stashed(&mut self, from: usize, tag: u64) -> Option<Envelope<M>> {
        let pos = self
            .stash
            .iter()
            .position(|e| e.from == from && e.tag == tag)?;
        self.stash.remove(pos)
    }

    /// The typed error of a collective called inconsistently on this rank.
    fn misuse(&self, detail: String) -> SubstrateError {
        SubstrateError::Collective {
            rank: self.rank,
            detail,
        }
    }

    /// Split off the receive side (for a helper thread) as a context of the
    /// same rank that can only receive: it takes the inbox and the stash
    /// and holds no sender, so it never keeps a peer's inbox connected.
    /// This context keeps the send side; its own receives now report
    /// [`SubstrateError::PeerExited`].
    pub fn split_receiver(&mut self) -> RankCtx<M> {
        let (dead_tx, dead_rx) = unbounded();
        drop(dead_tx);
        RankCtx {
            rank: self.rank,
            size: self.size,
            peers: Vec::new(),
            inbox: std::mem::replace(&mut self.inbox, dead_rx),
            stash: std::mem::take(&mut self.stash),
        }
    }
}

impl<M: Send + Clone> RankCtx<M> {
    /// Broadcast from `root` to all ranks (including delivering to self via
    /// the return value). Internally p2p fan-out from the root.
    ///
    /// Collectives have no fault protocol: a peer exiting mid-collective
    /// surfaces as [`SubstrateError::PeerExited`], and a collective called
    /// inconsistently — here, a root without its payload — as
    /// [`SubstrateError::Collective`].
    pub fn broadcast(
        &mut self,
        root: usize,
        tag: u64,
        payload: Option<M>,
    ) -> Result<M, SubstrateError> {
        if self.rank != root {
            return self.recv_match(root, tag);
        }
        let value =
            payload.ok_or_else(|| self.misuse("the broadcast root has no payload".into()))?;
        for peer in (0..self.size).filter(|&peer| peer != root) {
            self.send(peer, tag, value.clone());
        }
        Ok(value)
    }

    /// Gather one payload per rank at `root`. Non-root ranks return `None`;
    /// the root returns all payloads indexed by rank, or
    /// [`SubstrateError::Collective`] when a message of another tag or a
    /// second one from the same rank arrives during the gather.
    pub fn gather(
        &mut self,
        root: usize,
        tag: u64,
        payload: M,
    ) -> Result<Option<Vec<M>>, SubstrateError> {
        if self.rank != root {
            self.send(root, tag, payload);
            return Ok(None);
        }
        let mut out: Vec<Option<M>> = (0..self.size).map(|_| None).collect();
        out[root] = Some(payload);
        for _ in 1..self.size {
            let env = self.recv()?;
            if env.tag != tag {
                let detail = format!("gather {tag} received tag {} from {}", env.tag, env.from);
                return Err(self.misuse(detail));
            }
            if out[env.from].replace(env.payload).is_some() {
                return Err(self.misuse(format!("gather {tag} received rank {} twice", env.from)));
            }
        }
        // Every slot is filled: one each from the `size − 1` distinct peers.
        Ok(Some(out.into_iter().flatten().collect()))
    }

    /// Reduce: combine one payload per rank at `root` with `op` in rank
    /// order (deterministic). Non-root ranks return `None`.
    pub(crate) fn reduce(
        &mut self,
        root: usize,
        tag: u64,
        payload: M,
        op: impl Fn(M, M) -> M,
    ) -> Result<Option<M>, SubstrateError> {
        let gathered = self.gather(root, tag, payload)?;
        Ok(gathered.and_then(|all| all.into_iter().reduce(op)))
    }

    /// All-reduce: reduce at rank 0, then broadcast the result to everyone.
    pub fn all_reduce(
        &mut self,
        tag: u64,
        payload: M,
        op: impl Fn(M, M) -> M,
    ) -> Result<M, SubstrateError> {
        let reduced = self.reduce(0, tag, payload, op)?;
        self.broadcast(0, tag.wrapping_add(1), reduced)
    }
}

/// An in-process cluster of ranks.
pub struct Cluster;

impl Cluster {
    /// Run `body` on `size` rank threads and collect their results in rank
    /// order. Panics in any rank propagate: the first, in rank order, is
    /// resumed on the calling thread with its original payload.
    pub fn run<M, T, F>(size: usize, body: F) -> Vec<T>
    where
        M: Send,
        T: Send,
        F: Fn(RankCtx<M>) -> T + Sync,
    {
        // A caller bug, not a runtime condition: every cluster has a rank.
        assert!(size > 0, "cluster needs at least one rank");
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let body = &body;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for (rank, inbox) in receivers.into_iter().enumerate() {
                let mut peers = senders.clone();
                // A rank must not hold a sender to itself: that clone would
                // keep its own inbox "connected" forever, so a receive
                // orphaned by every peer exiting could never observe the
                // disconnect that [`RankCtx::recv`] turns into the typed
                // `PeerExited`. Self-sends become silent drops (no executor
                // sends to itself; collectives route around self).
                let (dead_tx, _dead_rx) = unbounded();
                peers[rank] = dead_tx;
                handles.push(scope.spawn(move || {
                    body(RankCtx {
                        rank,
                        size,
                        peers,
                        inbox,
                        stash: VecDeque::new(),
                    })
                }));
            }
            drop(senders);
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    }

    /// Like [`Cluster::run`], but each rank also receives a
    /// [`enkf_trace::RankTracer`] anchored to a cluster-wide epoch taken just
    /// before the threads spawn, so every rank's spans lie on one shared
    /// wall-clock timeline. Returns `(result, spans)` per rank, in rank
    /// order — concatenating the span vectors in that order gives a
    /// deterministic-ordered trace regardless of thread scheduling.
    pub fn run_traced<M, T, F>(size: usize, body: F) -> Vec<(T, Vec<enkf_trace::Span>)>
    where
        M: Send,
        T: Send,
        F: Fn(RankCtx<M>, &mut enkf_trace::RankTracer) -> T + Sync,
    {
        let epoch = std::time::Instant::now();
        Self::run(size, move |ctx: RankCtx<M>| {
            let mut tracer = enkf_trace::RankTracer::new(ctx.rank(), epoch);
            let out = body(ctx, &mut tracer);
            (out, tracer.into_spans())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results: Vec<u64> = Cluster::run(4, |mut ctx: RankCtx<u64>| {
            let next = (ctx.rank() + 1) % ctx.size;
            let prev = (ctx.rank() + ctx.size - 1) % ctx.size;
            ctx.send(next, 1, ctx.rank() as u64);
            ctx.recv_match(prev, 1).unwrap()
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn recv_match_buffers_out_of_order() {
        let results: Vec<(u64, u64)> = Cluster::run(2, |mut ctx: RankCtx<u64>| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, 70);
                ctx.send(1, 8, 80);
                (0, 0)
            } else {
                // Ask for tag 8 first even though 7 likely arrives first.
                let b = ctx.recv_match(0, 8).unwrap();
                let a = ctx.recv_match(0, 7).unwrap();
                (a, b)
            }
        });
        assert_eq!(results[1], (70, 80));
    }

    #[test]
    fn broadcast_reaches_all() {
        let results: Vec<String> = Cluster::run(5, |mut ctx: RankCtx<String>| {
            let payload = (ctx.rank() == 2).then(|| "hello".to_string());
            ctx.broadcast(2, 3, payload).unwrap()
        });
        assert!(results.iter().all(|s| s == "hello"));
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results: Vec<Option<Vec<usize>>> = Cluster::run(4, |mut ctx: RankCtx<usize>| {
            ctx.gather(0, 9, ctx.rank() * 10).unwrap()
        });
        assert_eq!(results[0], Some(vec![0, 10, 20, 30]));
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn fan_out_shares_one_allocation() {
        use std::sync::Arc;
        // Rank 0 fans one Arc-backed slab out to every peer; envelopes move
        // the payload by value, so all receivers observe the sender's
        // allocation — the zero-copy bar→block scatter invariant.
        let results: Vec<(usize, f64)> = Cluster::run(4, |mut ctx: RankCtx<Arc<Vec<f64>>>| {
            if ctx.rank() == 0 {
                let slab = Arc::new(vec![1.0, 2.0, 3.0]);
                for peer in 1..ctx.size {
                    ctx.send(peer, 1, Arc::clone(&slab));
                }
                (Arc::as_ptr(&slab) as usize, slab[0])
            } else {
                let view = ctx.recv_match(0, 1).unwrap();
                (Arc::as_ptr(&view) as usize, view[0])
            }
        });
        let (root_ptr, _) = results[0];
        for (ptr, v) in &results[1..] {
            assert_eq!(*ptr, root_ptr, "receiver got a copy, not a view");
            assert_eq!(*v, 1.0);
        }
    }

    #[test]
    fn send_to_exited_rank_is_dropped_not_a_panic() {
        // Rank 1 exits immediately; rank 0's late send must be a no-op so
        // fault paths (a peer aborting) cannot crash healthy senders.
        let results: Vec<u64> = Cluster::run(3, |mut ctx: RankCtx<u64>| {
            match ctx.rank() {
                0 => {
                    // Wait until rank 1 is certainly gone.
                    let v = ctx.recv_match(2, 9).unwrap();
                    ctx.send(1, 1, 42);
                    v
                }
                1 => 0, // exits at once, dropping its receiver
                _ => {
                    ctx.send(0, 9, 7);
                    0
                }
            }
        });
        assert_eq!(results[0], 7);
    }

    #[test]
    fn recv_after_all_peers_exit_is_typed_peer_exited() {
        // Rank 0 exits without sending; rank 1's blocked receive must
        // surface the typed error rather than panicking on the hung-up
        // channel.
        let results: Vec<bool> = Cluster::run(2, |mut ctx: RankCtx<u64>| match ctx.rank() {
            0 => true,
            _ => matches!(ctx.recv(), Err(SubstrateError::PeerExited { rank: 1 })),
        });
        assert!(results[1], "orphaned recv must be PeerExited {{ rank: 1 }}");
    }

    #[test]
    fn recv_match_after_all_peers_exit_is_typed_peer_exited() {
        // Same guarantee for the matching receive: buffered non-matching
        // messages are delivered/stashed first, then the disconnect is
        // surfaced as the typed error.
        let results: Vec<bool> = Cluster::run(2, |mut ctx: RankCtx<u64>| match ctx.rank() {
            0 => {
                ctx.send(1, 5, 99); // wrong tag: stashed, not matched
                true
            }
            _ => {
                let orphaned = matches!(
                    ctx.recv_match(0, 7),
                    Err(SubstrateError::PeerExited { rank: 1 })
                );
                // The non-matching message is still retrievable afterwards.
                orphaned && ctx.recv_match(0, 5).unwrap() == 99
            }
        });
        assert!(
            results[1],
            "orphaned recv_match must be typed, stash intact"
        );
    }

    #[test]
    fn helper_thread_receives_via_split() {
        let results: Vec<u64> = Cluster::run(2, |mut ctx: RankCtx<u64>| {
            if ctx.rank() == 0 {
                ctx.send(1, 5, 123);
                0
            } else {
                let mut inbox = ctx.split_receiver();
                // Helper thread ingests and forwards to the main thread.
                let (tx, rx) = std::sync::mpsc::channel();
                let helper = std::thread::spawn(move || {
                    let env = inbox.recv().unwrap();
                    tx.send(env.payload).unwrap();
                });
                let got = rx.recv().unwrap();
                helper.join().unwrap();
                // The send side stays; the receive side is gone.
                assert_eq!(ctx.recv(), Err(SubstrateError::PeerExited { rank: 1 }));
                got
            }
        });
        assert_eq!(results[1], 123);
    }

    #[test]
    fn run_traced_collects_spans_in_rank_order() {
        let results = Cluster::run_traced(3, |mut ctx: RankCtx<u64>, tracer| {
            if ctx.rank() == 0 {
                for peer in 1..ctx.size {
                    tracer.send(None, peer, 8, || ctx.send(peer, 0, 99));
                }
            } else {
                let rank = ctx.rank();
                tracer.wait(None, || ctx.recv_match(0, 0).unwrap());
                let _ = rank;
            }
            ctx.rank()
        });
        assert_eq!(
            results.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(results[0].1.len(), 2, "rank 0 recorded two sends");
        assert_eq!(results[0].1[0].peer, Some(1));
        assert!(results[1].1.iter().all(|s| s.rank == 1));
        assert!(results[0].1.iter().all(|s| s.start >= 0.0 && s.dur >= 0.0));
    }

    #[test]
    fn recv_timeout_surfaces_typed_error_and_drains_stash() {
        let results: Vec<Result<u64, String>> = Cluster::run(2, |mut ctx: RankCtx<u64>| {
            if ctx.rank() == 0 {
                ctx.send(1, 3, 33);
                ctx.send(1, 4, 44);
                Ok(0)
            } else {
                // Stash the tag-3 message while matching tag 4, then verify
                // the stash still drains through the timeout path.
                assert_eq!(ctx.recv_match(0, 4), Ok(44));
                let env = ctx.recv_timeout(1.0).map_err(|e| e.to_string())?;
                assert_eq!((env.from, env.tag, env.payload), (0, 3, 33));
                // Nothing further is coming: times out again.
                match ctx.recv_timeout(0.02) {
                    Err(SubstrateError::RecvTimeout { .. }) => Ok(1),
                    other => Err(format!("expected timeout, got {other:?}")),
                }
            }
        });
        assert_eq!(results[1], Ok(1), "{results:?}");
    }

    #[test]
    fn single_rank_cluster() {
        let results: Vec<usize> = Cluster::run(1, |ctx: RankCtx<u8>| ctx.size);
        assert_eq!(results, vec![1]);
    }

    #[test]
    fn reduce_combines_in_rank_order() {
        let results: Vec<Option<String>> = Cluster::run(3, |mut ctx: RankCtx<String>| {
            ctx.reduce(0, 4, format!("r{}", ctx.rank()), |a, b| format!("{a},{b}"))
                .unwrap()
        });
        assert_eq!(
            results[0].as_deref(),
            Some("r0,r1,r2"),
            "deterministic order"
        );
        assert!(results[1].is_none() && results[2].is_none());
    }

    #[test]
    fn all_reduce_reaches_every_rank() {
        let results: Vec<u64> = Cluster::run(5, |mut ctx: RankCtx<u64>| {
            ctx.all_reduce(6, ctx.rank() as u64 + 1, |a, b| a + b)
                .unwrap()
        });
        assert!(results.iter().all(|&s| s == 15), "{results:?}");
    }

    #[test]
    fn collectives_compose_without_tag_collisions() {
        // A realistic multi-phase exchange: broadcast the work, reduce
        // partials, broadcast the final answer.
        let results = Cluster::run(4, |mut ctx: RankCtx<u64>| {
            let base = ctx.broadcast(0, 10, (ctx.rank() == 0).then_some(1))?;
            let work = base + ctx.rank() as u64;
            let squared = work * work;
            let total = ctx.all_reduce(20, squared, |a, b| a + b)?;
            Ok::<_, SubstrateError>(total)
        });
        assert!(results.iter().all(|t| *t == Ok(1 + 4 + 9 + 16)));
    }

    #[test]
    fn inconsistent_collectives_are_typed_errors() {
        let collective = |r: &Result<u64, SubstrateError>| {
            matches!(r, Err(SubstrateError::Collective { rank: 0, .. }))
        };
        // A root without its payload; its peer then finds it gone.
        let results = Cluster::run(2, |mut ctx: RankCtx<u64>| ctx.broadcast(0, 1, None));
        assert!(collective(&results[0]), "{results:?}");
        assert_eq!(results[1], Err(SubstrateError::PeerExited { rank: 1 }));
        // A gather meeting a message of another tag, or one rank twice.
        for tags in [[7, 8], [7, 7]] {
            let results = Cluster::run(3, |mut ctx: RankCtx<u64>| match ctx.rank() {
                0 => ctx.gather(0, 7, 0).map(|_| 0),
                1 => {
                    tags.iter().for_each(|&tag| ctx.send(0, tag, 1));
                    Ok(1)
                }
                _ => Ok(2),
            });
            assert!(collective(&results[0]), "{tags:?}: {results:?}");
        }
    }

    #[test]
    fn a_rank_panic_is_resumed_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            Cluster::run(2, |ctx: RankCtx<u8>| {
                if ctx.rank() == 1 {
                    std::panic::panic_any(41usize);
                }
                ctx.rank()
            })
        });
        let payload = caught.expect_err("the rank's panic propagates");
        assert_eq!(payload.downcast_ref::<usize>(), Some(&41));
    }
}
