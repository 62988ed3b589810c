//! The rank world: ranks + tag matching + traffic counters over a
//! pluggable [`Transport`].
//!
//! `World::run(p, f)` runs `f(&mut rank)` on `p` scoped threads joined
//! by in-process channels ([`LocalTransport`], the default transport
//! type parameter of [`Rank`]); `WireWorld::run` in [`crate::transport`]
//! runs the same `f` with each rank as a separate OS process. Either
//! way, `send` is non-blocking (eager buffered, like small-message
//! MPI), `recv(src, tag)` blocks and performs MPI-style envelope
//! matching, buffering messages that arrive out of order — the matching
//! lives here, above the transport seam, so both transports share it.
//! Every message increments global message/byte counters — the raw data
//! for the α–β analyses in [`crate::cost`]. A world started with
//! [`World::run_traced`] additionally publishes `mpi.msgs` / `mpi.bytes`
//! into a shared pdc-trace session and records per-rank send/recv
//! events, under the same schema the thread pool and `SimMachine` use.

use crate::transport::{Envelope, LocalTransport, Transport};
use crossbeam::channel::unbounded;
use pdc_core::metrics::Counter;
use pdc_core::trace::{self, EventKind, ThreadTrace, TraceSession};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Types that can be sent between ranks, with a modeled wire size.
pub trait Payload: Send + 'static {
    /// `Some(n)` when every value of this type models exactly `n`
    /// bytes. Containers use it to compute [`Self::size_bytes`] in O(1)
    /// instead of walking elements — `send` sizes every message, so a
    /// `Vec<u64>` payload would otherwise pay an O(len) walk per send.
    /// The default `None` means per-value sizes vary.
    const FIXED_SIZE: Option<u64> = None;

    /// Modeled size in bytes (for the β term of the cost model).
    fn size_bytes(&self) -> u64;
}

macro_rules! scalar_payload {
    ($($t:ty),*) => {$(
        impl Payload for $t {
            const FIXED_SIZE: Option<u64> = Some(std::mem::size_of::<$t>() as u64);
            fn size_bytes(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        }
    )*};
}
scalar_payload!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    bool,
    ()
);

impl<T: Payload> Payload for Vec<T> {
    fn size_bytes(&self) -> u64 {
        match T::FIXED_SIZE {
            Some(per_element) => per_element * self.len() as u64,
            None => self.iter().map(Payload::size_bytes).sum(),
        }
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    const FIXED_SIZE: Option<u64> = match (A::FIXED_SIZE, B::FIXED_SIZE) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    };
    fn size_bytes(&self) -> u64 {
        self.0.size_bytes() + self.1.size_bytes()
    }
}

impl Payload for String {
    fn size_bytes(&self) -> u64 {
        self.len() as u64
    }
}

impl<T: Payload> Payload for Option<T> {
    fn size_bytes(&self) -> u64 {
        1 + self.as_ref().map_or(0, Payload::size_bytes)
    }
}

/// Global traffic counters for a world run.
#[derive(Debug, Default)]
pub struct Traffic {
    msgs: AtomicU64,
    bytes: AtomicU64,
}

impl Traffic {
    /// Record `msgs` messages totalling `bytes` modeled bytes.
    pub(crate) fn count(&self, msgs: u64, bytes: u64) {
        self.msgs.fetch_add(msgs, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub(crate) fn stats(&self) -> TrafficStats {
        TrafficStats {
            messages: self.msgs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficStats {
    /// Total point-to-point messages sent.
    pub messages: u64,
    /// Total modeled bytes sent.
    pub bytes: u64,
}

/// A traced rank's pdc-trace hookup.
struct RankObs {
    session: TraceSession,
    thread: ThreadTrace,
    /// `mpi.msgs`, shared across all ranks of the world.
    msgs: Counter,
    /// `mpi.bytes`, shared across all ranks of the world.
    bytes: Counter,
}

/// One rank's endpoint inside a running world.
///
/// Generic over the [`Transport`] moving its envelopes; the default is
/// the in-process [`LocalTransport`], so `Rank<M>` means what it always
/// meant. Tag matching, the pending buffer, and all observability live
/// here — above the transport seam — so every transport shares them.
pub struct Rank<M: Payload, T: Transport<M> = LocalTransport<M>> {
    id: usize,
    size: usize,
    transport: T,
    /// Out-of-order messages awaiting a matching recv.
    pending: VecDeque<Envelope<M>>,
    traffic: Arc<Traffic>,
    obs: Option<RankObs>,
    /// Collectives entered by this rank so far (for begin/end marks).
    coll_seq: u64,
}

impl<M: Payload, T: Transport<M>> Rank<M, T> {
    /// Wire up a rank endpoint over `transport`. When `session` is
    /// given, the rank publishes `mpi.msgs`/`mpi.bytes` counters into
    /// it and records send/recv events as actor `id`.
    pub(crate) fn new(
        id: usize,
        size: usize,
        transport: T,
        traffic: Arc<Traffic>,
        session: Option<&TraceSession>,
    ) -> Rank<M, T> {
        let obs = session.map(|sess| RankObs {
            session: sess.clone(),
            thread: sess.thread(id as u32),
            msgs: sess.counter("mpi.msgs"),
            bytes: sess.counter("mpi.bytes"),
        });
        Rank {
            id,
            size,
            transport,
            pending: VecDeque::new(),
            traffic,
            obs,
            coll_seq: 0,
        }
    }

    /// Tear down the rank endpoint and recover its transport — a wire
    /// child uses this to deliver its result and drain write queues
    /// after the rank body returns.
    pub(crate) fn into_transport(self) -> T {
        self.transport
    }

    /// This rank's id in `0..size`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `msg` to `dst` with `tag` (non-blocking, eager).
    ///
    /// # Panics
    /// Panics if `dst` is out of range or the destination rank has
    /// already finished and dropped its inbox.
    pub fn send(&self, dst: usize, tag: u32, msg: M) {
        assert!(dst < self.size, "rank {dst} out of range");
        let nbytes = msg.size_bytes();
        self.traffic.count(1, nbytes);
        if let Some(obs) = &self.obs {
            obs.msgs.inc();
            obs.bytes.add(nbytes);
            obs.thread.record(EventKind::Send, dst as u64, nbytes);
        }
        self.transport.send(self.id, dst, tag, msg);
    }

    /// Receive the next message matching `(src, tag)`, blocking until it
    /// arrives. Messages from other envelopes are buffered, preserving
    /// per-sender FIFO order.
    pub fn recv(&mut self, src: usize, tag: u32) -> M {
        // Check the pending buffer first.
        if let Some(pos) = self
            .pending
            .iter()
            .position(|e| e.src == src && e.tag == tag)
        {
            let msg = self.pending.remove(pos).unwrap().msg;
            self.note_recv(src, &msg);
            return msg;
        }
        loop {
            let env = self.transport.recv();
            if env.src == src && env.tag == tag {
                self.note_recv(src, &env.msg);
                return env.msg;
            }
            self.pending.push_back(env);
        }
    }

    /// Receive from any source with the given tag; returns `(src, msg)`.
    ///
    /// It takes whichever matching message arrived first, so it cannot
    /// tell two rounds of one exchange apart: a rank already in round
    /// k + 1 may deliver before a slower rank's round-k message.
    /// Back-to-back collectives ([`crate::coll::gather`],
    /// [`crate::coll::alltoall`]) therefore match messages by source
    /// with [`Rank::recv`], whose per-`(src, tag)` FIFO order pairs
    /// rounds.
    pub fn recv_any(&mut self, tag: u32) -> (usize, M) {
        if let Some(pos) = self.pending.iter().position(|e| e.tag == tag) {
            let e = self.pending.remove(pos).unwrap();
            self.note_recv(e.src, &e.msg);
            return (e.src, e.msg);
        }
        loop {
            let env = self.transport.recv();
            if env.tag == tag {
                self.note_recv(env.src, &env.msg);
                return (env.src, env.msg);
            }
            self.pending.push_back(env);
        }
    }

    fn note_recv(&self, src: usize, msg: &M) {
        if let Some(obs) = &self.obs {
            obs.thread
                .record(EventKind::Recv, src as u64, msg.size_bytes());
        }
    }

    /// Add `n` to a named counter in the world's trace session, if this
    /// rank is traced; a no-op in untraced worlds. Each call looks the
    /// name up in the session's registry, so hot loops keep a local
    /// tally and add it once per batch: the collectives pass 1 per
    /// invocation.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(obs) = &self.obs {
            obs.session.counter(name).add(n);
        }
    }

    /// Mark the start of a collective on this rank (`coll` is the
    /// collective's id code, see `coll::CollId`). Bumps the per-rank
    /// collective sequence number and, when traced, records a
    /// `coll_begin` event; every send/recv this rank records before
    /// the matching [`Self::coll_end`] belongs to that collective.
    /// Returns the sequence number to pass to `coll_end`.
    pub fn coll_begin(&mut self, coll: u64) -> u64 {
        self.coll_seq += 1;
        if let Some(obs) = &self.obs {
            obs.thread.record(EventKind::CollBegin, coll, self.coll_seq);
        }
        self.coll_seq
    }

    /// Mark the end of the collective opened with [`Self::coll_begin`];
    /// `coll` and `seq` must match the begin mark. No-op when untraced.
    pub fn coll_end(&mut self, coll: u64, seq: u64) {
        if let Some(obs) = &self.obs {
            obs.thread.record(EventKind::CollEnd, coll, seq);
        }
    }
}

/// A message-passing world.
pub struct World;

impl World {
    /// Run `f` on `p` ranks (threads); returns each rank's result in rank
    /// order plus the traffic counters.
    ///
    /// # Panics
    /// Panics if `p == 0` or if any rank panics. A rank that panics
    /// posts a teardown notice to every inbox, so a peer blocked in a
    /// receive panics too, naming the dead rank, instead of waiting
    /// forever.
    pub fn run<M, R, F>(p: usize, f: F) -> (Vec<R>, TrafficStats)
    where
        M: Payload,
        R: Send,
        F: Fn(&mut Rank<M>) -> R + Sync,
    {
        World::run_inner(p, None, f)
    }

    /// Like [`World::run`], but every rank publishes `mpi.msgs` /
    /// `mpi.bytes` counters and send/recv events into `session`. Rank
    /// `i` records as actor `i`.
    ///
    /// # Panics
    /// Panics if `p == 0` or if any rank panics.
    pub fn run_traced<M, R, F>(p: usize, session: &TraceSession, f: F) -> (Vec<R>, TrafficStats)
    where
        M: Payload,
        R: Send,
        F: Fn(&mut Rank<M>) -> R + Sync,
    {
        World::run_inner(p, Some(session), f)
    }

    /// [`World::run`] or [`World::run_traced`] behind one signature:
    /// `Some(session)` traces, `None` runs bare. Lets callers that are
    /// themselves generic over tracing (the scenario seam's workload
    /// wrappers) avoid duplicating both code paths.
    ///
    /// # Panics
    /// Panics if `p == 0` or if any rank panics.
    pub fn run_opt<M, R, F>(
        p: usize,
        session: Option<&TraceSession>,
        f: F,
    ) -> (Vec<R>, TrafficStats)
    where
        M: Payload,
        R: Send,
        F: Fn(&mut Rank<M>) -> R + Sync,
    {
        World::run_inner(p, session, f)
    }

    fn run_inner<M, R, F>(p: usize, session: Option<&TraceSession>, f: F) -> (Vec<R>, TrafficStats)
    where
        M: Payload,
        R: Send,
        F: Fn(&mut Rank<M>) -> R + Sync,
    {
        assert!(p > 0, "world needs at least one rank");
        let traffic = Arc::new(Traffic::default());
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let results: Vec<R> = std::thread::scope(|s| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(id, inbox)| {
                    let transport = LocalTransport {
                        senders: senders.clone(),
                        inbox,
                    };
                    let traffic = Arc::clone(&traffic);
                    let f = &f;
                    s.spawn(move || {
                        let mut rank = Rank::new(id, p, transport, traffic, session);
                        // In a traced world the rank thread also records
                        // pdc-sync acquire/release events under its rank
                        // id, so `pdc-analyze` sees rank-local locking.
                        if let Some(o) = &rank.obs {
                            trace::install_sync_trace(o.thread.clone());
                        }
                        let out = panic::catch_unwind(AssertUnwindSafe(|| f(&mut rank)));
                        trace::clear_sync_trace();
                        out.unwrap_or_else(|cause| {
                            // No inbox disconnects while the world runs:
                            // a peer blocked on this rank wakes only to
                            // the teardown notice.
                            rank.transport.tear_down(id);
                            panic::resume_unwind(cause)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        });
        (results, traffic.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world() {
        let (results, stats) = World::run(1, |r: &mut Rank<u64>| r.id());
        assert_eq!(results, vec![0]);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn ping_pong() {
        let (results, stats) = World::run(2, |r: &mut Rank<u64>| {
            if r.id() == 0 {
                r.send(1, 0, 42);
                r.recv(1, 0)
            } else {
                let v = r.recv(0, 0);
                r.send(0, 0, v + 1);
                v
            }
        });
        assert_eq!(results, vec![43, 42]);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 16);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let (results, _) = World::run(2, |r: &mut Rank<u64>| {
            if r.id() == 0 {
                // Send tag 2 first, then tag 1.
                r.send(1, 2, 200);
                r.send(1, 1, 100);
                0
            } else {
                // Receive in the opposite order: matching must buffer.
                let a = r.recv(0, 1);
                let b = r.recv(0, 2);
                assert_eq!((a, b), (100, 200));
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn per_sender_fifo_within_tag() {
        let (_, _) = World::run(2, |r: &mut Rank<u64>| {
            if r.id() == 0 {
                for i in 0..100 {
                    r.send(1, 7, i);
                }
            } else {
                for i in 0..100 {
                    assert_eq!(r.recv(0, 7), i, "FIFO per (src, tag)");
                }
            }
        });
    }

    #[test]
    fn recv_any_collects_from_all() {
        let (results, _) = World::run(4, |r: &mut Rank<u64>| {
            if r.id() == 0 {
                let mut sum = 0;
                let mut seen = [false; 4];
                for _ in 0..3 {
                    let (src, v) = r.recv_any(0);
                    assert!(!seen[src]);
                    seen[src] = true;
                    sum += v;
                }
                sum
            } else {
                r.send(0, 0, r.id() as u64 * 10);
                0
            }
        });
        assert_eq!(results[0], 60);
    }

    #[test]
    fn ring_pipeline() {
        // Each rank forwards an accumulating token around the ring.
        let p = 5;
        let (results, stats) = World::run(p, |r: &mut Rank<u64>| {
            let next = (r.id() + 1) % r.size();
            let prev = (r.id() + r.size() - 1) % r.size();
            if r.id() == 0 {
                r.send(next, 0, 1);
                r.recv(prev, 0)
            } else {
                let v = r.recv(prev, 0);
                r.send(next, 0, v + 1);
                v
            }
        });
        assert_eq!(results[0], p as u64, "token visited every rank");
        assert_eq!(stats.messages, p as u64);
    }

    #[test]
    fn vec_payload_byte_accounting() {
        let (_, stats) = World::run(2, |r: &mut Rank<Vec<u64>>| {
            if r.id() == 0 {
                r.send(1, 0, vec![0u64; 100]);
            } else {
                let v = r.recv(0, 0);
                assert_eq!(v.len(), 100);
            }
        });
        assert_eq!(stats.bytes, 800);
        assert_eq!(stats.messages, 1);
    }

    #[test]
    fn vec_size_fast_path_agrees_with_elementwise_walk() {
        // The O(1) `FIXED_SIZE * len` fast path must price a vector
        // exactly like the naive per-element walk it replaces.
        fn walked<T: Payload>(v: &[T]) -> u64 {
            v.iter().map(Payload::size_bytes).sum()
        }
        let fixed = vec![7u64; 1000];
        assert_eq!(<u64 as Payload>::FIXED_SIZE, Some(8));
        assert_eq!(fixed.size_bytes(), walked(&fixed));
        assert_eq!(fixed.size_bytes(), 8000);

        let pairs = vec![(1u32, true); 9];
        assert_eq!(<(u32, bool) as Payload>::FIXED_SIZE, Some(5));
        assert_eq!(pairs.size_bytes(), walked(&pairs));

        let unit = vec![(); 3];
        assert_eq!(unit.size_bytes(), walked(&unit));

        // Variable-size element types must keep the exact walk.
        let strings = vec!["ab".to_string(), "cdef".to_string()];
        assert_eq!(<String as Payload>::FIXED_SIZE, None);
        assert_eq!(strings.size_bytes(), walked(&strings));
        assert_eq!(strings.size_bytes(), 6);

        let nested = vec![vec![1u8, 2], vec![3]];
        assert_eq!(<Vec<u8> as Payload>::FIXED_SIZE, None);
        assert_eq!(nested.size_bytes(), walked(&nested));
        assert_eq!(nested.size_bytes(), 3);

        let options = vec![Some(1u64), None, Some(2)];
        assert_eq!(<Option<u64> as Payload>::FIXED_SIZE, None);
        assert_eq!(options.size_bytes(), walked(&options));
    }

    #[test]
    fn traced_world_publishes_counters_and_events() {
        let session = TraceSession::new();
        let (_, stats) = World::run_traced(2, &session, |r: &mut Rank<u64>| {
            if r.id() == 0 {
                r.send(1, 0, 42);
                r.recv(1, 0)
            } else {
                let v = r.recv(0, 0);
                r.send(0, 0, v + 1);
                v
            }
        });
        let snap = session.snapshot();
        assert_eq!(snap.get("mpi.msgs"), stats.messages);
        assert_eq!(snap.get("mpi.bytes"), stats.bytes);
        let events = session.events();
        let sends = events.iter().filter(|e| e.kind == EventKind::Send).count();
        let recvs = events.iter().filter(|e| e.kind == EventKind::Recv).count();
        assert_eq!(sends, 2);
        assert_eq!(recvs, 2);
        // Each rank records as its own actor.
        assert!(events.iter().any(|e| e.actor == 0));
        assert!(events.iter().any(|e| e.actor == 1));
        // Send events carry the modeled byte size.
        assert!(events
            .iter()
            .filter(|e| e.kind == EventKind::Send)
            .all(|e| e.b == 8));
    }

    #[test]
    fn untraced_world_counts_nothing_extra() {
        // `count` is a no-op without a session; stats still work.
        let (_, stats) = World::run(2, |r: &mut Rank<u64>| {
            r.count("coll.fake", 1);
            if r.id() == 0 {
                r.send(1, 0, 7);
            } else {
                r.recv(0, 0);
            }
        });
        assert_eq!(stats.messages, 1);
    }

    /// Run `body` on a helper thread and return its panic message. The
    /// test fails if `body` returns, or is still running after 5 s: a
    /// world whose rank panicked must panic, not hang.
    fn panic_within_5s(body: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(body)));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("the world hangs after a rank panicked");
        message(&*outcome.expect_err("the world returned although a rank panicked"))
    }

    fn message(cause: &(dyn std::any::Any + Send)) -> String {
        match cause.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => cause
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("")
                .to_string(),
        }
    }

    #[test]
    fn a_rank_blocked_on_a_panicked_peer_panics_naming_it() {
        let seen = Arc::new(std::sync::Mutex::new(String::new()));
        let world = {
            let seen = Arc::clone(&seen);
            move || {
                World::run(2, |r: &mut Rank<u64>| {
                    if r.id() == 1 {
                        panic!("rank 1 fails before it sends");
                    }
                    let cause = panic::catch_unwind(AssertUnwindSafe(|| r.recv(1, 0)))
                        .expect_err("rank 1 never sends");
                    *seen.lock().unwrap() = message(&*cause);
                });
            }
        };
        let died = panic_within_5s(world);
        assert!(died.contains("rank panicked"), "{died}");
        assert_eq!(*seen.lock().unwrap(), "rank 1 panicked; world torn down");
    }

    #[test]
    fn a_rank_that_panics_between_two_alltoalls_tears_the_world_down() {
        let died = panic_within_5s(|| {
            World::run(3, |r: &mut Rank<u64>| {
                let first = crate::coll::alltoall(r, vec![r.id() as u64; 3]);
                if r.id() == 2 {
                    panic!("rank 2 fails between the exchanges");
                }
                crate::coll::alltoall(r, first)
            });
        });
        assert!(died.contains("rank panicked"), "{died}");
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn send_to_bad_rank_panics() {
        World::run(2, |r: &mut Rank<u64>| {
            if r.id() == 0 {
                r.send(5, 0, 1);
            }
        });
    }
}
