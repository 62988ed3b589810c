//! Collective operations, implemented as the explicit algorithms whose
//! costs CS87 derives: binomial trees (`log₂ p` rounds), rings, and
//! linear chains. Message counts are exact, so the benches can check
//! them against [`crate::cost`].
//!
//! ## SPMD discipline
//!
//! Collectives use reserved tags and rely on MPI's usual rule: **every
//! rank calls the same sequence of collectives in the same order**.
//! Per-`(src, tag)` FIFO matching then keeps successive collectives from
//! interfering.
//!
//! ## Tracing
//!
//! In a traced world ([`crate::world::World::run_traced`]) each
//! collective bumps a `coll.<name>` counter once per calling rank, so
//! `coll.barrier / p` is the number of barrier episodes. Each call is
//! also bracketed by `coll_begin`/`coll_end` marks in the event stream
//! (see [`CollId`] for the id codes): every `send`/`recv` event an
//! actor records between a begin and its matching end belongs to that
//! collective, which is how a trace attributes point-to-point traffic
//! to the broadcast/reduce/scatter that caused it. Composite
//! collectives nest — an `allreduce` span contains a `reduce` span and
//! a `broadcast` span.

use crate::cost::AlphaBeta;
use crate::transport::Transport;
use crate::world::{Payload, Rank};

/// Reserved tag space for collectives.
const SYS: u32 = 0x8000_0000;
const TAG_BARRIER: u32 = SYS;
const TAG_BCAST: u32 = SYS + 0x100;
const TAG_REDUCE: u32 = SYS + 0x200;
const TAG_GATHER: u32 = SYS + 0x300;
const TAG_SCATTER: u32 = SYS + 0x400;
const TAG_ALLGATHER: u32 = SYS + 0x500;
const TAG_SCAN: u32 = SYS + 0x600;
const TAG_ALLTOALL: u32 = SYS + 0x700;
const TAG_RING_RS: u32 = SYS + 0x800;
const TAG_RING_AG: u32 = SYS + 0x900;

/// Stable id codes for the collectives, used as the `coll` payload of
/// `coll_begin`/`coll_end` trace events. The discriminants are part of
/// the `pdc-trace/2` schema: renumbering them breaks trace consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum CollId {
    /// Dissemination barrier.
    Barrier = 0,
    /// Binomial-tree broadcast.
    Broadcast = 1,
    /// Binomial-tree reduce.
    Reduce = 2,
    /// Allreduce (reduce + broadcast).
    Allreduce = 3,
    /// Linear gather.
    Gather = 4,
    /// Linear scatter.
    Scatter = 5,
    /// Ring allgather.
    Allgather = 6,
    /// Ring allreduce (reduce-scatter + allgather).
    RingAllreduce = 7,
    /// Linear exclusive scan.
    ExclusiveScan = 8,
    /// All-to-all personalized exchange.
    Alltoall = 9,
}

impl CollId {
    /// The id code recorded in trace events.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// The collective's lowercase name, as used in the `coll.<name>`
    /// invocation counters.
    pub fn name(self) -> &'static str {
        match self {
            CollId::Barrier => "barrier",
            CollId::Broadcast => "broadcast",
            CollId::Reduce => "reduce",
            CollId::Allreduce => "allreduce",
            CollId::Gather => "gather",
            CollId::Scatter => "scatter",
            CollId::Allgather => "allgather",
            CollId::RingAllreduce => "ring_allreduce",
            CollId::ExclusiveScan => "exclusive_scan",
            CollId::Alltoall => "alltoall",
        }
    }

    /// The full `coll.<name>` counter key.
    fn counter(self) -> &'static str {
        match self {
            CollId::Barrier => "coll.barrier",
            CollId::Broadcast => "coll.broadcast",
            CollId::Reduce => "coll.reduce",
            CollId::Allreduce => "coll.allreduce",
            CollId::Gather => "coll.gather",
            CollId::Scatter => "coll.scatter",
            CollId::Allgather => "coll.allgather",
            CollId::RingAllreduce => "coll.ring_allreduce",
            CollId::ExclusiveScan => "coll.exclusive_scan",
            CollId::Alltoall => "coll.alltoall",
        }
    }
}

/// Run `f` as the body of collective `id` on `rank`: bump the
/// invocation counter and bracket the body with begin/end marks. Early
/// `return`s inside `f` still hit the end mark.
fn span<M: Payload, T: Transport<M>, R>(
    rank: &mut Rank<M, T>,
    id: CollId,
    f: impl FnOnce(&mut Rank<M, T>) -> R,
) -> R {
    rank.count(id.counter(), 1);
    let seq = rank.coll_begin(id.code());
    let result = f(rank);
    rank.coll_end(id.code(), seq);
    result
}

fn ceil_log2(p: usize) -> u32 {
    assert!(p >= 1);
    usize::BITS - (p - 1).leading_zeros()
}

/// Dissemination barrier: `⌈log₂ p⌉` rounds, `p·⌈log₂ p⌉` messages total.
pub fn barrier<M: Payload + Default, T: Transport<M>>(rank: &mut Rank<M, T>) {
    span(rank, CollId::Barrier, |rank| {
        let p = rank.size();
        if p == 1 {
            return;
        }
        for k in 0..ceil_log2(p) {
            let dist = 1usize << k;
            let dst = (rank.id() + dist) % p;
            let src = (rank.id() + p - dist) % p;
            rank.send(dst, TAG_BARRIER + k, M::default());
            rank.recv(src, TAG_BARRIER + k);
        }
    })
}

/// Binomial-tree broadcast from `root`: `p − 1` messages, `⌈log₂ p⌉`
/// rounds. Every rank returns the value.
pub fn broadcast<M: Payload + Clone, T: Transport<M>>(
    rank: &mut Rank<M, T>,
    root: usize,
    value: Option<M>,
) -> M {
    span(rank, CollId::Broadcast, |rank| {
        let p = rank.size();
        assert!(root < p, "root out of range");
        let r = (rank.id() + p - root) % p; // virtual rank, root at 0
        let mut val = if r == 0 {
            Some(value.expect("root must supply the broadcast value"))
        } else {
            None
        };
        let levels = ceil_log2(p);
        for k in 0..levels {
            let dist = 1usize << k;
            if r < dist {
                // I already have the value; send to my partner if it exists.
                let partner = r + dist;
                if partner < p {
                    let dst = (partner + root) % p;
                    rank.send(dst, TAG_BCAST + k, val.clone().expect("holder has value"));
                }
            } else if r < 2 * dist {
                let src = ((r - dist) + root) % p;
                val = Some(rank.recv(src, TAG_BCAST + k));
            }
        }
        val.expect("broadcast reached every rank")
    })
}

/// Binomial-tree reduce to `root` with associative `op`; combine order
/// preserves rank order, so non-commutative (but associative) operators
/// are safe. `p − 1` messages. Returns `Some(result)` at root only.
pub fn reduce<M: Payload, T: Transport<M>>(
    rank: &mut Rank<M, T>,
    root: usize,
    value: M,
    op: impl Fn(M, M) -> M,
) -> Option<M> {
    span(rank, CollId::Reduce, |rank| {
        let p = rank.size();
        assert!(root < p, "root out of range");
        let r = (rank.id() + p - root) % p;
        let mut acc = value;
        let levels = ceil_log2(p);
        for k in 0..levels {
            let dist = 1usize << k;
            if r.is_multiple_of(2 * dist) {
                let partner = r + dist;
                if partner < p {
                    let src = (partner + root) % p;
                    let other = rank.recv(src, TAG_REDUCE + k);
                    // acc covers ranks [r, r+dist), other covers [r+dist, ...):
                    // combine low-then-high to preserve order.
                    acc = op(acc, other);
                }
            } else if r % (2 * dist) == dist {
                let dst = ((r - dist) + root) % p;
                rank.send(dst, TAG_REDUCE + k, acc);
                return None; // contributed and done
            }
        }
        debug_assert_eq!(r, 0);
        Some(acc)
    })
}

/// Allreduce = reduce to 0 + broadcast: `2(p − 1)` messages.
pub fn allreduce<M: Payload + Clone, T: Transport<M>>(
    rank: &mut Rank<M, T>,
    value: M,
    op: impl Fn(M, M) -> M,
) -> M {
    span(rank, CollId::Allreduce, |rank| {
        let reduced = reduce(rank, 0, value, op);
        broadcast(rank, 0, reduced)
    })
}

/// Gather to `root` (linear): every other rank sends once; root returns
/// the values in rank order. `p − 1` messages.
pub fn gather<M: Payload, T: Transport<M>>(
    rank: &mut Rank<M, T>,
    root: usize,
    value: M,
) -> Option<Vec<M>> {
    span(rank, CollId::Gather, |rank| {
        let p = rank.size();
        assert!(root < p, "root out of range");
        if rank.id() == root {
            let mut slots: Vec<Option<M>> = (0..p).map(|_| None).collect();
            slots[root] = Some(value);
            for _ in 0..p - 1 {
                let (src, v) = rank.recv_any(TAG_GATHER);
                assert!(slots[src].is_none(), "duplicate gather contribution");
                slots[src] = Some(v);
            }
            Some(
                slots
                    .into_iter()
                    .map(|s| s.expect("all ranks sent"))
                    .collect(),
            )
        } else {
            rank.send(root, TAG_GATHER, value);
            None
        }
    })
}

/// Scatter from `root` (linear): root keeps element `root` and sends one
/// element to each other rank. `p − 1` messages.
pub fn scatter<M: Payload, T: Transport<M>>(
    rank: &mut Rank<M, T>,
    root: usize,
    values: Option<Vec<M>>,
) -> M {
    span(rank, CollId::Scatter, |rank| {
        let p = rank.size();
        assert!(root < p, "root out of range");
        if rank.id() == root {
            let values = values.expect("root must supply the scatter values");
            assert_eq!(values.len(), p, "need exactly one value per rank");
            let mut mine = None;
            for (dst, v) in values.into_iter().enumerate() {
                if dst == rank.id() {
                    mine = Some(v);
                } else {
                    rank.send(dst, TAG_SCATTER, v);
                }
            }
            mine.expect("own slot present")
        } else {
            rank.recv(root, TAG_SCATTER)
        }
    })
}

/// Ring allgather: `p − 1` rounds, each rank forwarding one element per
/// round; `p(p − 1)` messages. Returns all values in rank order.
pub fn allgather<M: Payload + Clone, T: Transport<M>>(rank: &mut Rank<M, T>, value: M) -> Vec<M> {
    span(rank, CollId::Allgather, |rank| {
        let p = rank.size();
        let mut slots: Vec<Option<M>> = (0..p).map(|_| None).collect();
        slots[rank.id()] = Some(value);
        let next = (rank.id() + 1) % p;
        let prev = (rank.id() + p - 1) % p;
        // In round k, send the element that originated at (id - k) mod p.
        let mut carry = slots[rank.id()].clone().unwrap();
        for k in 0..p - 1 {
            rank.send(next, TAG_ALLGATHER + k as u32, carry);
            let received = rank.recv(prev, TAG_ALLGATHER + k as u32);
            let origin = (rank.id() + p - 1 - k) % p;
            slots[origin] = Some(received.clone());
            carry = received;
        }
        slots
            .into_iter()
            .map(|s| s.expect("ring complete"))
            .collect()
    })
}

/// Ring allreduce over a *vector* value (reduce-scatter then allgather):
/// `2(p − 1)` rounds, `2p(p − 1)` messages of `n/p` elements each — the
/// bandwidth-optimal algorithm large-model training uses, contrasted in
/// class with the `2(p−1)`-message but bandwidth-`n·log p` tree.
///
/// `values.len()` must be divisible by `p`. Every rank returns the full
/// elementwise reduction.
pub fn ring_allreduce<T: Transport<Vec<i64>>>(
    rank: &mut Rank<Vec<i64>, T>,
    values: Vec<i64>,
    op: impl Fn(i64, i64) -> i64 + Copy,
) -> Vec<i64> {
    span(rank, CollId::RingAllreduce, |rank| {
        let mut values = values;
        let p = rank.size();
        if p == 1 {
            return values;
        }
        let n = values.len();
        assert!(n.is_multiple_of(p), "vector length must be divisible by p");
        let chunk = n / p;
        let me = rank.id();
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        let slice_of = |i: usize| (i * chunk)..((i + 1) * chunk);

        // Phase 1: reduce-scatter. In round k, send the chunk that started at
        // (me - k) and receive/accumulate the chunk started at (me - k - 1).
        for k in 0..p - 1 {
            let send_idx = (me + p - k) % p;
            let recv_idx = (me + p - k - 1) % p;
            rank.send(
                next,
                TAG_RING_RS + k as u32,
                values[slice_of(send_idx)].to_vec(),
            );
            let incoming = rank.recv(prev, TAG_RING_RS + k as u32);
            for (dst, src) in values[slice_of(recv_idx)].iter_mut().zip(incoming) {
                *dst = op(*dst, src);
            }
        }
        // After p-1 rounds, rank me owns the fully reduced chunk (me + 1) % p.
        // Phase 2: allgather the reduced chunks around the ring.
        for k in 0..p - 1 {
            let send_idx = (me + 1 + p - k) % p;
            let recv_idx = (me + p - k) % p;
            rank.send(
                next,
                TAG_RING_AG + k as u32,
                values[slice_of(send_idx)].to_vec(),
            );
            let incoming = rank.recv(prev, TAG_RING_AG + k as u32);
            values[slice_of(recv_idx)].copy_from_slice(&incoming);
        }
        values
    })
}

/// Linear exclusive scan: rank `i` returns `id ⊕ v₀ ⊕ … ⊕ v_{i−1}`.
/// `p − 1` messages, `p − 1` rounds (the chain is the critical path).
pub fn exclusive_scan<M: Payload + Clone, T: Transport<M>>(
    rank: &mut Rank<M, T>,
    identity: M,
    value: M,
    op: impl Fn(M, M) -> M,
) -> M {
    span(rank, CollId::ExclusiveScan, |rank| {
        let p = rank.size();
        let prefix = if rank.id() == 0 {
            identity
        } else {
            rank.recv(rank.id() - 1, TAG_SCAN)
        };
        if rank.id() + 1 < p {
            let forward = op(prefix.clone(), value);
            rank.send(rank.id() + 1, TAG_SCAN, forward);
        }
        prefix
    })
}

/// All-to-all personalized exchange: rank `i` sends `values[j]` to rank
/// `j`; returns the values received, indexed by source. `p(p − 1)`
/// messages.
pub fn alltoall<M: Payload, T: Transport<M>>(rank: &mut Rank<M, T>, values: Vec<M>) -> Vec<M> {
    span(rank, CollId::Alltoall, |rank| {
        let p = rank.size();
        assert_eq!(values.len(), p, "need exactly one value per rank");
        let mut slots: Vec<Option<M>> = (0..p).map(|_| None).collect();
        for (dst, v) in values.into_iter().enumerate() {
            if dst == rank.id() {
                slots[dst] = Some(v);
            } else {
                rank.send(dst, TAG_ALLTOALL, v);
            }
        }
        for _ in 0..p - 1 {
            let (src, v) = rank.recv_any(TAG_ALLTOALL);
            assert!(slots[src].is_none(), "duplicate alltoall message");
            slots[src] = Some(v);
        }
        slots.into_iter().map(|s| s.expect("complete")).collect()
    })
}

/// Small-message coalescing for worlds whose payload is a batch
/// (`Rank<Vec<M>, T>`): queue messages per destination and ship each
/// queue as **one** envelope once its modeled bytes reach the α–β
/// threshold `n* = α/β` (see [`AlphaBeta::coalesce_threshold`]).
///
/// The rule is the classic latency-vs-bandwidth trade: a message of `n`
/// bytes is latency-dominated while `α > n·β`, so gluing it onto the
/// next one amortizes α at negligible bandwidth cost; past `n*` the
/// transfer term owns the wire and batching buys nothing. The
/// `e-batch` bench demonstrates the crossover on real loopback
/// sockets.
///
/// Delivery order per `(src, dst)` is the push order (queues are FIFO
/// and the transport preserves send order), so batching never reorders
/// a conversation — it only changes how many envelopes carry it. The
/// receiver sees `Vec<M>` batches of unspecified sizes; callers that
/// need framing count messages, not envelopes.
///
/// In a traced world each shipped envelope bumps `coll.coalesce_flushes`
/// by one and `coll.coalesced_msgs` by the number of messages it
/// carries, so the batching ratio is visible in snapshots. Both counts
/// land at flush time: a message still queued is not yet counted, which
/// is one more reason to end with [`Coalescer::flush_all`].
pub struct Coalescer<M> {
    tag: u32,
    threshold: u64,
    queues: Vec<Vec<M>>,
    queued_bytes: Vec<u64>,
}

impl<M: Payload> Coalescer<M> {
    /// A coalescer for a world of `p` ranks, shipping under `tag`, with
    /// the flush threshold taken from `model`.
    pub fn new(p: usize, tag: u32, model: AlphaBeta) -> Coalescer<M> {
        Coalescer {
            tag,
            threshold: model.coalesce_threshold(),
            queues: (0..p).map(|_| Vec::new()).collect(),
            queued_bytes: vec![0; p],
        }
    }

    /// The modeled byte count at which a destination's queue ships.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Messages currently queued for `dst`.
    pub fn pending(&self, dst: usize) -> usize {
        self.queues[dst].len()
    }

    /// Queue `msg` for `dst`; ships the queue as one envelope if its
    /// modeled bytes now reach the threshold. Returns `true` when a
    /// flush happened.
    pub fn push<T: Transport<Vec<M>>>(
        &mut self,
        rank: &Rank<Vec<M>, T>,
        dst: usize,
        msg: M,
    ) -> bool {
        self.queued_bytes[dst] += msg.size_bytes();
        self.queues[dst].push(msg);
        if self.queued_bytes[dst] >= self.threshold {
            self.flush(rank, dst) > 0
        } else {
            false
        }
    }

    /// Ship whatever is queued for `dst` (possibly below the threshold);
    /// returns the number of messages shipped. No envelope is sent for
    /// an empty queue. A shipped envelope adds 1 to
    /// `coll.coalesce_flushes` and its length to `coll.coalesced_msgs`.
    pub fn flush<T: Transport<Vec<M>>>(&mut self, rank: &Rank<Vec<M>, T>, dst: usize) -> usize {
        let batch = std::mem::take(&mut self.queues[dst]);
        self.queued_bytes[dst] = 0;
        let shipped = batch.len();
        if shipped > 0 {
            rank.count("coll.coalesce_flushes", 1);
            rank.count("coll.coalesced_msgs", shipped as u64);
            rank.send(dst, self.tag, batch);
        }
        shipped
    }

    /// Flush every destination's queue; returns total messages shipped.
    /// Call before any exchange that expects all traffic delivered —
    /// batching must never strand a tail below the threshold.
    pub fn flush_all<T: Transport<Vec<M>>>(&mut self, rank: &Rank<Vec<M>, T>) -> usize {
        (0..self.queues.len())
            .map(|dst| self.flush(rank, dst))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Rank as R, World};

    #[test]
    fn barrier_message_count() {
        for p in [2usize, 3, 4, 8] {
            let (_, stats) = World::run(p, |r: &mut R<u8>| barrier(r));
            assert_eq!(
                stats.messages,
                (p as u64) * u64::from(ceil_log2(p)),
                "p={p}"
            );
        }
    }

    #[test]
    fn broadcast_delivers_and_counts() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            for root in [0, p - 1, p / 2] {
                let (results, stats) = World::run(p, |r: &mut R<u64>| {
                    let v = if r.id() == root { Some(999) } else { None };
                    broadcast(r, root, v)
                });
                assert!(results.iter().all(|&v| v == 999), "p={p} root={root}");
                assert_eq!(stats.messages, (p - 1) as u64, "p={p} root={root}");
            }
        }
    }

    #[test]
    fn reduce_sums_and_counts() {
        for p in [1usize, 2, 3, 7, 8] {
            for root in [0, p - 1] {
                let (results, stats) = World::run(p, |r: &mut R<u64>| {
                    reduce(r, root, r.id() as u64 + 1, |a, b| a + b)
                });
                let want: u64 = (1..=p as u64).sum();
                for (i, res) in results.iter().enumerate() {
                    if i == root {
                        assert_eq!(*res, Some(want));
                    } else {
                        assert_eq!(*res, None);
                    }
                }
                assert_eq!(stats.messages, (p - 1) as u64);
            }
        }
    }

    #[test]
    fn reduce_non_commutative_preserves_order() {
        let p = 6;
        let (results, _) = World::run(p, |r: &mut R<String>| {
            reduce(r, 0, r.id().to_string(), |a, b| a + &b)
        });
        assert_eq!(results[0], Some("012345".to_string()));
    }

    #[test]
    fn allreduce_everyone_gets_max() {
        let p = 7;
        let (results, stats) = World::run(p, |r: &mut R<u64>| {
            allreduce(r, (r.id() as u64 * 37) % 11, u64::max)
        });
        let want = (0..p as u64).map(|i| (i * 37) % 11).max().unwrap();
        assert!(results.iter().all(|&v| v == want));
        assert_eq!(stats.messages, 2 * (p - 1) as u64);
    }

    #[test]
    fn gather_in_rank_order() {
        let p = 5;
        let (results, stats) = World::run(p, |r: &mut R<u64>| gather(r, 2, r.id() as u64 * 10));
        assert_eq!(results[2], Some(vec![0, 10, 20, 30, 40]));
        assert!(results
            .iter()
            .enumerate()
            .all(|(i, v)| i == 2 || v.is_none()));
        assert_eq!(stats.messages, (p - 1) as u64);
    }

    #[test]
    fn scatter_distributes() {
        let p = 4;
        let (results, stats) = World::run(p, |r: &mut R<u64>| {
            let vals = (r.id() == 1).then(|| vec![100, 101, 102, 103]);
            scatter(r, 1, vals)
        });
        assert_eq!(results, vec![100, 101, 102, 103]);
        assert_eq!(stats.messages, (p - 1) as u64);
    }

    #[test]
    fn allgather_ring() {
        let p = 6;
        let (results, stats) = World::run(p, |r: &mut R<u64>| allgather(r, r.id() as u64 * 2));
        let want: Vec<u64> = (0..p as u64).map(|i| i * 2).collect();
        assert!(results.iter().all(|v| *v == want));
        assert_eq!(stats.messages, (p * (p - 1)) as u64);
    }

    #[test]
    fn exclusive_scan_chain() {
        let p = 6;
        let (results, stats) = World::run(p, |r: &mut R<u64>| {
            exclusive_scan(r, 0, r.id() as u64 + 1, |a, b| a + b)
        });
        // rank i gets sum of 1..=i.
        let want: Vec<u64> = (0..p as u64).map(|i| i * (i + 1) / 2).collect();
        assert_eq!(results, want);
        assert_eq!(stats.messages, (p - 1) as u64);
    }

    #[test]
    fn alltoall_personalized() {
        let p = 4;
        let (results, stats) = World::run(p, |r: &mut R<u64>| {
            // values[j] encodes (me, j).
            let vals: Vec<u64> = (0..p).map(|j| (r.id() * 100 + j) as u64).collect();
            alltoall(r, vals)
        });
        for (me, got) in results.iter().enumerate() {
            for (src, &v) in got.iter().enumerate() {
                assert_eq!(v, (src * 100 + me) as u64, "rank {me} from {src}");
            }
        }
        assert_eq!(stats.messages, (p * (p - 1)) as u64);
    }

    #[test]
    fn ring_allreduce_matches_tree_allreduce() {
        for p in [1usize, 2, 3, 4, 6] {
            let n = 12; // divisible by every p above
            let (results, stats) = World::run(p, move |r: &mut R<Vec<i64>>| {
                let mine: Vec<i64> = (0..n).map(|j| (r.id() * n + j) as i64).collect();
                ring_allreduce(r, mine, |a, b| a + b)
            });
            // Expected elementwise sum.
            let want: Vec<i64> = (0..n)
                .map(|j| (0..p).map(|i| (i * n + j) as i64).sum())
                .collect();
            for res in &results {
                assert_eq!(res, &want, "p={p}");
            }
            if p > 1 {
                assert_eq!(stats.messages, (2 * p * (p - 1)) as u64, "p={p}");
                // Bandwidth optimality: total bytes = 2p(p-1) * (n/p) * 8
                // = 2(p-1) * n * 8 — independent of how the tree would
                // scale.
                assert_eq!(stats.bytes, (2 * (p - 1) * n * 8) as u64, "p={p}");
            }
        }
    }

    #[test]
    fn ring_allreduce_with_max_operator() {
        let p = 4;
        let (results, _) = World::run(p, |r: &mut R<Vec<i64>>| {
            let mine = vec![r.id() as i64 * 10, -(r.id() as i64)];
            // pad to divisible length
            let mut v = mine;
            v.resize(4, i64::MIN);
            ring_allreduce(r, v, i64::max)
        });
        for res in results {
            assert_eq!(res[0], 30);
            assert_eq!(res[1], 0);
        }
    }

    #[test]
    fn traced_collectives_bump_invocation_counters() {
        use pdc_core::trace::TraceSession;
        let p = 4;
        let session = TraceSession::new();
        World::run_traced(p, &session, |r: &mut R<u64>| {
            barrier(r);
            let x = broadcast(r, 0, (r.id() == 0).then_some(3));
            allreduce(r, x, |a, b| a + b)
        });
        let snap = session.snapshot();
        // One call per rank per collective; allreduce delegates to
        // reduce + broadcast, so broadcast counts twice per rank.
        assert_eq!(snap.get("coll.barrier"), p as u64);
        assert_eq!(snap.get("coll.allreduce"), p as u64);
        assert_eq!(snap.get("coll.reduce"), p as u64);
        assert_eq!(snap.get("coll.broadcast"), 2 * p as u64);
        // The p2p substrate is accounted too.
        assert!(snap.get("mpi.msgs") > 0);
    }

    #[test]
    fn collective_marks_bracket_exactly_the_collectives_sends() {
        use pdc_core::trace::{EventKind, TraceSession};
        // A lone broadcast in a traced world: on every rank the single
        // coll_begin/coll_end pair must enclose all of that rank's
        // point-to-point events, and the enclosed sends must add up to
        // exactly the p − 1 messages a binomial broadcast issues.
        let p = 4;
        let session = TraceSession::new();
        World::run_traced(p, &session, |r: &mut R<u64>| {
            broadcast(r, 0, (r.id() == 0).then_some(42))
        });
        let events = session.events();
        let mut total_sends = 0u64;
        for actor in 0..p as u32 {
            let mine: Vec<_> = events.iter().filter(|e| e.actor == actor).collect();
            let begins: Vec<_> = mine
                .iter()
                .filter(|e| e.kind == EventKind::CollBegin)
                .collect();
            let ends: Vec<_> = mine
                .iter()
                .filter(|e| e.kind == EventKind::CollEnd)
                .collect();
            assert_eq!(begins.len(), 1, "actor {actor}: one begin");
            assert_eq!(ends.len(), 1, "actor {actor}: one end");
            let (begin, end) = (begins[0], ends[0]);
            assert_eq!(begin.a, CollId::Broadcast.code());
            assert_eq!(end.a, CollId::Broadcast.code());
            assert_eq!(begin.b, end.b, "seq numbers match");
            assert!(begin.ts < end.ts);
            for e in &mine {
                if matches!(e.kind, EventKind::Send | EventKind::Recv) {
                    assert!(
                        begin.ts < e.ts && e.ts < end.ts,
                        "actor {actor}: p2p event outside the collective span"
                    );
                    if e.kind == EventKind::Send {
                        total_sends += 1;
                    }
                }
            }
        }
        assert_eq!(total_sends, (p - 1) as u64, "broadcast sends p − 1 msgs");
        assert_eq!(session.snapshot().get("mpi.msgs"), (p - 1) as u64);
    }

    #[test]
    fn nested_allreduce_spans_and_seq_numbers() {
        use pdc_core::trace::{EventKind, TraceSession};
        let p = 4;
        let session = TraceSession::new();
        World::run_traced(p, &session, |r: &mut R<u64>| allreduce(r, 1, |a, b| a + b));
        let events = session.events();
        for actor in 0..p as u32 {
            // allreduce = outer span + nested reduce and broadcast spans:
            // three begin/end pairs per rank, each end matching its begin's
            // (coll, seq), and distinct seq numbers 1..=3.
            let mine: Vec<_> = events.iter().filter(|e| e.actor == actor).collect();
            let begins: Vec<_> = mine
                .iter()
                .filter(|e| e.kind == EventKind::CollBegin)
                .collect();
            let ends: Vec<_> = mine
                .iter()
                .filter(|e| e.kind == EventKind::CollEnd)
                .collect();
            assert_eq!(begins.len(), 3, "actor {actor}");
            assert_eq!(ends.len(), 3, "actor {actor}");
            let mut seqs: Vec<u64> = begins.iter().map(|e| e.b).collect();
            seqs.sort_unstable();
            assert_eq!(seqs, vec![1, 2, 3], "actor {actor}");
            for b in &begins {
                let matching: Vec<_> = ends
                    .iter()
                    .filter(|e| e.a == b.a && e.b == b.b && e.ts > b.ts)
                    .collect();
                assert_eq!(matching.len(), 1, "actor {actor}: unmatched begin");
            }
            // The outer allreduce span (seq 1) encloses the other two.
            let outer_begin = begins.iter().find(|e| e.b == 1).unwrap();
            let outer_end = ends.iter().find(|e| e.b == 1).unwrap();
            assert_eq!(outer_begin.a, CollId::Allreduce.code());
            for e in begins.iter().chain(ends.iter()) {
                if e.b != 1 {
                    assert!(outer_begin.ts < e.ts && e.ts < outer_end.ts);
                }
            }
        }
    }

    #[test]
    fn collectives_compose_in_spmd_order() {
        // A realistic SPMD program chaining several collectives.
        let p = 5;
        let (results, _) = World::run(p, |r: &mut R<u64>| {
            let x = broadcast(r, 0, (r.id() == 0).then_some(7));
            barrier(r);
            let total = allreduce(r, x * (r.id() as u64 + 1), |a, b| a + b);
            let all = allgather(r, total);
            assert!(all.iter().all(|&v| v == total));
            total
        });
        // 7 * (1+2+3+4+5) = 105
        assert!(results.iter().all(|&v| v == 105));
    }

    #[test]
    fn coalescer_batches_below_threshold_into_one_envelope() {
        // Cluster model: n* = 10 000 B. 100 u64s = 800 B — everything
        // stays queued until flush_all ships a single envelope.
        let (results, stats) = World::run(2, |r: &mut R<Vec<u64>>| {
            if r.id() == 0 {
                let mut co = Coalescer::new(r.size(), 5, AlphaBeta::cluster());
                assert_eq!(co.threshold(), 10_000);
                for i in 0..100u64 {
                    assert!(!co.push(r, 1, i), "below threshold: no auto-flush");
                }
                assert_eq!(co.pending(1), 100);
                assert_eq!(co.flush_all(r), 100);
                assert_eq!(co.pending(1), 0);
                Vec::new()
            } else {
                r.recv(0, 5)
            }
        });
        assert_eq!(
            results[1],
            (0..100).collect::<Vec<u64>>(),
            "push order kept"
        );
        assert_eq!(stats.messages, 1, "100 messages coalesced into 1");
        assert_eq!(stats.bytes, 800);
    }

    #[test]
    fn coalescer_auto_flushes_at_threshold() {
        // α/β = 80 B: every tenth 8-byte push crosses the threshold.
        let model = AlphaBeta {
            alpha: 80.0,
            beta: 1.0,
        };
        let (_, stats) = World::run(2, move |r: &mut R<Vec<u64>>| {
            if r.id() == 0 {
                let mut co = Coalescer::new(r.size(), 5, model);
                let mut flushes = 0;
                for i in 0..95u64 {
                    if co.push(r, 1, i) {
                        flushes += 1;
                    }
                }
                assert_eq!(flushes, 9, "auto-flush every 10 pushes");
                assert_eq!(co.pending(1), 5, "tail below threshold stays queued");
                assert_eq!(co.flush_all(r), 5);
            } else {
                let mut got = Vec::new();
                while got.len() < 95 {
                    got.extend(r.recv(0, 5));
                }
                assert_eq!(got, (0..95).collect::<Vec<u64>>());
            }
        });
        assert_eq!(stats.messages, 10, "9 full batches + 1 tail");
    }

    #[test]
    fn coalescer_ships_immediately_when_alpha_cheap() {
        // α = β: n* = 1 B, so any non-empty message is already
        // bandwidth-dominated and every push ships by itself.
        let model = AlphaBeta {
            alpha: 1.0,
            beta: 1.0,
        };
        let (_, stats) = World::run(2, move |r: &mut R<Vec<u64>>| {
            if r.id() == 0 {
                let mut co = Coalescer::new(r.size(), 5, model);
                for i in 0..7u64 {
                    assert!(co.push(r, 1, i), "past-threshold push ships");
                }
                assert_eq!(co.flush_all(r), 0, "nothing left to flush");
            } else {
                for i in 0..7u64 {
                    assert_eq!(r.recv(0, 5), vec![i]);
                }
            }
        });
        assert_eq!(stats.messages, 7);
    }

    #[test]
    fn coalescer_counters_record_batching_ratio() {
        use pdc_core::trace::TraceSession;
        let session = TraceSession::new();
        World::run_traced(2, &session, |r: &mut R<Vec<u64>>| {
            if r.id() == 0 {
                let mut co = Coalescer::new(r.size(), 5, AlphaBeta::cluster());
                for i in 0..40u64 {
                    co.push(r, 1, i);
                }
                co.flush_all(r);
            } else {
                let mut got = Vec::new();
                while got.len() < 40 {
                    got.extend(r.recv(0, 5));
                }
            }
        });
        let snap = session.snapshot();
        assert_eq!(snap.get("coll.coalesced_msgs"), 40);
        assert_eq!(snap.get("coll.coalesce_flushes"), 1);
        assert_eq!(snap.get("mpi.msgs"), 1);
    }

    #[test]
    fn coalescer_batches_over_the_wire_mesh() {
        // The α–β batching layer composed with the one-hop topology:
        // sub-threshold pushes to two peers coalesce into one envelope
        // each, and neither envelope crosses the parent.
        use crate::transport::{WireOptions, WireTransport, WireWorld};
        let opts = WireOptions::for_test(3, "coll::tests::coalescer_batches_over_the_wire_mesh");
        let run = WireWorld::run(
            &opts,
            |r: &mut crate::Rank<Vec<u64>, WireTransport<Vec<u64>>>| {
                if r.id() == 0 {
                    let mut co = Coalescer::new(r.size(), 5, AlphaBeta::cluster());
                    for i in 0..50u64 {
                        assert!(!co.push(r, 1, i), "below threshold");
                        assert!(!co.push(r, 2, 100 + i), "below threshold");
                    }
                    assert_eq!(co.flush_all(r), 100);
                    Vec::new()
                } else {
                    r.recv(0, 5)
                }
            },
        );
        assert_eq!(run.results[1], (0..50).collect::<Vec<u64>>());
        assert_eq!(run.results[2], (100..150).collect::<Vec<u64>>());
        assert_eq!(run.stats.messages, 2, "one coalesced envelope per peer");
        assert_eq!(
            run.forwarded, 0,
            "coalesced envelopes ride peer connections"
        );
    }
}
