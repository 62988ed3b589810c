//! The sharded store facing **live traffic**: a front-end tier that
//! accepts real client connections, routes every op through the
//! consistent-hash ring to replicated shard processes, and survives a
//! shard dying mid-run — promotion, rebalance, zero lost acknowledged
//! writes.
//!
//! It serves [`crate::sharded`]'s ops over its ring, and makes the
//! replication / load-balancing / fault-tolerance topics of the
//! curriculum executable in one artifact:
//!
//! * **Front end** (rank 0, this process): a core with no socket and no
//!   clock (`Tier`) holds the front end's whole protocol — routing, an
//!   ordered reply-slot queue per client (replies arrive from the shard
//!   tier out of order), acks, failover and the drain — and a thin
//!   driver carries out what it asks for. Every client socket is a
//!   [`LineConn`] registered on the [`pdc_mpi::WireHub`]'s poller
//!   ([`WireHub::register_client`]), so each pass of the driver makes
//!   one `poll(2)` over the shards and the clients ([`WireHub::pump`])
//!   and touches only what it reported: an accept when the listener is
//!   readable, a read of each client socket it named, the shard frames
//!   the same sweep queued. It blocks unless a hub event is already
//!   queued. This is the repository's one event-loop server of the
//!   kv_tcp line protocol. Each shard process feeds every
//!   message to its own core (`Shard::handle`); this module's tests run
//!   both cores without processes. Shard↔shard chain traffic (`Fwd`,
//!   `Sync`) travels direct mesh connections and never crosses the hub.
//! * **Replication**: chain replication over [`HashRing::nodes_for`]
//!   with 2 replicas. The front end sends an op to its primary; the
//!   primary applies it, ships the *result* (absolute value + version,
//!   so replicas stay bit-identical) to the backup; the **tail** acks.
//!   An op is acknowledged to the client only once the whole chain
//!   holds it — which is exactly why a single failure loses nothing.
//! * **Failure detection**: two detectors feed one verdict. The hub's
//!   event loop turns a dead socket into a
//!   [`TransportError::PeerClosed`] event (the bugfixed transport
//!   surface), and an [`ft::HeartbeatMonitor`](pdc_mpi::ft) fed by
//!   Ping/Pong traffic catches silent hangs the socket layer misses.
//!   Whichever fires first claims the death ([`WireHub::report_dead`]);
//!   the loser is suppressed inside the hub, so overlapping signals for
//!   one crash can never promote two backups.
//! * **Promotion & rebalance**: on a death the ring shrinks, surviving
//!   shards re-derive ownership and `Sync` copies to the backups the
//!   new ring assigns, the front end re-sends every unacknowledged op
//!   (in id order) to the new primaries, and per-op **memoization** on
//!   the shards makes those retries idempotent — a retried op that was
//!   already applied re-ships its memoized result instead of bumping
//!   the version twice.
//! * **Memo garbage collection**: every heartbeat `Ping` carries the
//!   front end's acked watermark — the oldest op not yet acked by the
//!   tail of the last chain it was sent down, or the next id when there
//!   is none. No id below it is ever sent again, and every replica of
//!   its chain holds it, so a shard drops its memo entries below the
//!   watermark and treats any `Op` or `Fwd` below it as a stale
//!   duplicate that applies nothing (RIFL's completion-record
//!   collection; Lee et al., SOSP 2015). An op acked by a replaced
//!   chain's tail, which a death can cause, still holds the watermark
//!   until its retry's tail acks, because the new backup may not hold
//!   it yet. A shard's memo then holds the ops issued since the oldest
//!   such op plus one heartbeat interval of traffic, not every op it
//!   ever served.
//! * **Drain**: [`ServeHandle::finish`] stops accepting, serves every
//!   open client to its end, asks each survivor (`Stop`) for the keys it
//!   is primary for, and sends `Exit` once every report is in. A death
//!   mid-report sends the survivors a `Stop` behind the `Reconfig`, and
//!   only what each sends after its previous `Done` counts. A drain not
//!   done five minutes after `finish` panics as stalled.
//!
//! The serve gate (`experiments --serve`) drives this with a closed-loop
//! load generator, kills a shard mid-run, and checks: final state equals
//! a direct single-node apply of the acked ops, `serve.promotions >= 1`,
//! the watermark trimmed every memo entry the survivors inserted and no
//! memo held more than a few heartbeat intervals of entries, latency
//! percentiles, and a clean `analyze_merged` verdict over the merged
//! per-process traces (with the dead rank's causally-incomplete
//! message pairs shrunk away, MPI-communicator style).

use crate::dht::HashRing;
use crate::sharded::{apply_op, shard_ring, Applied, KvState, ShardOp};
use pdc_core::merge::MergedTrace;
use pdc_core::metrics::Counter;
use pdc_core::trace::{EventKind, TraceSession};
use pdc_mpi::ft::HeartbeatMonitor;
use pdc_mpi::kv::{self, Request};
use pdc_mpi::kv_tcp::{accept_ready, render, Line, LineConn};
use pdc_mpi::{
    take_child_env, HubEvent, Interest, Payload, Transport, TransportError, WireHub, WireMessage,
    WireOptions, WireTransport,
};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::process::ExitStatus;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The single tag all serve-protocol messages travel under.
pub const TAG_SERVE: u32 = 0x60;

/// "No backup" marker in [`ServeMsg::Op`] (rank 0 is the front end, so
/// 0 can never name a shard).
const NO_BACKUP: u32 = 0;

/// An op's effect, computed once at the primary and shipped down the
/// chain so every replica stores bit-identical `(value, version)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyCmd {
    /// Bind `key` to exactly this value and version.
    Set {
        /// The key.
        key: String,
        /// The value the primary computed.
        val: String,
        /// The version the primary computed.
        ver: u64,
    },
    /// Remove `key`.
    Del {
        /// The key.
        key: String,
    },
}

/// The client-visible outcome of an op; the front end answers the
/// client with the kv_tcp rendering of its [`kv::Reply`] form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// PUT wrote this version (`OK <ver>`).
    PutOk(u64),
    /// DEL removed an existing key (`OK 0`).
    DelOk,
    /// DEL missed (`NOTFOUND`).
    DelMiss,
    /// GET observed this binding or its absence
    /// (`VALUE <ver> <val>` / `NOTFOUND`).
    Got(Option<(String, u64)>),
}

impl From<Reply> for kv::Reply {
    fn from(reply: Reply) -> kv::Reply {
        match reply {
            Reply::PutOk(version) => kv::Reply::Ok { version },
            Reply::DelOk => kv::Reply::Ok { version: 0 },
            Reply::DelMiss | Reply::Got(None) => kv::Reply::NotFound,
            Reply::Got(Some((value, version))) => kv::Reply::Value { value, version },
        }
    }
}

/// The serve protocol. Front end ↔ shard and shard ↔ shard messages
/// share one enum (and one tag): a chain is only two hops, the message
/// kinds say who handles what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeMsg {
    /// Front end → primary: execute op `id`; if `backup != 0`, chain
    /// the result there (the backup acks); else ack directly.
    Op {
        /// Monotone op id, assigned by the front end; the idempotency
        /// key for retries after a failure.
        id: u64,
        /// The operation.
        op: ShardOp,
        /// World rank of the backup replica (0 = none).
        backup: u32,
    },
    /// Primary → backup: apply this absolute result and ack `id`.
    Fwd {
        /// The op id being chained.
        id: u64,
        /// The primary's computed effect.
        cmd: ApplyCmd,
        /// The reply to carry back to the front end.
        reply: Reply,
    },
    /// Chain tail → front end: op `id` is durable on the whole chain.
    Ack {
        /// The op id.
        id: u64,
        /// The client-visible outcome.
        reply: Reply,
    },
    /// Front end → shard: liveness probe, carrying the acked
    /// watermark: every op id below `acked_below` is acknowledged by
    /// the tail of the last chain it was sent down and will never be
    /// sent again, so the shard trims its retry memo below it and drops
    /// any `Op` or `Fwd` below it as stale.
    Ping {
        /// The oldest op id pending or awaiting its retry's ack, or the
        /// next id to be assigned when there is none.
        acked_below: u64,
    },
    /// Shard → front end: liveness answer.
    Pong,
    /// Front end → all survivors: world rank `dead` is gone; shrink the
    /// ring and rebalance.
    Reconfig {
        /// The dead world rank.
        dead: u32,
    },
    /// Shard → shard: one key's binding, copied to a backup the
    /// post-failure ring newly assigns.
    Sync {
        /// The key.
        key: String,
        /// Its value.
        val: String,
        /// Its version.
        ver: u64,
    },
    /// Front end → shard: report the keys you are primary for.
    Stop,
    /// Shard → front end: one primary-owned key's final binding.
    Entry {
        /// The key.
        key: String,
        /// Its final value.
        val: String,
        /// Its final version.
        ver: u64,
    },
    /// Shard → front end: end of the state report.
    Done {
        /// Ops this shard applied as primary.
        ops: u64,
    },
    /// Front end → shard: all reports are in; write your trace snapshot
    /// and exit. (Separate from [`ServeMsg::Stop`] so in-flight
    /// shard→shard `Sync`s land — and are trace-recorded — before any
    /// receiver leaves the world.)
    Exit,
}

impl Payload for ApplyCmd {
    fn size_bytes(&self) -> u64 {
        1 + match self {
            ApplyCmd::Set { key, val, .. } => (key.len() + val.len()) as u64 + 8,
            ApplyCmd::Del { key } => key.len() as u64,
        }
    }
}

impl Payload for Reply {
    fn size_bytes(&self) -> u64 {
        1 + match self {
            Reply::PutOk(_) => 8,
            Reply::DelOk | Reply::DelMiss => 0,
            Reply::Got(Some((val, _))) => val.len() as u64 + 9,
            Reply::Got(None) => 1,
        }
    }
}

impl Payload for ServeMsg {
    fn size_bytes(&self) -> u64 {
        1 + match self {
            ServeMsg::Op { op, .. } => 12 + op.size_bytes(),
            ServeMsg::Fwd { cmd, reply, .. } => 8 + cmd.size_bytes() + reply.size_bytes(),
            ServeMsg::Ack { reply, .. } => 8 + reply.size_bytes(),
            ServeMsg::Pong | ServeMsg::Stop | ServeMsg::Exit => 0,
            ServeMsg::Reconfig { .. } => 4,
            ServeMsg::Sync { key, val, .. } | ServeMsg::Entry { key, val, .. } => {
                (key.len() + val.len()) as u64 + 8
            }
            ServeMsg::Ping { .. } | ServeMsg::Done { .. } => 8,
        }
    }
}

impl WireMessage for ApplyCmd {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ApplyCmd::Set { key, val, ver } => {
                out.push(0);
                key.encode(out);
                val.encode(out);
                ver.encode(out);
            }
            ApplyCmd::Del { key } => {
                out.push(1);
                key.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&disc, rest) = buf.split_first()?;
        *buf = rest;
        Some(match disc {
            0 => ApplyCmd::Set {
                key: String::decode(buf)?,
                val: String::decode(buf)?,
                ver: u64::decode(buf)?,
            },
            1 => ApplyCmd::Del {
                key: String::decode(buf)?,
            },
            _ => return None,
        })
    }
}

impl WireMessage for Reply {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Reply::PutOk(ver) => {
                out.push(0);
                ver.encode(out);
            }
            Reply::DelOk => out.push(1),
            Reply::DelMiss => out.push(2),
            Reply::Got(opt) => {
                out.push(3);
                opt.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&disc, rest) = buf.split_first()?;
        *buf = rest;
        Some(match disc {
            0 => Reply::PutOk(u64::decode(buf)?),
            1 => Reply::DelOk,
            2 => Reply::DelMiss,
            3 => Reply::Got(Option::<(String, u64)>::decode(buf)?),
            _ => return None,
        })
    }
}

impl WireMessage for ServeMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServeMsg::Op { id, op, backup } => {
                out.push(0);
                id.encode(out);
                op.encode(out);
                backup.encode(out);
            }
            ServeMsg::Fwd { id, cmd, reply } => {
                out.push(1);
                id.encode(out);
                cmd.encode(out);
                reply.encode(out);
            }
            ServeMsg::Ack { id, reply } => {
                out.push(2);
                id.encode(out);
                reply.encode(out);
            }
            ServeMsg::Ping { acked_below } => {
                out.push(3);
                acked_below.encode(out);
            }
            ServeMsg::Pong => out.push(4),
            ServeMsg::Reconfig { dead } => {
                out.push(5);
                dead.encode(out);
            }
            ServeMsg::Sync { key, val, ver } => {
                out.push(6);
                key.encode(out);
                val.encode(out);
                ver.encode(out);
            }
            ServeMsg::Stop => out.push(7),
            ServeMsg::Entry { key, val, ver } => {
                out.push(8);
                key.encode(out);
                val.encode(out);
                ver.encode(out);
            }
            ServeMsg::Done { ops } => {
                out.push(9);
                ops.encode(out);
            }
            ServeMsg::Exit => out.push(10),
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&disc, rest) = buf.split_first()?;
        *buf = rest;
        Some(match disc {
            0 => ServeMsg::Op {
                id: u64::decode(buf)?,
                op: ShardOp::decode(buf)?,
                backup: u32::decode(buf)?,
            },
            1 => ServeMsg::Fwd {
                id: u64::decode(buf)?,
                cmd: ApplyCmd::decode(buf)?,
                reply: Reply::decode(buf)?,
            },
            2 => ServeMsg::Ack {
                id: u64::decode(buf)?,
                reply: Reply::decode(buf)?,
            },
            3 => ServeMsg::Ping {
                acked_below: u64::decode(buf)?,
            },
            4 => ServeMsg::Pong,
            5 => ServeMsg::Reconfig {
                dead: u32::decode(buf)?,
            },
            6 => ServeMsg::Sync {
                key: String::decode(buf)?,
                val: String::decode(buf)?,
                ver: u64::decode(buf)?,
            },
            7 => ServeMsg::Stop,
            8 => ServeMsg::Entry {
                key: String::decode(buf)?,
                val: String::decode(buf)?,
                ver: u64::decode(buf)?,
            },
            9 => ServeMsg::Done {
                ops: u64::decode(buf)?,
            },
            10 => ServeMsg::Exit,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------
// Shard child process
// ---------------------------------------------------------------------

/// A shard's key → (value, version) map.
type Store = BTreeMap<String, (String, u64)>;

/// Apply a chained (absolute) command; replicas stay bit-identical to
/// the primary because nothing is recomputed.
fn apply_cmd(store: &mut Store, cmd: &ApplyCmd) {
    match cmd {
        ApplyCmd::Set { key, val, ver } => {
            store.insert(key.clone(), (val.clone(), *ver));
        }
        ApplyCmd::Del { key } => {
            store.remove(key);
        }
    }
}

/// A shard's retry memo: the result of each mutating op it applied, as
/// primary or backup, keyed by op id, for ids at or above a floor that
/// only rises.
///
/// At or above the floor, a retried `Op` re-ships its memoized result
/// and a repeated `Fwd` re-acks without applying again. Below it the
/// memo keeps nothing: an `Op` or `Fwd` there is a stale duplicate that
/// applies nothing and sends nothing. The front end raises the floor to
/// its acked watermark on every `Ping`, and this is why that is safe:
///
/// * an id is below the watermark only once the tail of the last chain
///   the front end sent it down has acked it, so both replicas of that
///   chain applied it. An ack from an older chain's tail is not enough:
///   the op's retry may still be on its way to the new backup, which
///   must apply it (the front end's `Tier::ack`);
/// * the front end never sends that id again;
/// * each front end → shard link is FIFO, so a retry sent before the
///   `Ping` arrives ahead of it;
/// * a chain changes only when one of its ranks dies, so each older
///   chain of the id lost its primary or its backup, and the last
///   chain's primary forwards the id to its tail once. What can still
///   carry the id is a dead primary's `Fwd` already sitting in a socket
///   buffer. While its entry lives, the memo stops that `Fwd` from
///   overwriting a newer value; once the entry is trimmed, the floor
///   must stop it instead.
///
/// The counts are the shard's `serve.primary_ops`, `serve.replica_ops`,
/// `serve.stale_dropped`, `serve.memo_trimmed` and `serve.memo_peak`.
/// Each of the first two counts the entries one method inserted, so
/// once a watermark has passed every id,
/// `trimmed == primary_ops + replica_ops`; `peak` is the most entries
/// the memo ever held at once.
#[derive(Default)]
struct Memo {
    floor: u64,
    entries: BTreeMap<u64, (ApplyCmd, Reply)>,
    primary_ops: u64,
    replica_ops: u64,
    stale_dropped: u64,
    trimmed: u64,
    peak: u64,
}

impl Memo {
    /// Op `id` at its primary: apply `op` once and return the result to
    /// chain or ack; a retry gets the memoized result back. `None` below
    /// the floor.
    fn primary(&mut self, id: u64, store: &mut Store, op: &ShardOp) -> Option<(ApplyCmd, Reply)> {
        if id < self.floor {
            self.stale_dropped += 1;
            return None;
        }
        let result = self.entries.entry(id).or_insert_with(|| {
            self.primary_ops += 1;
            apply_at_primary(store, op)
        });
        let result = result.clone();
        self.peak = self.peak.max(self.entries.len() as u64);
        Some(result)
    }

    /// Chained result `id` at a backup: apply `cmd` once and return the
    /// reply to ack with; a repeated forward is re-acked without a
    /// second apply. `None` below the floor.
    fn replica(
        &mut self,
        id: u64,
        store: &mut Store,
        cmd: ApplyCmd,
        reply: Reply,
    ) -> Option<Reply> {
        if id < self.floor {
            self.stale_dropped += 1;
            return None;
        }
        if let std::collections::btree_map::Entry::Vacant(slot) = self.entries.entry(id) {
            apply_cmd(store, &cmd);
            slot.insert((cmd, reply.clone()));
            self.replica_ops += 1;
        }
        self.peak = self.peak.max(self.entries.len() as u64);
        Some(reply)
    }

    /// Raise the floor to `acked_below` and drop every entry below it. A
    /// watermark at or below the floor changes nothing.
    fn trim(&mut self, acked_below: u64) {
        if acked_below <= self.floor {
            return;
        }
        self.floor = acked_below;
        let kept = self.entries.split_off(&acked_below);
        self.trimmed += std::mem::replace(&mut self.entries, kept).len() as u64;
    }
}

/// What a shard asks of its process: send a message to a world rank,
/// or put every queued frame on the wire before anything sent after.
enum ShardOut {
    Send(usize, ServeMsg),
    Flush,
}

/// The entry point a serve child process runs: one shard rank, serving
/// until told to exit. Call this from a binary's dispatch on
/// [`pdc_mpi::WireWorld::child_world_id`]. Never returns.
///
/// # Panics
/// Panics if the child env markers are missing (i.e. called in a
/// process that is not a spawned wire child).
pub fn run_shard_child() -> ! {
    let env = take_child_env().expect("serve shard: not a wire child process");
    let rank = env.rank;
    let transport: WireTransport<ServeMsg> =
        WireTransport::connect_env(&env).expect("serve shard: connect to front end");

    // Per-process session; capacity raised well past the default — a
    // loaded shard records several events per op and dropped events
    // would poison the merged causal order.
    let session = env.trace_dir.as_ref().map(|_| {
        let s = TraceSession::with_capacity(1 << 17);
        (s.thread(rank as u32), s)
    });
    let record = |kind: EventKind, peer: usize, msg: &ServeMsg| {
        if let Some((t, _)) = &session {
            t.record(kind, peer as u64, msg.size_bytes());
        }
    };
    let mut io = |out: ShardOut| match out {
        ShardOut::Send(dst, msg) => {
            record(EventKind::Send, dst, &msg);
            // A failed send to a dead sibling (chain partner
            // mid-failover) is dropped: the front end's failure
            // detection owns the promotion and will retry the op on the
            // new chain. A dead *front end* means nothing to serve and
            // nobody to tell.
            if transport.try_send(rank, dst, TAG_SERVE, msg).is_err() && dst == 0 {
                std::process::exit(1);
            }
        }
        ShardOut::Flush => transport.flush_pending(),
    };

    let mut shard = Shard::new(rank, env.procs - 1);
    while !shard.exited {
        // Front end died (or corrupted the stream): there is no world
        // left to serve. Exit loudly.
        let envl = transport
            .try_recv()
            .unwrap_or_else(|_| std::process::exit(1));
        record(EventKind::Recv, envl.src, &envl.msg);
        shard.handle(envl.msg, &mut io);
    }
    // Collect in-flight sibling traffic before leaving the world: on the
    // mesh a peer's Sync rides a different connection than the parent's
    // Exit, so "Exit received" does not order it. Apply (and
    // trace-record) whatever already landed so merged send/recv pairs
    // stay matched.
    for envl in transport.drain_pending() {
        record(EventKind::Recv, envl.src, &envl.msg);
        shard.handle(envl.msg, &mut io);
    }
    if let Some((_, s)) = &session {
        let memo = &shard.memo;
        for (name, n) in [
            ("serve.primary_ops", memo.primary_ops),
            ("serve.replica_ops", memo.replica_ops),
            ("serve.stale_dropped", memo.stale_dropped),
            ("serve.memo_trimmed", memo.trimmed),
            ("serve.memo_peak", memo.peak),
            ("serve.rebalanced_keys", shard.synced),
        ] {
            s.counter(name).add(n);
        }
        env.write_trace(s);
    }
    std::process::exit(0);
}

/// One shard's protocol state: its view of the ring, its store and its
/// retry memo. [`run_shard_child`] feeds it every message and carries
/// out what it asks for; a test can drive it with no process at all.
struct Shard {
    /// World rank, for panic messages.
    rank: usize,
    /// This shard's ring node (`rank - 1`).
    node: u64,
    ring: HashRing,
    store: Store,
    memo: Memo,
    /// Bindings received by `Sync` (`serve.rebalanced_keys`).
    synced: u64,
    /// `Exit` arrived: only a peer's in-flight `Sync` still applies.
    exited: bool,
}

impl Shard {
    /// World rank `rank` of a tier of `shards` shards, before any op.
    fn new(rank: usize, shards: usize) -> Shard {
        Shard {
            rank,
            node: (rank - 1) as u64,
            ring: shard_ring(shards),
            store: Store::new(),
            memo: Memo::default(),
            synced: 0,
            exited: false,
        }
    }

    /// Handle one message, asking the process through `io` for what it
    /// calls for.
    fn handle(&mut self, msg: ServeMsg, io: &mut impl FnMut(ShardOut)) {
        if self.exited && !matches!(msg, ServeMsg::Sync { .. }) {
            return;
        }
        match msg {
            ServeMsg::Ping { acked_below } => {
                self.memo.trim(acked_below);
                io(ShardOut::Send(0, ServeMsg::Pong));
            }
            ServeMsg::Op { id, op, backup } => match &op {
                // GETs are idempotent and never chained: answer from
                // the primary's store.
                ShardOp::Get { key } => {
                    let reply = Reply::Got(self.store.get(key).cloned());
                    io(ShardOut::Send(0, ServeMsg::Ack { id, reply }));
                }
                _ => {
                    if let Some((cmd, reply)) = self.memo.primary(id, &mut self.store, &op) {
                        io(if backup != NO_BACKUP {
                            ShardOut::Send(backup as usize, ServeMsg::Fwd { id, cmd, reply })
                        } else {
                            ShardOut::Send(0, ServeMsg::Ack { id, reply })
                        });
                    }
                }
            },
            // Acked ⇔ applied at the tail: apply before acking.
            ServeMsg::Fwd { id, cmd, reply } => {
                if let Some(reply) = self.memo.replica(id, &mut self.store, cmd, reply) {
                    io(ShardOut::Send(0, ServeMsg::Ack { id, reply }));
                }
            }
            ServeMsg::Reconfig { dead } => {
                let old = self.ring.clone();
                self.ring.remove_node((dead - 1) as u64);
                // Re-derive ownership under the shrunk ring: for every
                // key this shard now fronts, copy the binding to any
                // backup the new ring assigns that the old ring didn't.
                for (key, (val, ver)) in &self.store {
                    let group = self.ring.nodes_for(key, 2);
                    if group.first() != Some(&self.node) {
                        continue;
                    }
                    let old_group = old.nodes_for(key, 2);
                    for nb in &group[1..] {
                        if !old_group.contains(nb) {
                            let sync = ServeMsg::Sync {
                                key: key.clone(),
                                val: val.clone(),
                                ver: *ver,
                            };
                            io(ShardOut::Send((*nb + 1) as usize, sync));
                        }
                    }
                }
            }
            ServeMsg::Sync { key, val, ver } => {
                // FIFO from the sending primary orders this before any
                // later chained write to the same key, so an absolute
                // overwrite is safe.
                self.store.insert(key, (val, ver));
                self.synced += 1;
            }
            ServeMsg::Stop => {
                // Drain the write queues first: any Sync queued to a
                // sibling during Reconfig must be on the wire before
                // Done tells the front end this shard is settled —
                // otherwise Exit can reach the sibling ahead of the
                // Sync and the frame dies in our queue.
                io(ShardOut::Flush);
                // Report only keys this shard is primary for under its
                // ring: every survivor derived the same ring, so the
                // reports partition the key space. A death during the
                // drain brings a Reconfig, then another Stop.
                for (key, (val, ver)) in &self.store {
                    if self.ring.nodes_for(key, 2).first() == Some(&self.node) {
                        let entry = ServeMsg::Entry {
                            key: key.clone(),
                            val: val.clone(),
                            ver: *ver,
                        };
                        io(ShardOut::Send(0, entry));
                    }
                }
                let ops = self.memo.primary_ops;
                io(ShardOut::Send(0, ServeMsg::Done { ops }));
                // Keep serving Syncs until Exit — a peer's rebalance
                // may still be in flight.
            }
            ServeMsg::Exit => self.exited = true,
            other => panic!("serve shard {}: unexpected {other:?}", self.rank),
        }
    }
}

/// Apply a mutating op at its primary: the absolute command the chain
/// replicates, and the client-visible reply.
fn apply_at_primary(store: &mut Store, op: &ShardOp) -> (ApplyCmd, Reply) {
    let key = op.key().to_string();
    match (apply_op(store, op), op) {
        (Applied::Put(ver), ShardOp::Put { val, .. }) => (
            ApplyCmd::Set {
                key,
                val: val.clone(),
                ver,
            },
            Reply::PutOk(ver),
        ),
        (Applied::Del(hit), _) => (
            ApplyCmd::Del { key },
            if hit { Reply::DelOk } else { Reply::DelMiss },
        ),
        (applied, op) => unreachable!("{op:?} applied as {applied:?} at the primary"),
    }
}

// ---------------------------------------------------------------------
// Front end (rank 0, in-process)
// ---------------------------------------------------------------------

/// How to run the serving tier.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Shard process count (world ranks 1..=shards; ring nodes
    /// 0..shards). Needs >= 2 for replication to mean anything.
    pub shards: usize,
    /// How shard children re-enter [`run_shard_child`] (procs must
    /// equal `shards`); `trace_dir` here turns on per-process traces
    /// and the merged `pdc-trace/3` snapshot in the outcome.
    pub wire: WireOptions,
    /// Heartbeat ping cadence; [`start`] refuses a zero interval.
    pub hb_interval: Duration,
    /// Silent intervals before a shard is declared dead.
    pub hb_timeout: u64,
}

impl ServeOptions {
    /// Defaults: 25ms pings, death after 40 silent intervals (1s).
    pub fn new(shards: usize, wire: WireOptions) -> ServeOptions {
        assert_eq!(wire.procs, shards, "wire.procs spawns the shard ranks");
        ServeOptions {
            shards,
            wire,
            hb_interval: Duration::from_millis(25),
            hb_timeout: 40,
        }
    }
}

/// A shard the front end declared dead.
#[derive(Debug, Clone)]
pub struct DeadShard {
    /// Its world rank.
    pub rank: usize,
    /// The transport-level evidence, when the death surfaced through a
    /// broken connection; `None` for a pure heartbeat timeout, and for
    /// a late death: a shard that exited unsuccessfully after its drain
    /// report, seen only in its exit status at teardown. A late death
    /// comes last in [`ServeOutcome::dead`], and the outcome is still
    /// complete: the shard's keys were in its report.
    pub error: Option<TransportError>,
}

/// What a finished serve run hands back.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Union of the survivors' primary-owned keys, sorted.
    pub state: KvState,
    /// Every acknowledged op, in the order the tier acked them (per key,
    /// id order) — replaying the mutating ones through
    /// [`crate::sharded::apply_script`] must reproduce `state` exactly
    /// (the zero-lost-acked-writes invariant).
    pub acked: Vec<(u64, ShardOp)>,
    /// Backup promotions performed (`serve.promotions`).
    pub promotions: u64,
    /// Unacknowledged ops re-sent after a death (`serve.retries`).
    pub retries: u64,
    /// Shards declared dead, in detection order.
    pub dead: Vec<DeadShard>,
    /// Client connections that failed mid-request (`kv.conn_errors`).
    pub conn_errors: u64,
    /// Data frames the hub relayed between shards: always 0, the
    /// witness that chain hops go peer-direct (the hub never relays).
    /// Kept so callers can keep asserting it.
    pub hub_forwarded: u64,
    /// Merged per-process traces (front end = process 0), when the
    /// wire options were traced.
    pub trace: Option<MergedTrace>,
}

/// Control messages from the owner to the front-end thread.
enum ServeCtl {
    /// Kill a shard process (fault injection).
    Kill(usize),
    /// SIGSTOP a shard process (fault injection: silent hang — sockets
    /// stay open, only the heartbeat detector can see it).
    Pause(usize),
    /// Drain and stop.
    Shutdown,
}

/// A running serve world: shards spawned, front end accepting.
pub struct ServeHandle {
    addr: SocketAddr,
    ctl: Sender<ServeCtl>,
    join: Option<JoinHandle<ServeOutcome>>,
}

impl ServeHandle {
    /// Where clients connect (kv_tcp line protocol: GET/PUT/DEL/QUIT).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Kill shard `rank`'s process mid-run (SIGKILL). The front end
    /// observes the death like any real crash.
    pub fn kill_shard(&self, rank: usize) {
        self.ctl.send(ServeCtl::Kill(rank)).expect("serve ctl gone");
    }

    /// Freeze shard `rank` mid-run (SIGSTOP): its sockets stay open, so
    /// only the heartbeat detector can declare it dead — the fault
    /// shape that exercises the detector-vs-socket dedup. Follow up
    /// with [`ServeHandle::kill_shard`] before [`ServeHandle::finish`];
    /// a stopped process never exits and would hang the teardown.
    pub fn pause_shard(&self, rank: usize) {
        self.ctl
            .send(ServeCtl::Pause(rank))
            .expect("serve ctl gone");
    }

    /// Drain in-flight ops, collect the shards' state, tear the world
    /// down, and return the outcome.
    ///
    /// # Panics
    /// Panics if the front-end thread panicked (protocol violation,
    /// total shard loss, or a stalled drain).
    pub fn finish(mut self) -> ServeOutcome {
        self.ctl.send(ServeCtl::Shutdown).expect("serve ctl gone");
        self.join
            .take()
            .expect("finish called once")
            .join()
            .expect("serve front end panicked")
    }
}

/// Start the serving tier: spawn `opts.shards` shard processes, bind a
/// client listener on an ephemeral loopback port, and run the front-end
/// sweep loop on its own thread. Counters (`serve.promotions`,
/// `serve.retries`, `serve.acked_ops`, `serve.heartbeat_timeouts`,
/// `kv.conn_errors`; the loop's own `serve.fe_polls`, and the client
/// reads and accepts that found nothing, `serve.fe_empty_reads` and
/// `serve.fe_empty_accepts`) and the front end's send/recv events
/// (actor 0) are published into `session`.
///
/// Call sites must dispatch re-executed children to
/// [`run_shard_child`] via [`pdc_mpi::WireWorld::child_world_id`]
/// before calling this.
///
/// # Errors
/// `InvalidInput` if `opts.hb_interval` is zero; otherwise whatever
/// binding the listener or spawning the shards returns.
///
/// # Panics
/// Panics if `opts.shards < 2` (no replication without a backup).
pub fn start(opts: ServeOptions, session: &TraceSession) -> std::io::Result<ServeHandle> {
    assert!(opts.shards >= 2, "replication needs at least two shards");
    if opts.hb_interval.is_zero() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "serve: hb_interval must be positive",
        ));
    }
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let hub: WireHub<ServeMsg> = WireHub::spawn(&opts.wire)?;
    let (ctl_tx, ctl_rx) = channel();
    let session = session.clone();
    let join = std::thread::spawn(move || front_end(opts, listener, hub, ctl_rx, &session));
    Ok(ServeHandle {
        addr,
        ctl: ctl_tx,
        join: Some(join),
    })
}

/// The front end's driver: sockets, `poll(2)`, the clock and trace
/// events around the [`Tier`] core, which decides everything else.
fn front_end(
    opts: ServeOptions,
    listener: TcpListener,
    mut hub: WireHub<ServeMsg>,
    ctl: Receiver<ServeCtl>,
    session: &TraceSession,
) -> ServeOutcome {
    let tracer = opts.wire.trace_dir.is_some().then(|| session.thread(0));
    let conn_errors = session.counter("kv.conn_errors");
    let polls = session.counter("serve.fe_polls");
    let empty_reads = session.counter("serve.fe_empty_reads");
    let empty_accepts = session.counter("serve.fe_empty_accepts");
    let mut tier = Tier::new(opts.shards, opts.hb_interval, opts.hb_timeout, session);
    // Each client beside what the hub polls its socket for.
    let mut conns: BTreeMap<u64, (LineConn, Option<Interest>)> = BTreeMap::new();
    let mut ready = Vec::new();
    let start = Instant::now();
    let hb_nanos = opts.hb_interval.as_nanos();

    // One poller for the whole tier: shard connections are the hub's
    // own; the client listener and every client socket are registered
    // beside them. Each pass makes one poll(2) and touches only what it
    // reported: it accepts when the listener is readable, reads the
    // client sockets it named, and takes the shard frames the same sweep
    // queued. Level-triggered, so whatever a pass leaves in the kernel
    // is reported again.
    const LISTENER_TOKEN: u64 = u64::MAX;
    hub.register_client(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE);

    while !tier.finished() {
        while let Ok(c) = ctl.try_recv() {
            match c {
                ServeCtl::Kill(rank) => drop(hub.kill(rank)),
                ServeCtl::Pause(rank) => drop(hub.pause(rank)),
                ServeCtl::Shutdown => {
                    tier.shutdown();
                    // A connection left waiting would keep the listener
                    // readable, and every poll would return at once.
                    hub.deregister_client(LISTENER_TOKEN);
                }
            }
        }
        let shutting_down = tier.phase != Phase::Serving;
        // Every pass takes every line its reads buffered, so the only
        // work that can be pending here is a queued hub event, which
        // makes the pump return at once. Otherwise it blocks; the 2 ms
        // bound keeps heartbeat ticks and control messages on schedule
        // with no traffic at all.
        hub.pump(Duration::from_millis(2), &mut ready);
        polls.inc();
        let hub = &hub;
        let out = &mut |o: Out| match o {
            Out::Send(dst, msg) => {
                if let Some(t) = &tracer {
                    t.record(EventKind::Send, dst as u64, msg.size_bytes());
                }
                // Err means the writer is already gone; the Down event
                // owns the accounting and the retry.
                let _ = hub.send(dst, TAG_SERVE, &msg);
            }
            Out::Claim(rank) => drop(hub.report_dead(rank)),
        };

        for ev in &ready {
            let cid = ev.token as u64;
            if cid == LISTENER_TOKEN {
                // A failed accept is already counted in kv.conn_errors.
                match accept_ready(&listener, &conn_errors) {
                    Ok(Some(conn)) => drop(conns.insert(tier.connect(), (conn, None))),
                    Ok(None) => empty_accepts.inc(),
                    Err(_) => {}
                }
                continue;
            }
            let Some((conn, _)) = conns.get_mut(&cid) else {
                continue;
            };
            if ev.writable {
                conn.flush(shutting_down);
            }
            if ev.readable {
                if conn.fill(shutting_down) {
                    empty_reads.inc();
                }
                while let Some(line) = conn.next_line(shutting_down) {
                    tier.line(cid, line, out);
                }
            }
        }
        while let Some(ev) = hub.pop_event() {
            match ev {
                HubEvent::Msg(envl) => {
                    if let Some(t) = &tracer {
                        t.record(EventKind::Recv, envl.src as u64, envl.msg.size_bytes());
                    }
                    tier.msg(envl.src, envl.msg, out);
                }
                HubEvent::Down { rank, error } => tier.death(rank, Some(error), out),
                HubEvent::Result { .. } => {}
            }
        }
        tier.tick((start.elapsed().as_nanos() / hb_nanos) as u64, out);
        tier.replies(|cid, text| {
            if let Some((conn, _)) = conns.get_mut(&cid) {
                conn.reply(&text, shutting_down);
            }
        });
        conns.retain(|&cid, (conn, watched)| {
            conn.flush(shutting_down);
            let done = conn.is_done() && !tier.owes(cid);
            if done {
                hub.deregister_client(cid);
                tier.hangup(cid, out);
            } else if conn.interest() != *watched {
                // Readable until the connection is closing (an EOF'd
                // socket would poll readable forever), writable while a
                // reply waits for room.
                *watched = conn.interest();
                match *watched {
                    Some(interest) => hub.register_client(conn.fd(), cid, interest),
                    None => hub.deregister_client(cid),
                }
            }
            !done
        });
    }

    // The front end's own slice of the merged trace is process 0.
    let (statuses, trace) = hub.shutdown(Some(session));
    record_late_deaths(&mut tier.dead, &statuses);
    ServeOutcome {
        state: tier.state.into_iter().collect(),
        acked: tier.acked,
        promotions: tier.promotions.get(),
        retries: tier.retries,
        dead: tier.dead,
        conn_errors: conn_errors.get(),
        hub_forwarded: 0,
        trace,
    }
}

/// Teardown: a rank outside `dead` that did not exit 0 died after its
/// drain report (say, killed between its `Done` and `Exit`). The drain
/// already has its keys, so it joins `dead` as a late death, in rank
/// order, with no transport evidence.
fn record_late_deaths(dead: &mut Vec<DeadShard>, statuses: &[Option<ExitStatus>]) {
    for (rank, status) in statuses.iter().enumerate() {
        if status.is_some_and(|s| !s.success()) && !dead.iter().any(|d| d.rank == rank) {
            dead.push(DeadShard { rank, error: None });
        }
    }
}

/// What the [`Tier`] core asks of its driver, in order: send a message
/// to a shard's world rank, or claim a shard's death in the hub, so a
/// second signal for the same crash never comes back as a `Down`.
enum Out {
    Send(usize, ServeMsg),
    Claim(usize),
}

/// A reply owed to a client, in request order: `Pending` until the chain
/// acks op `id`.
enum Slot {
    Pending(u64),
    Ready(String),
}

/// An op sent to the shard tier and not yet acked.
struct PendingOp {
    conn: u64,
    op: ShardOp,
    primary: usize,
    backup: u32,
}

impl PendingOp {
    /// The world rank whose ack completes the op on its current chain:
    /// the backup, or the primary for a GET or a chain of one.
    fn tail(&self) -> usize {
        if matches!(self.op, ShardOp::Get { .. }) || self.backup == NO_BACKUP {
            self.primary
        } else {
            self.backup as usize
        }
    }
}

/// Where the front end is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Serving,
    /// Serve every open connection to its end, then stop.
    Draining,
    /// `Stop` sent: collecting each survivor's report.
    Reporting,
    /// Every survivor reported and was sent `Exit`.
    Finished,
}

/// How long a drain may take, from `Shutdown`, before the front end
/// declares it stalled.
const DRAIN_LIMIT: Duration = Duration::from_secs(300);

/// The front end's protocol as a state machine with no socket and no
/// clock. Its inputs are a client line on a connection, a shard
/// message, a death, a heartbeat tick and shutdown; it asks for sends
/// and death claims through a callback, and hands each connection's
/// ready replies to [`Tier::replies`]. [`front_end`] drives it over
/// sockets; the tests' `Sim` over in-memory links.
struct Tier {
    ring: HashRing,
    monitor: HeartbeatMonitor,
    pending: BTreeMap<u64, PendingOp>,
    /// Ops acked by the tail of a chain a death replaced, whose retry
    /// the new chain has not acked yet: id → (primary, tail) of the
    /// chain the retry went down. The client has its reply, but the new
    /// tail may still be waiting for the retry's `Fwd`, so each id here
    /// holds the watermark down (see [`Memo`]).
    retrying: BTreeMap<u64, (usize, usize)>,
    /// Connections not yet hung up, each with the replies it is owed,
    /// in request order; only a `Ready` prefix goes out.
    conns: BTreeMap<u64, VecDeque<Slot>>,
    next_conn: u64,
    next_id: u64,
    acked: Vec<(u64, ShardOp)>,
    dead: Vec<DeadShard>,
    retries: u64,
    /// The latest tick, and the tick of the latest ping.
    now: u64,
    pinged: u64,
    /// [`DRAIN_LIMIT`] in ticks, and the tick of `Shutdown`.
    stall_ticks: u64,
    drain_since: u64,
    phase: Phase,
    /// By world rank: the `Done`s it still owes, one per `Stop`.
    owed: Vec<u32>,
    /// The latest report round's entries.
    state: Store,
    promotions: Counter,
    retries_ctr: Counter,
    acked_ctr: Counter,
    hb_timeouts: Counter,
}

impl Tier {
    /// A tier of `shards` live shards (world ranks `1..=shards`), ticking
    /// once per `hb_interval`, each shard declared dead after
    /// `hb_timeout` silent ticks. Counters publish into `session`.
    fn new(shards: usize, hb_interval: Duration, hb_timeout: u64, session: &TraceSession) -> Tier {
        let mut monitor = HeartbeatMonitor::new(hb_timeout);
        for r in 1..=shards {
            monitor.register(r, 0);
        }
        Tier {
            ring: shard_ring(shards),
            monitor,
            pending: BTreeMap::new(),
            retrying: BTreeMap::new(),
            conns: BTreeMap::new(),
            next_conn: 0,
            next_id: 1,
            acked: Vec::new(),
            dead: Vec::new(),
            retries: 0,
            now: 0,
            pinged: 0,
            stall_ticks: (DRAIN_LIMIT.as_nanos() / hb_interval.as_nanos()) as u64,
            drain_since: 0,
            phase: Phase::Serving,
            owed: vec![0; shards + 1],
            state: Store::new(),
            promotions: session.counter("serve.promotions"),
            retries_ctr: session.counter("serve.retries"),
            acked_ctr: session.counter("serve.acked_ops"),
            hb_timeouts: session.counter("serve.heartbeat_timeouts"),
        }
    }

    /// A client connected; returns its id.
    fn connect(&mut self) -> u64 {
        let conn = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(conn, VecDeque::new());
        conn
    }

    /// A request line from connection `conn`: an op goes to its primary,
    /// anything else is answered here, in request order either way. The
    /// driver sends no line after `QUIT` (see [`LineConn::next_line`]).
    fn line(&mut self, conn: u64, line: Line, out: &mut impl FnMut(Out)) {
        let replies = self.conns.get_mut(&conn).expect("a connected client");
        let op = match route_line(line) {
            Ok(op) => op,
            Err(reply) => return replies.push_back(Slot::Ready(reply)),
        };
        let id = self.next_id;
        self.next_id += 1;
        replies.push_back(Slot::Pending(id));
        let (primary, backup) = targets(&self.ring, op.key());
        let msg = ServeMsg::Op {
            id,
            op: op.clone(),
            backup,
        };
        out(Out::Send(primary, msg));
        self.pending.insert(
            id,
            PendingOp {
                conn,
                op,
                primary,
                backup,
            },
        );
    }

    /// A message from shard `src`. A rank already declared dead is not
    /// heard: its ops went down new chains, and a report round without
    /// it began.
    fn msg(&mut self, src: usize, msg: ServeMsg, out: &mut impl FnMut(Out)) {
        if self.monitor.is_dead(src) {
            return;
        }
        self.monitor.heard(src, self.now);
        match msg {
            ServeMsg::Ack { id, reply } => {
                // A duplicate ack (original chain + retry both
                // completing) completes nothing: acked exactly once.
                if let Some(p) = self.ack(id, src) {
                    self.acked.push((id, p.op));
                    self.acked_ctr.inc();
                    if let Some(replies) = self.conns.get_mut(&p.conn) {
                        fill_slot(replies, id, render(&reply.into()));
                    }
                }
            }
            ServeMsg::Pong => {}
            // A survivor owing two `Done`s is still sending the older
            // round's report: only the latest round counts.
            ServeMsg::Entry { key, val, ver } => {
                if self.owed[src] == 1 {
                    let prev = self.state.insert(key, (val, ver));
                    assert!(prev.is_none(), "two shards reported the same key");
                }
            }
            ServeMsg::Done { .. } => {
                let owed = self.owed[src].checked_sub(1);
                self.owed[src] = owed.expect("serve front end: a Done with no Stop");
            }
            other => panic!("serve front end: unexpected {other:?}"),
        }
        self.advance(out);
    }

    /// Shard `rank` died: its connection broke with `error`, or a
    /// heartbeat detector outside the core says so (`None`). A rank
    /// already dead, or a finished tier, has nothing to add.
    fn death(&mut self, rank: usize, error: Option<TransportError>, out: &mut impl FnMut(Out)) {
        if !self.monitor.is_dead(rank) && !self.finished() {
            self.fail(rank, error, out);
        }
    }

    /// The clock reads `now` ticks (heartbeat intervals): once per tick
    /// until `Stop`, ping every survivor with the acked watermark and
    /// declare the silent dead; a drain past [`DRAIN_LIMIT`] panics.
    fn tick(&mut self, now: u64, out: &mut impl FnMut(Out)) {
        self.now = now;
        if matches!(self.phase, Phase::Draining | Phase::Reporting) {
            assert!(
                now - self.drain_since <= self.stall_ticks,
                "serve front end stalled: {} pending, {} retrying, {} conns, {:?}",
                self.pending.len(),
                self.retrying.len(),
                self.conns.len(),
                self.phase
            );
        }
        if now > self.pinged && matches!(self.phase, Phase::Serving | Phase::Draining) {
            self.pinged = now;
            let acked_below = self.acked_below();
            for r in self.monitor.alive() {
                out(Out::Send(r, ServeMsg::Ping { acked_below }));
            }
            for r in self.monitor.expired(now) {
                self.hb_timeouts.inc();
                self.fail(r, None, out);
            }
        }
        self.advance(out);
    }

    /// Take no new client; stop once every client has left and every
    /// op is settled.
    fn shutdown(&mut self) {
        if self.phase == Phase::Serving {
            self.phase = Phase::Draining;
            self.drain_since = self.now;
        }
    }

    /// Hand each connection's ready replies to `out`, in request order.
    fn replies(&mut self, mut out: impl FnMut(u64, String)) {
        for (&conn, replies) in &mut self.conns {
            while let Some(Slot::Ready(_)) = replies.front() {
                if let Some(Slot::Ready(text)) = replies.pop_front() {
                    out(conn, text);
                }
            }
        }
    }

    /// Connection `conn` is still owed a reply.
    fn owes(&self, conn: u64) -> bool {
        self.conns.get(&conn).is_some_and(|r| !r.is_empty())
    }

    /// Connection `conn` is gone, owed nothing: forget it.
    fn hangup(&mut self, conn: u64, out: &mut impl FnMut(Out)) {
        self.conns.remove(&conn);
        self.advance(out);
    }

    /// `Exit` is sent: the outcome is final.
    fn finished(&self) -> bool {
        self.phase == Phase::Finished
    }

    /// Take the drain step the state allows: `Stop` to every survivor
    /// once every client has left and nothing is pending, `Exit` once
    /// every survivor has reported its latest round.
    fn advance(&mut self, out: &mut impl FnMut(Out)) {
        match self.phase {
            Phase::Draining if self.settled() && self.conns.is_empty() => {
                self.phase = Phase::Reporting;
                self.report_round(out);
            }
            Phase::Reporting if self.monitor.alive().all(|r| self.owed[r] == 0) => {
                // Exit after every report, so any cross-shard Syncs have
                // landed (see ServeMsg::Exit).
                for r in self.monitor.alive() {
                    out(Out::Send(r, ServeMsg::Exit));
                }
                self.phase = Phase::Finished;
            }
            _ => {}
        }
    }

    /// Ask every survivor to report the keys it is primary for, and
    /// forget any earlier round's entries.
    fn report_round(&mut self, out: &mut impl FnMut(Out)) {
        self.state.clear();
        for r in self.monitor.alive() {
            self.owed[r] += 1;
            out(Out::Send(r, ServeMsg::Stop));
        }
    }

    /// The acked watermark: the oldest id that is pending or
    /// `retrying`, or the next id when there is none. Every id below it
    /// was acked by the tail of the last chain it was sent down, and
    /// retries re-send only pending ops, so no id below it is sent
    /// again.
    fn acked_below(&self) -> u64 {
        let oldest = |ids: Option<&u64>| ids.copied().unwrap_or(u64::MAX);
        self.next_id
            .min(oldest(self.pending.keys().next()))
            .min(oldest(self.retrying.keys().next()))
    }

    /// Nothing pending and no retry unacked: the tier may stop.
    fn settled(&self) -> bool {
        self.pending.is_empty() && self.retrying.is_empty()
    }

    /// Op `id` acked by world rank `src`. The first ack completes the
    /// op and returns it, to answer its client. If that ack came from an
    /// older chain's tail, the op waits in `retrying` for its current
    /// tail's ack, which takes it out; any other repeat changes nothing.
    fn ack(&mut self, id: u64, src: usize) -> Option<PendingOp> {
        let Some(p) = self.pending.remove(&id) else {
            if self.retrying.get(&id).is_some_and(|&(_, tail)| tail == src) {
                self.retrying.remove(&id);
            }
            return None;
        };
        if src != p.tail() {
            self.retrying.insert(id, (p.primary, p.tail()));
        }
        Some(p)
    }

    /// World rank `rank` is dead: claim the death, count the promotion,
    /// shrink the ring, and send what follows, in order — a `Reconfig`
    /// to every survivor, then a retry of every pending op whose chain
    /// included the dead rank, in id order, down its new chain. During
    /// the report, the survivors may have reported under the old ring,
    /// which leaves the dead rank's keys out: each link is FIFO, so a
    /// `Stop` behind the `Reconfig` starts a round under the new ring,
    /// and what a survivor sends after its previous `Done` is that round.
    fn fail(&mut self, rank: usize, error: Option<TransportError>, out: &mut impl FnMut(Out)) {
        // Claim the death inside the hub first: if this verdict came
        // from the heartbeat detector, the socket-level EOF that follows
        // for the same crash is suppressed at the source.
        out(Out::Claim(rank));
        self.monitor.mark_dead(rank);
        self.dead.push(DeadShard { rank, error });
        assert!(
            self.monitor.alive().next().is_some(),
            "every shard died; nothing left to serve"
        );
        // The dead rank fronted part of the ring; its backups take over.
        self.promotions.inc();
        self.ring.remove_node((rank - 1) as u64);
        for r in self.monitor.alive() {
            out(Out::Send(r, ServeMsg::Reconfig { dead: rank as u32 }));
        }
        // A retry whose chain lost a rank will never be acked, and its
        // client already has its reply: stop waiting for it.
        self.retrying
            .retain(|_, &mut (primary, tail)| primary != rank && tail != rank);
        // Re-send unacked ops whose chain included the dead rank. Id
        // order preserves per-key apply order at the new primary;
        // shard-side memoization absorbs ops the survivors already
        // applied.
        for (&id, p) in &mut self.pending {
            if p.primary == rank || p.backup == rank as u32 {
                (p.primary, p.backup) = targets(&self.ring, p.op.key());
                self.retries += 1;
                self.retries_ctr.inc();
                let msg = ServeMsg::Op {
                    id,
                    op: p.op.clone(),
                    backup: p.backup,
                };
                out(Out::Send(p.primary, msg));
            }
        }
        if self.phase == Phase::Reporting {
            self.report_round(out);
        }
        self.advance(out);
    }
}

/// World ranks of `key`'s primary and backup under `ring`.
fn targets(ring: &HashRing, key: &str) -> (usize, u32) {
    let group = ring.nodes_for(key, 2);
    let primary = *group.first().expect("ring has nodes") as usize + 1;
    let backup = group.get(1).map_or(NO_BACKUP, |n| *n as u32 + 1);
    (primary, backup)
}

/// Fill the reply slot for op `id` among a connection's `replies`.
fn fill_slot(replies: &mut VecDeque<Slot>, id: u64, text: String) {
    for slot in replies.iter_mut() {
        if matches!(slot, Slot::Pending(x) if *x == id) {
            *slot = Slot::Ready(text);
            return;
        }
    }
}

/// Where a client line goes: an op for the shard tier, or the reply the
/// front end gives itself. The tier serves GET/PUT/DEL; CAS needs
/// cross-replica agreement it doesn't promise.
fn route_line(line: Line) -> Result<ShardOp, String> {
    match line {
        Line::Request(Request::Get { key }) => Ok(ShardOp::Get { key }),
        Line::Request(Request::Put { key, value }) => Ok(ShardOp::Put { key, val: value }),
        Line::Request(Request::Delete { key }) => Ok(ShardOp::Del { key }),
        Line::Request(_) => Err("ERR unsupported: the replicated tier serves GET/PUT/DEL".into()),
        Line::Quit => Err(render(&kv::Reply::Bye)),
        Line::Err(reply) => Err(reply),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::apply_script;
    use pdc_core::rng::Rng;
    use pdc_mpi::kv_tcp::{conformance, parse_line, TcpKvClient};
    use pdc_mpi::WireWorld;

    #[test]
    fn serve_msgs_roundtrip_the_wire_codec() {
        let msgs = vec![
            ServeMsg::Op {
                id: 9,
                op: ShardOp::Put {
                    key: "k".into(),
                    val: "v".into(),
                },
                backup: 2,
            },
            ServeMsg::Fwd {
                id: 9,
                cmd: ApplyCmd::Set {
                    key: "k".into(),
                    val: "v".into(),
                    ver: 3,
                },
                reply: Reply::PutOk(3),
            },
            ServeMsg::Ack {
                id: 9,
                reply: Reply::Got(Some(("v".into(), 3))),
            },
            ServeMsg::Ping { acked_below: 0 },
            ServeMsg::Ping {
                acked_below: u64::MAX,
            },
            ServeMsg::Pong,
            ServeMsg::Reconfig { dead: 1 },
            ServeMsg::Sync {
                key: "k".into(),
                val: "v".into(),
                ver: 3,
            },
            ServeMsg::Stop,
            ServeMsg::Entry {
                key: "k".into(),
                val: "v".into(),
                ver: 3,
            },
            ServeMsg::Done { ops: 17 },
            ServeMsg::Exit,
            ServeMsg::Fwd {
                id: 1,
                cmd: ApplyCmd::Del { key: "x".into() },
                reply: Reply::DelMiss,
            },
            ServeMsg::Ack {
                id: 1,
                reply: Reply::Got(None),
            },
        ];
        let bytes = msgs.to_bytes();
        assert_eq!(Vec::<ServeMsg>::from_bytes(&bytes), Some(msgs));
    }

    /// The benchmark counts data frames as the traced sends that model
    /// neither 1 nor 9 bytes (`serve.frames_per_op`), so every control
    /// frame must model one of those two sizes and no data frame may.
    #[test]
    fn only_control_frames_model_1_or_9_bytes() {
        let control = [
            ServeMsg::Ping { acked_below: 0 },
            ServeMsg::Ping {
                acked_below: u64::MAX,
            },
            ServeMsg::Pong,
            ServeMsg::Stop,
            ServeMsg::Exit,
            ServeMsg::Done { ops: 17 },
        ];
        for msg in &control {
            assert!(matches!(msg.size_bytes(), 1 | 9), "{msg:?}");
        }
        // The smallest frame of each data kind: a one-byte key, no value,
        // the shortest op, command and reply. Sizes only grow from here.
        let k = || "k".to_string();
        let smallest = [
            ServeMsg::Op {
                id: 1,
                op: ShardOp::Del { key: k() },
                backup: 2,
            },
            ServeMsg::Fwd {
                id: 1,
                cmd: ApplyCmd::Del { key: k() },
                reply: Reply::DelMiss,
            },
            ServeMsg::Ack {
                id: 1,
                reply: Reply::DelOk,
            },
            ServeMsg::Sync {
                key: k(),
                val: String::new(),
                ver: 1,
            },
            ServeMsg::Entry {
                key: k(),
                val: String::new(),
                ver: 1,
            },
        ];
        for msg in &smallest {
            assert!(msg.size_bytes() > 9, "{msg:?}");
        }
    }

    fn put(key: &str, val: &str) -> ShardOp {
        ShardOp::Put {
            key: key.into(),
            val: val.into(),
        }
    }

    #[test]
    fn a_retry_at_or_above_the_floor_reships_its_memoized_result() {
        let (mut memo, mut store) = (Memo::default(), Store::new());
        memo.trim(5);
        let first = memo.primary(5, &mut store, &put("k", "a"));
        let set = ApplyCmd::Set {
            key: "k".into(),
            val: "a".into(),
            ver: 1,
        };
        assert_eq!(first, Some((set.clone(), Reply::PutOk(1))));
        assert_eq!(memo.primary(5, &mut store, &put("k", "a")), first);
        assert_eq!(store["k"], ("a".into(), 1), "the retry bumped the version");

        // A repeated Fwd re-acks without applying again, even after a
        // newer write to its key.
        let (mut backup, mut replica) = (Memo::default(), Store::new());
        let acked = backup.replica(6, &mut replica, set.clone(), Reply::PutOk(1));
        assert_eq!(acked, Some(Reply::PutOk(1)));
        replica.insert("k".into(), ("newer".into(), 2));
        let again = backup.replica(6, &mut replica, set, Reply::PutOk(1));
        assert_eq!(again, Some(Reply::PutOk(1)));
        assert_eq!(replica["k"], ("newer".into(), 2), "the Fwd applied twice");
        assert_eq!((memo.primary_ops, backup.replica_ops), (1, 1));
        assert_eq!(memo.stale_dropped + backup.stale_dropped, 0);
    }

    #[test]
    fn after_a_trim_ops_and_fwds_below_the_watermark_change_nothing() {
        let (mut memo, mut store) = (Memo::default(), Store::new());
        let (cmd, reply) = memo.primary(1, &mut store, &put("k", "a")).expect("fresh");
        memo.primary(2, &mut store, &put("k", "b")).expect("fresh");
        memo.trim(3);
        assert_eq!(memo.trimmed, 2);
        let before = store.clone();
        assert_eq!(
            memo.primary(1, &mut store, &put("k", "a")),
            None,
            "a stale Op was answered"
        );
        assert_eq!(
            memo.replica(2, &mut store, cmd, reply),
            None,
            "a stale Fwd was acked"
        );
        assert_eq!(store, before, "an id below the floor was applied");
        assert_eq!(memo.stale_dropped, 2);
        assert!(memo.entries.is_empty());
    }

    #[test]
    fn a_lower_watermark_leaves_the_floor_where_it_is() {
        let (mut memo, mut store) = (Memo::default(), Store::new());
        memo.trim(10);
        memo.primary(12, &mut store, &put("k", "a"))
            .expect("above the floor");
        memo.trim(4);
        assert_eq!(memo.floor, 10);
        assert_eq!(memo.primary(7, &mut store, &put("k", "b")), None);
        assert_eq!(store["k"], ("a".into(), 1));
        assert_eq!((memo.entries.len(), memo.trimmed), (1, 0));
    }

    /// An `Op` at a chain's head (rank 1) and its `Fwd` at the tail
    /// (rank 2), each through [`Shard::handle`]; returns the `Fwd`.
    fn chain_op(head: &mut Shard, tail: &mut Shard, id: u64, op: &ShardOp) -> Option<ServeMsg> {
        let mut fwd = None;
        let op = ServeMsg::Op {
            id,
            op: op.clone(),
            backup: 2,
        };
        head.handle(op, &mut |o| {
            if let ShardOut::Send(2, m) = o {
                fwd = Some(m);
            }
        });
        tail.handle(fwd.clone()?, &mut |_| {});
        fwd
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// Fresh ids reach the chain in id order. A duplicate re-sends a
        /// delivered id both as a retry to the head and as a dead
        /// primary's `Fwd` to the tail. A watermark covers only
        /// delivered, so acked, ids. Both stores must equal applying
        /// each op once, in id order.
        #[test]
        fn duplicates_and_acked_watermarks_apply_each_id_once(
            script in proptest::collection::vec((0u8..4, 0u8..3), 1..40),
            steps in proptest::collection::vec((0u8..3, proptest::any::<u64>()), 0..120),
        ) {
            let ops: Vec<ShardOp> = script
                .iter()
                .map(|&(k, kind)| match kind {
                    0 | 1 => put(&format!("k{k}"), &format!("v{kind}")),
                    _ => ShardOp::Del { key: format!("k{k}") },
                })
                .collect();
            let (mut head, mut tail) = (Shard::new(1, 2), Shard::new(2, 2));
            // The first `Fwd` chained for each delivered id, by id - 1.
            let mut fwds: Vec<ServeMsg> = Vec::new();
            let fresh = |head: &mut Shard, tail: &mut Shard, fwds: &mut Vec<ServeMsg>| {
                let id = fwds.len() as u64 + 1;
                let fwd = chain_op(head, tail, id, &ops[fwds.len()]);
                fwds.push(fwd.expect("a fresh id sits at or above every acked watermark"));
            };
            let trim = |head: &mut Shard, tail: &mut Shard, acked_below| {
                for shard in [head, tail] {
                    shard.handle(ServeMsg::Ping { acked_below }, &mut |_| {});
                }
            };
            for (kind, pick) in steps {
                let delivered = fwds.len() as u64;
                match kind {
                    0 if fwds.len() < ops.len() => fresh(&mut head, &mut tail, &mut fwds),
                    1 if delivered > 0 => {
                        let id = pick % delivered + 1;
                        chain_op(&mut head, &mut tail, id, &ops[id as usize - 1]);
                        tail.handle(fwds[id as usize - 1].clone(), &mut |_| {});
                    }
                    2 => trim(&mut head, &mut tail, pick % (delivered + 1) + 1),
                    _ => {}
                }
            }
            while fwds.len() < ops.len() {
                fresh(&mut head, &mut tail, &mut fwds);
            }
            trim(&mut head, &mut tail, u64::MAX);

            let want = apply_script(&ops);
            let state = |shard: &Shard| -> KvState { shard.store.clone().into_iter().collect() };
            proptest::prop_assert_eq!(state(&head), want.clone());
            proptest::prop_assert_eq!(state(&tail), want);
            let n = ops.len() as u64;
            proptest::prop_assert_eq!((head.memo.primary_ops, tail.memo.replica_ops), (n, n));
            proptest::prop_assert_eq!((head.memo.trimmed, tail.memo.trimmed), (n, n));
        }
    }

    /// A tier of three shards with `PUT k v1` pending down its first
    /// chain as op 1. Its primary dies, so the retry goes to the old
    /// backup, now primary, with a new backup. Returns the tier and the
    /// ranks of the old backup and the new backup.
    fn tier_retrying_op_1() -> (Tier, usize, usize) {
        let mut tier = Tier::new(3, Duration::from_millis(25), 40, &TraceSession::new());
        let (primary, backup) = targets(&tier.ring, "k");
        let conn = tier.connect();
        tier.line(conn, parse_line("PUT k v1"), &mut |_| {});
        assert_eq!(tier.acked_below(), 1);
        tier.death(primary, None, &mut |_| {});
        let p = &tier.pending[&1];
        assert_eq!(p.primary, backup as usize, "the retry went elsewhere");
        let new_backup = p.backup as usize;
        (tier, backup as usize, new_backup)
    }

    /// The old backup applies the dead primary's late `Fwd` of op 1 and
    /// acks it. The client gets its reply, but the watermark must not
    /// pass 1 until the new backup acks the retry: it may still be on
    /// its way there, and a shard drops any `Fwd` below its floor.
    #[test]
    fn an_ack_from_a_replaced_chain_holds_the_watermark_until_the_retry_is_acked() {
        let (mut tier, old_backup, new_backup) = tier_retrying_op_1();
        assert!(tier.ack(1, old_backup).is_some(), "the client got no reply");
        assert_eq!(
            tier.acked_below(),
            1,
            "the watermark passed an unreplicated op"
        );
        assert!(!tier.settled());
        assert!(tier.ack(1, old_backup).is_none(), "acked twice");
        assert_eq!(tier.acked_below(), 1);
        assert!(tier.ack(1, new_backup).is_none(), "acked twice");
        assert_eq!(tier.acked_below(), 2);
        assert!(tier.settled());
    }

    /// The retry's own chain loses a rank: nobody will ack it now, and
    /// its client has its reply, so the watermark moves on.
    #[test]
    fn a_death_in_the_retry_chain_releases_the_watermark() {
        for dies in [0, 1] {
            let (mut tier, old_backup, new_backup) = tier_retrying_op_1();
            tier.ack(1, old_backup).expect("the first ack");
            tier.death([old_backup, new_backup][dies], None, &mut |_| {});
            assert_eq!(tier.acked_below(), 2);
            assert!(tier.settled());
        }
    }

    type Links = BTreeMap<(usize, usize), VecDeque<ServeMsg>>;

    /// One client connection of the `Sim`, with the core's id of its
    /// index: the lines it has yet to send, those it sent with the op id
    /// each was given, and its replies.
    #[derive(Default)]
    struct SimConn {
        lines: VecDeque<String>,
        sent: Vec<(String, Option<u64>)>,
        replies: Vec<String>,
    }

    /// The serve protocol without processes: the front-end core
    /// ([`Tier`]) and three [`Shard`]s, joined by one FIFO queue per
    /// ordered pair of ranks, with client connections that pipeline
    /// lines. The steps deliver from any non-empty queue, so links
    /// interleave freely; a killed shard's queued messages stay
    /// deliverable to its peers, like frames in a socket buffer. A
    /// connection that has sent its last line hangs up once it is owed
    /// nothing.
    struct Sim {
        tier: Tier,
        /// By world rank; `None` for the front end and a dead shard.
        shards: Vec<Option<Shard>>,
        links: Links,
        conns: Vec<SimConn>,
        now: u64,
        /// Killed, and not yet declared dead.
        killed: Option<usize>,
        /// The rank killed, if any.
        killed_rank: Option<usize>,
    }

    /// Carry out one core output in the `Sim`: queue a send, or end a
    /// claimed rank's process (the hub drops its link, and a shard
    /// without a front end exits).
    fn carry(links: &mut Links, shards: &mut [Option<Shard>], out: Out) {
        match out {
            Out::Send(dst, msg) => links.entry((0, dst)).or_default().push_back(msg),
            Out::Claim(rank) => shards[rank] = None,
        }
    }

    impl Sim {
        /// Three shards, and one connection per script. No heartbeat
        /// expires: deaths come from [`Sim::kill`] and [`Sim::detect`].
        fn new(scripts: Vec<Vec<String>>) -> Sim {
            let session = TraceSession::new();
            let mut tier = Tier::new(3, Duration::from_millis(25), u64::MAX, &session);
            for _ in &scripts {
                tier.connect();
            }
            let conns = scripts
                .into_iter()
                .map(|lines| SimConn {
                    lines: lines.into(),
                    ..SimConn::default()
                })
                .collect();
            Sim {
                tier,
                shards: (0..=3).map(|r| (r > 0).then(|| Shard::new(r, 3))).collect(),
                links: Links::new(),
                conns,
                now: 0,
                killed: None,
                killed_rank: None,
            }
        }

        /// Connection `c` sends its next line, if it has one left. Like
        /// a [`LineConn`], it sends nothing after `QUIT`.
        fn send(&mut self, c: usize) {
            let Some(line) = self.conns[c].lines.pop_front() else {
                return;
            };
            let next = self.tier.next_id;
            let (links, shards) = (&mut self.links, &mut self.shards);
            let parsed = parse_line(&line);
            if parsed == Line::Quit {
                self.conns[c].lines.clear();
            }
            self.tier
                .line(c as u64, parsed, &mut |o| carry(links, shards, o));
            let id = (self.tier.next_id > next).then_some(next);
            self.conns[c].sent.push((line, id));
            self.collect();
        }

        /// Take each connection's ready replies; hang up each connection
        /// that has sent its last line and is owed nothing.
        fn collect(&mut self) {
            let Sim {
                tier,
                shards,
                links,
                conns,
                ..
            } = self;
            tier.replies(|c, text| conns[c as usize].replies.push(text));
            for (c, conn) in conns.iter().enumerate() {
                let c = c as u64;
                if conn.lines.is_empty() && tier.conns.contains_key(&c) && !tier.owes(c) {
                    tier.hangup(c, &mut |o| carry(links, shards, o));
                }
            }
        }

        fn tick(&mut self) {
            self.now += 1;
            let (links, shards) = (&mut self.links, &mut self.shards);
            self.tier.tick(self.now, &mut |o| carry(links, shards, o));
            self.collect();
        }

        /// Kill shard `rank`, unless one was killed already or the tier
        /// has finished: a shard that dies after `Exit` is outside the
        /// drain.
        fn kill(&mut self, rank: usize) {
            if self.killed_rank.is_none() && !self.tier.finished() {
                self.shards[rank] = None;
                self.killed = Some(rank);
                self.killed_rank = Some(rank);
            }
        }

        fn detect(&mut self) {
            if let Some(rank) = self.killed.take() {
                let (links, shards) = (&mut self.links, &mut self.shards);
                self.tier
                    .death(rank, None, &mut |o| carry(links, shards, o));
                self.collect();
            }
        }

        /// Deliver the head of the `pick`-th non-empty queue; false when
        /// every queue is empty.
        fn deliver(&mut self, pick: usize) -> bool {
            let busy: Vec<(usize, usize)> = self
                .links
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(&link, _)| link)
                .collect();
            if busy.is_empty() {
                return false;
            }
            self.deliver_on(busy[pick % busy.len()]);
            true
        }

        /// Deliver the head of the queue from `src` to `dst`.
        fn deliver_on(&mut self, (src, dst): (usize, usize)) {
            let msg = self
                .links
                .get_mut(&(src, dst))
                .and_then(VecDeque::pop_front);
            let msg = msg.unwrap_or_else(|| panic!("nothing queued from {src} to {dst}"));
            if dst == 0 {
                let (links, shards) = (&mut self.links, &mut self.shards);
                self.tier.msg(src, msg, &mut |o| carry(links, shards, o));
                self.collect();
            } else if let Some(shard) = self.shards[dst].as_mut() {
                // The floor's safety argument (see `Memo`): no `Op` comes
                // in below it, and only a killed rank's `Fwd` does.
                match &msg {
                    ServeMsg::Op { id, .. } => assert!(*id >= shard.memo.floor, "Op {id}"),
                    ServeMsg::Fwd { id, .. } if *id < shard.memo.floor => {
                        assert_eq!(self.killed_rank, Some(src), "Fwd {id} from rank {src}");
                    }
                    _ => {}
                }
                let links = &mut self.links;
                shard.handle(msg, &mut |o| {
                    if let ShardOut::Send(to, m) = o {
                        links.entry((dst, to)).or_default().push_back(m);
                    }
                });
            }
        }

        /// Deliver everything queued from `src` to `dst`.
        fn drain_link(&mut self, (src, dst): (usize, usize)) {
            while self.links.get(&(src, dst)).is_some_and(|q| !q.is_empty()) {
                self.deliver_on((src, dst));
            }
        }

        /// Detect the kill, send every line left, shut down, and deliver
        /// until the tier has finished and every queue is empty.
        fn finish(&mut self) {
            self.detect();
            self.tier.shutdown();
            for _ in 0..100_000 {
                if self.deliver(0) {
                    continue;
                }
                if self.tier.finished() {
                    return;
                }
                match self.conns.iter().position(|c| !c.lines.is_empty()) {
                    Some(c) => self.send(c),
                    None => self.tick(),
                }
            }
            panic!("the drain never finished");
        }

        /// What every finished run must show: each line sent answered
        /// once, in request order (a write as replaying the acked ops in
        /// id order answers it), and nothing after `BYE`; every op acked
        /// once; the reported state equal to a replay of the acked ops;
        /// every live replica of every key holding that state; and every
        /// live memo emptied by the final watermark, having applied each
        /// op it memoized once.
        fn check(mut self) {
            let tier = &self.tier;
            assert!(tier.finished(), "the tier never finished");
            let want = apply_script(tier.acked.iter().map(|(_, op)| op));
            let state: KvState = tier.state.clone().into_iter().collect();
            assert_eq!(state, want, "the report differs from the acked ops");

            let mut by_id = tier.acked.clone();
            by_id.sort_by_key(|&(id, _)| id);
            let mut sent: Vec<u64> = self
                .conns
                .iter()
                .flat_map(|c| c.sent.iter().filter_map(|&(_, id)| id))
                .collect();
            sent.sort_unstable();
            let acked: Vec<u64> = by_id.iter().map(|&(id, _)| id).collect();
            assert_eq!(acked, sent, "not every op was acked exactly once");
            let mut store = Store::new();
            let written: BTreeMap<u64, String> = by_id
                .iter()
                .filter(|(_, op)| !matches!(op, ShardOp::Get { .. }))
                .map(|(id, op)| (*id, render(&apply_at_primary(&mut store, op).1.into())))
                .collect();
            for (i, c) in self.conns.iter().enumerate() {
                let why = format!("conn {i}: {:?} got {:?}", c.sent, c.replies);
                assert_eq!(c.replies.len(), c.sent.len(), "{why}");
                for ((line, id), reply) in c.sent.iter().zip(&c.replies) {
                    let ok = match (parse_line(line), id) {
                        (Line::Quit, None) => reply == "BYE",
                        (Line::Request(Request::Get { .. }), Some(_)) => {
                            reply.starts_with("VALUE ") || reply == "NOTFOUND"
                        }
                        (_, Some(id)) => written.get(id) == Some(reply),
                        (_, None) => reply.starts_with("ERR "),
                    };
                    assert!(ok, "{line:?} (op {id:?}) answered {reply:?}; {why}");
                }
            }

            let want: BTreeMap<String, (String, u64)> = want.into_iter().collect();
            for key in by_id.iter().map(|(_, op)| op.key()) {
                for node in tier.ring.nodes_for(key, 2) {
                    let rank = node as usize + 1;
                    // A shard killed after its report may die unseen:
                    // the tier finished first, with that report in.
                    let Some(shard) = self.shards[rank].as_ref() else {
                        let unseen = self.killed_rank == Some(rank) && !tier.monitor.is_dead(rank);
                        assert!(unseen, "rank {rank} is gone");
                        continue;
                    };
                    let got = shard.store.get(key);
                    assert_eq!(got, want.get(key), "{key} on rank {}", shard.rank);
                }
            }

            // What a ping at the final watermark does to each memo.
            let acked_below = self.tier.acked_below();
            for shard in self.shards.iter_mut().flatten() {
                let memo = &mut shard.memo;
                memo.trim(acked_below);
                assert!(memo.entries.is_empty(), "rank {} kept a memo", shard.rank);
                assert_eq!(memo.trimmed, memo.primary_ops + memo.replica_ops);
            }
        }
    }

    /// The schedule that once lost an acked write from a live replica.
    /// The primary of `k` dies while its `Fwd` of op 2 is on its way to
    /// the backup. The backup handles the `Reconfig` (syncing `k`'s old
    /// value to the new backup), then the late `Fwd`, which it applies
    /// and acks: the client has its reply. The front end pings, and the
    /// new backup takes that ping before the retry's `Fwd`, which rides
    /// another link. Had the ping's watermark passed 2, the new backup
    /// would drop the `Fwd` as stale and keep the old value.
    #[test]
    fn a_late_fwd_acked_by_the_old_backup_still_reaches_the_new_backup() {
        let mut sim = Sim::new(vec![vec!["PUT k v0".into(), "PUT k v1".into()]]);
        let (p, b) = targets(&sim.tier.ring, "k");
        let b = b as usize;
        sim.send(0);
        for link in [(0, p), (p, b), (b, 0)] {
            sim.deliver_on(link);
        }
        sim.send(0);
        sim.deliver_on((0, p));
        sim.kill(p);
        sim.detect();
        let r = targets(&sim.tier.ring, "k").1 as usize;
        assert!(r != p && r != b);
        // Reconfig, then the late Fwd 2, at the old backup; its ack.
        for link in [(0, b), (p, b), (b, 0)] {
            sim.deliver_on(link);
        }
        assert_eq!(sim.conns[0].replies, ["OK 1", "OK 2"], "op 2 was not acked");
        sim.tick();
        // The retry at the old backup, now primary: its memo re-ships
        // op 2 to the new backup, behind the Sync.
        sim.deliver_on((0, b));
        // The Reconfig and the ping reach the new backup first.
        sim.deliver_on((0, r));
        sim.deliver_on((0, r));
        while sim.deliver(0) {}
        let v1 = ("v1".to_string(), 2);
        for rank in [b, r] {
            let store = &sim.shards[rank].as_ref().expect("live").store;
            assert_eq!(store.get("k"), Some(&v1), "rank {rank} lost op 2");
        }
        sim.finish();
        sim.check();
    }

    /// A connection's lines from proptest picks: a PUT, DEL or GET of
    /// one of three keys, a line the tier answers `ERR`, or `QUIT`.
    fn sim_script(picks: Vec<(u8, u8)>) -> Vec<String> {
        let line = |(i, (key, kind))| match kind {
            0..=2 => format!("PUT k{key} v{i}"),
            3 => format!("DEL k{key}"),
            4 => format!("GET k{key}"),
            5 => ["FROB k", "GET", "CAS k0 1 v"][key as usize].into(),
            _ => "QUIT".into(),
        };
        picks.into_iter().enumerate().map(line).collect()
    }

    /// Run a `Sim` whose connections send the lines `picks` names, over
    /// `steps`: a send, a delivery, a tick, a kill, its detection or
    /// shutdown, by kind; then finish and check it.
    fn run_sim(picks: Vec<Vec<(u8, u8)>>, steps: Vec<(u8, u16)>) {
        let mut sim = Sim::new(picks.into_iter().map(sim_script).collect());
        for (kind, pick) in steps {
            let pick = pick as usize;
            match kind {
                0 | 1 => sim.send(pick % 2),
                2..=5 => drop(sim.deliver(pick)),
                6 => sim.tick(),
                7 => sim.kill(pick % 3 + 1),
                8 => sim.detect(),
                _ => sim.tier.shutdown(),
            }
        }
        sim.finish();
        sim.check();
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Two connections pipeline lines across the shards, with
        /// malformed lines and `QUIT` among them, and acks arrive in any
        /// order, with no fault: [`Sim::check`] holds, so each
        /// connection's replies come back one per line, in request
        /// order, and nothing after the `BYE` that answers its `QUIT`.
        #[test]
        fn pipelined_replies_keep_request_order(
            picks in proptest::collection::vec(
                proptest::collection::vec((0u8..3, 0u8..7), 0..12), 2),
            steps in proptest::collection::vec((0u8..7, proptest::any::<u16>()), 0..120),
        ) {
            run_sim(picks, steps);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The same with one shard kill, its detection and shutdown among
        /// the steps, so the kill may land during the drain's report. At
        /// the end, [`Sim::check`] also empties every live memo at the
        /// final watermark.
        #[test]
        fn one_kill_leaves_every_acked_write_on_every_live_replica(
            picks in proptest::collection::vec(
                proptest::collection::vec((0u8..3, 0u8..7), 0..16), 2),
            steps in proptest::collection::vec((0u8..10, proptest::any::<u16>()), 0..200),
        ) {
            run_sim(picks, steps);
        }
    }

    /// A shard dies during the drain's report: after its whole report
    /// reached the front end, or before it reported at all, while the
    /// survivors report under the ring that still holds it. Either way
    /// the survivors report again under the shrunk ring, and the state
    /// holds every acked write.
    #[test]
    fn a_death_during_the_report_starts_a_new_round() {
        for reported in [true, false] {
            let puts = (0..24).map(|i| format!("PUT k{i} v{i}"));
            let mut sim = Sim::new(vec![puts.chain(["QUIT".into()]).collect()]);
            while !sim.tier.conns.is_empty() {
                sim.send(0);
                while sim.deliver(0) {}
            }
            sim.tier.shutdown();
            sim.tick();
            assert_eq!(sim.tier.phase, Phase::Reporting);
            let dies = 2;
            let report = |sim: &mut Sim, rank: usize| {
                sim.drain_link((0, rank));
                sim.drain_link((rank, 0));
            };
            if reported {
                report(&mut sim, dies);
                assert_eq!(sim.tier.owed[dies], 0, "rank {dies} did not report");
            } else {
                report(&mut sim, 1);
                report(&mut sim, 3);
            }
            sim.kill(dies);
            sim.finish();
            sim.check();
        }
    }

    /// The serve gate's failover without processes: two closed-loop
    /// connections send the gate's script (70% PUT / 20% GET / 10% DEL
    /// over 96 keys) to three shards, and rank 1 dies once a quarter of
    /// the ops are answered. A seeded generator picks the deliveries,
    /// the ticks and when the death is detected. After the load, a last
    /// ping trims every live memo.
    #[test]
    fn the_serve_gates_failover_replays_in_the_sim() {
        const OPS: usize = 400;
        let script = |c: u64| {
            let mut rng = Rng::new(0xC0FFEE ^ c);
            let ops = (0..OPS).map(|i| {
                let key = format!("k{}", rng.gen_range(96));
                match rng.gen_range(10) {
                    0..=6 => format!("PUT {key} c{c}v{i}"),
                    7..=8 => format!("GET {key}"),
                    _ => format!("DEL {key}"),
                }
            });
            ops.chain(["QUIT".to_string()]).collect()
        };
        let mut sim = Sim::new(vec![script(0), script(1)]);
        let mut rng = Rng::new(1);
        while !sim.tier.conns.is_empty() {
            for c in 0..2 {
                if sim.conns[c].replies.len() == sim.conns[c].sent.len() {
                    sim.send(c);
                }
            }
            let answered: usize = sim.conns.iter().map(|c| c.replies.len()).sum();
            if answered >= 2 * OPS / 4 {
                sim.kill(1);
            }
            match rng.gen_range(64) {
                0 => sim.tick(),
                1 => sim.detect(),
                pick => {
                    sim.deliver(pick as usize);
                }
            }
        }
        assert_eq!(sim.killed_rank, Some(1));
        sim.detect();
        while sim.deliver(0) {}
        sim.tick();
        while sim.deliver(0) {}
        for shard in sim.shards.iter().flatten() {
            let memo = &shard.memo;
            assert!(memo.entries.is_empty(), "rank {} kept a memo", shard.rank);
            assert_eq!(memo.trimmed, memo.primary_ops + memo.replica_ops);
        }
        assert_eq!(sim.tier.promotions.get(), 1);
        sim.finish();
        sim.check();
    }

    /// The drain limit counts from `Shutdown`, in ticks: a tier that
    /// serves for longer never stalls.
    #[test]
    fn serving_past_the_drain_limit_is_no_stall() {
        let mut sim = Sim::new(vec![vec!["PUT k v".into(), "QUIT".into()]]);
        sim.send(0);
        for _ in 0..=sim.tier.stall_ticks + 1 {
            sim.tick();
            while sim.deliver(0) {}
        }
        sim.send(0);
        sim.finish();
        sim.check();
    }

    /// A drain whose shard never reports stalls once the ticks since
    /// `Shutdown` pass the drain limit.
    #[test]
    #[should_panic(expected = "serve front end stalled")]
    fn a_drain_whose_shard_never_reports_stalls() {
        let mut sim = Sim::new(vec![vec!["QUIT".into()]]);
        sim.send(0);
        sim.tier.shutdown();
        sim.tick();
        for r in 1..=3 {
            sim.drain_link((0, r));
        }
        // Rank 1's report never arrives.
        sim.links.remove(&(1, 0));
        while sim.deliver(0) {}
        for _ in 0..=sim.tier.stall_ticks {
            sim.tick();
        }
    }

    #[test]
    fn a_shard_that_dies_after_its_report_is_a_late_death() {
        use std::os::unix::process::ExitStatusExt;
        let exited = |code: i32| Some(ExitStatus::from_raw(code << 8));
        let killed = Some(ExitStatus::from_raw(9));
        // Rank 0 is the front end (no status). Rank 1 was declared dead
        // while serving and was SIGKILLed; rank 2 exited 0; rank 3 was
        // SIGKILLed after its report; rank 4 exited 1 after its report.
        let mut dead = vec![DeadShard {
            rank: 1,
            error: Some(TransportError::PeerClosed),
        }];
        record_late_deaths(&mut dead, &[None, killed, exited(0), killed, exited(1)]);
        let got: Vec<_> = dead.iter().map(|d| (d.rank, d.error)).collect();
        assert_eq!(
            got,
            [(1, Some(TransportError::PeerClosed)), (3, None), (4, None)],
            "the declared death keeps its evidence; each late one is added once"
        );
        // Every survivor exited 0: nothing to add.
        let mut dead = Vec::new();
        record_late_deaths(&mut dead, &[None, exited(0), exited(0)]);
        assert!(dead.is_empty());
    }

    #[test]
    fn replies_render_the_kv_tcp_protocol() {
        let line = |r: Reply| render(&r.into());
        assert_eq!(line(Reply::PutOk(4)), "OK 4");
        assert_eq!(line(Reply::DelOk), "OK 0");
        assert_eq!(line(Reply::DelMiss), "NOTFOUND");
        assert_eq!(line(Reply::Got(Some(("v".into(), 2)))), "VALUE 2 v");
        assert_eq!(line(Reply::Got(None)), "NOTFOUND");
    }

    /// A fault-free tier on a heartbeat under a millisecond (ticks count
    /// in the interval's own nanoseconds; a zero interval is refused)
    /// passes the kv_tcp conformance suite, and answers what it does not
    /// serve with `ERR`. Every shard survives to `Stop`. Once every op
    /// is acked, the next `Ping` carries a watermark past every id, and
    /// the link is FIFO, so it reaches each shard ahead of `Stop`: the
    /// traced counts say the watermark trimmed each memo entry inserted,
    /// and nothing arrived below a floor.
    #[test]
    fn the_front_end_passes_the_conformance_suite() {
        let path = "serve::tests::the_front_end_passes_the_conformance_suite";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            run_shard_child();
        }
        let dir = std::env::temp_dir().join(format!("pdc-serve-suite-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let session = TraceSession::with_capacity(1 << 16);
        let mut opts = ServeOptions::new(2, WireOptions::for_test(2, path).traced(&dir));
        opts.hb_interval = Duration::ZERO;
        let refused = start(opts.clone(), &session).err();
        let kind = refused.expect("a zero interval started").kind();
        assert_eq!(kind, std::io::ErrorKind::InvalidInput);

        opts.hb_interval = Duration::from_micros(500);
        // About nine minutes of silence before a death: nothing expires.
        opts.hb_timeout = 1 << 20;
        let handle = start(opts, &session).expect("start serve");
        conformance::suite(handle.addr(), || session.snapshot().get("kv.conn_errors"));
        let mut c = TcpKvClient::connect(handle.addr()).expect("connect");
        for bad in ["FROB x", "GET", "CAS k 1 v"] {
            let reply = c.call(bad).expect("reply");
            assert!(reply.starts_with("ERR "), "{bad:?} -> {reply:?}");
        }
        // Every op is acked: wait out a few idle sweeps (each polls for
        // up to 2 ms), so the front end pings with its final watermark
        // before it can send Stop.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(c.call("QUIT").expect("quit"), "BYE");
        let outcome = handle.finish();

        assert_eq!(outcome.conn_errors, 2, "the half line and the long one");
        assert!(outcome.dead.is_empty(), "{:?}", outcome.dead);
        let ops = outcome.acked.iter().map(|(_, op)| op);
        assert_eq!(outcome.state, apply_script(ops.clone()));
        let writes = ops.filter(|op| !matches!(op, ShardOp::Get { .. })).count() as u64;
        let trace = outcome.trace.expect("traced run");
        let count = |name| trace.counter(name);
        // Each write applied at its primary and at its backup.
        assert_eq!(count("serve.primary_ops"), writes);
        assert_eq!(count("serve.replica_ops"), writes);
        assert_eq!(
            count("serve.memo_trimmed"),
            2 * writes,
            "a memo entry outlived the final watermark"
        );
        assert_eq!(count("serve.stale_dropped"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One shard driven by hand, in place of the front end: a retry
    /// that arrives after a `Ping` whose watermark passed its id is
    /// dropped, not answered from the memo; `Stop` reports the shard's
    /// key, then `Done`.
    #[test]
    fn a_shard_drops_an_op_below_the_last_pings_watermark() {
        let mut shard = Shard::new(1, 1);
        let op = ServeMsg::Op {
            id: 1,
            op: put("k", "a"),
            backup: NO_BACKUP,
        };
        let mut got = Vec::new();
        for msg in [
            op.clone(),
            ServeMsg::Ping { acked_below: 2 },
            op,
            ServeMsg::Stop,
        ] {
            shard.handle(msg, &mut |o| {
                if let ShardOut::Send(0, m) = o {
                    got.push(m);
                }
            });
        }
        let entry = ServeMsg::Entry {
            key: "k".into(),
            val: "a".into(),
            ver: 1,
        };
        let ack = ServeMsg::Ack {
            id: 1,
            reply: Reply::PutOk(1),
        };
        assert_eq!(got, [ack, ServeMsg::Pong, entry, ServeMsg::Done { ops: 1 }]);
    }

    /// End-to-end in miniature: serve live clients over 3 shard
    /// processes, kill one mid-traffic, and verify no acked write is
    /// lost and the death was observed as a TransportError.
    #[test]
    fn serving_survives_a_shard_kill_without_losing_acked_writes() {
        let path = "serve::tests::serving_survives_a_shard_kill_without_losing_acked_writes";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            run_shard_child();
        }
        let dir = std::env::temp_dir().join(format!("pdc-serve-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let session = TraceSession::with_capacity(1 << 17);
        let opts = ServeOptions::new(3, WireOptions::for_test(3, path).traced(&dir));
        let handle = start(opts, &session).expect("start serve");

        let mut c = TcpKvClient::connect(handle.addr()).expect("connect");
        // Phase 1: writes across enough keys to touch every shard.
        for i in 0..60 {
            let r = c.call(&format!("PUT k{i} a{i}")).expect("put");
            assert_eq!(r, "OK 1");
        }
        // Kill rank 1 mid-run, then keep operating on every key.
        handle.kill_shard(1);
        for i in 0..60 {
            let r = c.call(&format!("PUT k{i} b{i}")).expect("put after kill");
            assert_eq!(r, "OK 2", "version preserved across failover (k{i})");
        }
        for i in 0..10 {
            let r = c.call(&format!("GET k{i}")).expect("get");
            assert_eq!(r, format!("VALUE 2 b{i}"));
        }
        assert_eq!(c.call("DEL k0").expect("del"), "OK 0");
        assert_eq!(c.call("GET k0").expect("get"), "NOTFOUND");
        assert_eq!(c.call("QUIT").expect("quit"), "BYE");
        let outcome = handle.finish();

        // The acked ops replayed on one node reproduce the final state.
        let ops: Vec<ShardOp> = outcome.acked.iter().map(|(_, op)| op.clone()).collect();
        assert_eq!(outcome.state, apply_script(&ops), "zero lost acked writes");
        assert_eq!(outcome.acked.len(), 60 + 60 + 10 + 1 + 1);
        assert_eq!(outcome.promotions, 1);
        assert_eq!(outcome.conn_errors, 0);
        assert_eq!(
            outcome.hub_forwarded, 0,
            "chain traffic (Fwd/Sync) never relays through the hub"
        );
        assert_eq!(outcome.dead.len(), 1);
        assert_eq!(outcome.dead[0].rank, 1);
        assert_eq!(
            outcome.dead[0].error,
            Some(TransportError::PeerClosed),
            "the death surfaced through the transport error path"
        );
        let trace = outcome.trace.expect("traced run");
        // Front end + 2 survivors (the killed shard never snapshots).
        assert_eq!(trace.processes.len(), 3);
        assert!(
            trace.counter("serve.rebalanced_keys") > 0,
            "ring rebalanced"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The detector-vs-socket race: freeze a shard so only the
    /// heartbeat can see the death, let it promote, then SIGKILL the
    /// frozen process so the socket-level death fires for the same
    /// crash. Exactly one promotion may happen.
    #[test]
    fn overlapping_death_signals_promote_exactly_once() {
        let path = "serve::tests::overlapping_death_signals_promote_exactly_once";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            run_shard_child();
        }
        let session = TraceSession::new();
        let opts = ServeOptions::new(3, WireOptions::for_test(3, path));
        let hb = opts.hb_interval;
        let timeout = opts.hb_timeout;
        let handle = start(opts, &session).expect("start serve");

        let mut c = TcpKvClient::connect(handle.addr()).expect("connect");
        for i in 0..30 {
            let r = c.call(&format!("PUT k{i} a{i}")).expect("put");
            assert_eq!(r, "OK 1");
        }
        // Freeze rank 1: sockets stay open, so the heartbeat detector
        // is the only path to a verdict. Wait past the expiry window.
        handle.pause_shard(1);
        std::thread::sleep(hb * (timeout as u32 + 10));
        // Now the socket-level signal for the same crash.
        handle.kill_shard(1);
        // Traffic still flows on the shrunk ring.
        for i in 0..30 {
            let r = c.call(&format!("PUT k{i} b{i}")).expect("put after death");
            assert_eq!(r, "OK 2", "version preserved across failover (k{i})");
        }
        assert_eq!(c.call("QUIT").expect("quit"), "BYE");
        let outcome = handle.finish();

        let ops: Vec<ShardOp> = outcome.acked.iter().map(|(_, op)| op.clone()).collect();
        assert_eq!(outcome.state, apply_script(&ops), "zero lost acked writes");
        assert_eq!(
            outcome.promotions, 1,
            "two death signals for one crash promoted twice"
        );
        assert_eq!(outcome.dead.len(), 1, "one death, one verdict");
        assert_eq!(outcome.dead[0].rank, 1);
        assert_eq!(
            outcome.dead[0].error, None,
            "the heartbeat verdict won the race (no transport error involved)"
        );
    }
}
