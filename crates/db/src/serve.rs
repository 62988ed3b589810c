//! The sharded store facing **live traffic**: a front-end tier that
//! accepts real client connections, routes every op through the
//! consistent-hash ring to replicated shard processes, and survives a
//! shard dying mid-run — promotion, rebalance, zero lost acknowledged
//! writes.
//!
//! This is [`crate::sharded`] graduated from scripted replay to a
//! serving system, and the replication / load-balancing / fault-
//! tolerance topics of the curriculum made executable in one artifact:
//!
//! * **Front end** (rank 0, this process): every client socket is a
//!   [`LineConn`] — the kv_tcp line codec, `MAX_LINE` / `MAX_WBUF`
//!   caps and `kv.conn_errors` accounting, shared with
//!   [`pdc_mpi::kv_tcp::EventLoopKvServer`] — plus a
//!   [`pdc_mpi::WireHub`] control plane to the shards. The front end
//!   adds only an ordered reply-slot queue per client, because replies
//!   arrive from the shard tier out of order. Client sockets are
//!   registered on the hub's poller ([`WireHub::register_client`]), so
//!   the whole tier blocks in one `poll(2)` ([`WireHub::pump`]).
//!   Shard↔shard chain traffic (`Fwd`, `Sync`) travels direct mesh
//!   connections and never crosses the hub.
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
//!
//! The serve gate (`experiments --serve`) drives this with a closed-loop
//! load generator, kills a shard mid-run, and checks: final state equals
//! a direct single-node apply of the acked ops, `serve.promotions >= 1`,
//! latency percentiles, and a clean `analyze_merged` verdict over the
//! merged per-process traces (with the dead rank's causally-incomplete
//! message pairs shrunk away, MPI-communicator style).

use crate::dht::HashRing;
use crate::sharded::{apply_op, shard_ring, Applied, KvState, ShardOp};
use pdc_core::merge::MergedTrace;
use pdc_core::metrics::Counter;
use pdc_core::trace::{EventKind, ThreadTrace, TraceSession};
use pdc_mpi::ft::HeartbeatMonitor;
use pdc_mpi::kv::{self, Request};
use pdc_mpi::kv_tcp::{accept_ready, render, Line, LineConn};
use pdc_mpi::{
    take_child_env, HubEvent, Payload, Transport, TransportError, WireHub, WireMessage,
    WireOptions, WireTransport,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
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
    /// Front end → shard: liveness probe.
    Ping,
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
            ServeMsg::Ping | ServeMsg::Pong | ServeMsg::Stop | ServeMsg::Exit => 0,
            ServeMsg::Reconfig { .. } => 4,
            ServeMsg::Sync { key, val, .. } | ServeMsg::Entry { key, val, .. } => {
                (key.len() + val.len()) as u64 + 8
            }
            ServeMsg::Done { .. } => 8,
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
            ServeMsg::Ping => out.push(3),
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
            3 => ServeMsg::Ping,
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

/// Apply a chained (absolute) command; replicas stay bit-identical to
/// the primary because nothing is recomputed.
fn apply_cmd(store: &mut BTreeMap<String, (String, u64)>, cmd: &ApplyCmd) {
    match cmd {
        ApplyCmd::Set { key, val, ver } => {
            store.insert(key.clone(), (val.clone(), *ver));
        }
        ApplyCmd::Del { key } => {
            store.remove(key);
        }
    }
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
    let shards = env.procs - 1;
    let my_node = (rank - 1) as u64;
    let transport: WireTransport<ServeMsg> =
        WireTransport::connect_env(&env).expect("serve shard: connect to front end");

    // Per-process session; capacity raised well past the default — a
    // loaded shard records several events per op and dropped events
    // would poison the merged causal order.
    let session = env.trace_dir.as_ref().map(|_| {
        let s = TraceSession::with_capacity(1 << 17);
        (s.thread(rank as u32), s)
    });
    let tracer = session.as_ref().map(|(t, _)| t);
    let record_send = |dst: usize, msg: &ServeMsg| {
        if let Some(t) = tracer {
            t.record(EventKind::Send, dst as u64, msg.size_bytes());
        }
    };
    let record_recv = |src: usize, msg: &ServeMsg| {
        if let Some(t) = tracer {
            t.record(EventKind::Recv, src as u64, msg.size_bytes());
        }
    };
    let counters = session.as_ref().map(|(_, s)| {
        (
            s.counter("serve.primary_ops"),
            s.counter("serve.replica_ops"),
            s.counter("serve.rebalanced_keys"),
        )
    });
    let send = |dst: usize, msg: ServeMsg| {
        record_send(dst, &msg);
        // A failed send to a dead sibling (chain partner
        // mid-failover) is dropped: the front end's failure
        // detection owns the promotion and will retry the op on the
        // new chain. A dead *front end* means nothing to serve and
        // nobody to tell.
        if transport.try_send(rank, dst, TAG_SERVE, msg).is_err() && dst == 0 {
            std::process::exit(1);
        }
    };

    let mut ring = shard_ring(shards);
    let mut store: BTreeMap<String, (String, u64)> = BTreeMap::new();
    // Memoized results of mutating ops, keyed by op id: the idempotency
    // table that makes post-failure retries safe. A retried op re-ships
    // its memoized (cmd, reply) instead of re-applying.
    let mut seen: HashMap<u64, (ApplyCmd, Reply)> = HashMap::new();
    let mut primary_ops = 0u64;

    loop {
        let envl = match transport.try_recv() {
            Ok(e) => e,
            // Front end died (or corrupted the stream): there is no
            // world left to serve. Exit loudly.
            Err(_) => std::process::exit(1),
        };
        record_recv(envl.src, &envl.msg);
        match envl.msg {
            ServeMsg::Ping => send(0, ServeMsg::Pong),
            ServeMsg::Op { id, op, backup } => match &op {
                // GETs are idempotent and never chained: answer from
                // the primary's store.
                ShardOp::Get { key } => {
                    let reply = Reply::Got(store.get(key).cloned());
                    send(0, ServeMsg::Ack { id, reply });
                }
                _ => {
                    // A retry of an op this replica already applied
                    // re-chains its memoized result: no second bump.
                    let (cmd, reply) = seen
                        .entry(id)
                        .or_insert_with(|| {
                            primary_ops += 1;
                            if let Some((p, _, _)) = &counters {
                                p.inc();
                            }
                            apply_at_primary(&mut store, &op)
                        })
                        .clone();
                    if backup != NO_BACKUP {
                        send(backup as usize, ServeMsg::Fwd { id, cmd, reply });
                    } else {
                        send(0, ServeMsg::Ack { id, reply });
                    }
                }
            },
            ServeMsg::Fwd { id, cmd, reply } => {
                // Acked ⇔ applied at the tail: apply before acking, and
                // only once per id (a retried chain re-acks without
                // re-applying).
                if let std::collections::hash_map::Entry::Vacant(slot) = seen.entry(id) {
                    apply_cmd(&mut store, &cmd);
                    slot.insert((cmd, reply.clone()));
                    if let Some((_, r, _)) = &counters {
                        r.inc();
                    }
                }
                send(0, ServeMsg::Ack { id, reply });
            }
            ServeMsg::Reconfig { dead } => {
                let old = ring.clone();
                ring.remove_node((dead - 1) as u64);
                // Re-derive ownership under the shrunk ring: for every
                // key this shard now fronts, copy the binding to any
                // backup the new ring assigns that the old ring didn't.
                let mut syncs: Vec<(usize, ServeMsg)> = Vec::new();
                for (key, (val, ver)) in &store {
                    let group = ring.nodes_for(key, 2);
                    if group.first() != Some(&my_node) {
                        continue;
                    }
                    let old_group = old.nodes_for(key, 2);
                    for nb in &group[1..] {
                        if !old_group.contains(nb) {
                            syncs.push((
                                (*nb + 1) as usize,
                                ServeMsg::Sync {
                                    key: key.clone(),
                                    val: val.clone(),
                                    ver: *ver,
                                },
                            ));
                        }
                    }
                }
                for (dst, msg) in syncs {
                    send(dst, msg);
                }
            }
            ServeMsg::Sync { key, val, ver } => {
                // FIFO from the sending primary orders this before any
                // later chained write to the same key, so an absolute
                // overwrite is safe.
                store.insert(key, (val, ver));
                if let Some((_, _, rb)) = &counters {
                    rb.inc();
                }
            }
            ServeMsg::Stop => {
                // Drain the write queues first: any Sync queued to a
                // sibling during Reconfig must be on the wire before
                // Done tells the front end this shard is settled —
                // otherwise Exit can reach the sibling ahead of the
                // Sync and the frame dies in our queue.
                transport.flush_pending();
                // Report only keys this shard is primary for under the
                // final ring: every survivor derived the same ring, so
                // the reports partition the key space.
                for (key, (val, ver)) in &store {
                    if ring.nodes_for(key, 2).first() == Some(&my_node) {
                        send(
                            0,
                            ServeMsg::Entry {
                                key: key.clone(),
                                val: val.clone(),
                                ver: *ver,
                            },
                        );
                    }
                }
                send(0, ServeMsg::Done { ops: primary_ops });
                // Keep serving Syncs until Exit — a peer's rebalance
                // may still be in flight.
            }
            ServeMsg::Exit => {
                // Collect in-flight sibling traffic before leaving the
                // world: on the mesh a peer's Sync rides a different
                // connection than the parent's Exit, so "Exit received"
                // does not order it. Apply (and trace-record) whatever
                // already landed so merged send/recv pairs stay
                // matched.
                for envl in transport.drain_pending() {
                    record_recv(envl.src, &envl.msg);
                    if let ServeMsg::Sync { key, val, ver } = envl.msg {
                        store.insert(key, (val, ver));
                        if let Some((_, _, rb)) = &counters {
                            rb.inc();
                        }
                    }
                }
                if let Some((_, s)) = &session {
                    env.write_trace(s);
                }
                std::process::exit(0);
            }
            other => panic!("serve shard {rank}: unexpected {other:?}"),
        }
    }
}

/// Apply a mutating op at its primary: the absolute command the chain
/// replicates, and the client-visible reply.
fn apply_at_primary(
    store: &mut BTreeMap<String, (String, u64)>,
    op: &ShardOp,
) -> (ApplyCmd, Reply) {
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
    /// Heartbeat ping cadence.
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
    /// broken connection; `None` for a pure heartbeat timeout.
    pub error: Option<TransportError>,
}

/// What a finished serve run hands back.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Union of the survivors' primary-owned keys, sorted.
    pub state: KvState,
    /// Every acknowledged op in id order — replaying the mutating ones
    /// through [`crate::sharded::apply_script`] must reproduce `state`
    /// exactly (the zero-lost-acked-writes invariant).
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

/// One client of the front end: a [`LineConn`] plus the replies owed,
/// in request order — `Pending` slots fill in when the chain acks, and
/// only a `Ready` prefix may be written.
struct ClientConn {
    conn: LineConn,
    replies: VecDeque<Slot>,
}

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

/// Start the serving tier: spawn `opts.shards` shard processes, bind a
/// client listener on an ephemeral loopback port, and run the front-end
/// sweep loop on its own thread. Counters (`serve.promotions`,
/// `serve.retries`, `serve.acked_ops`, `serve.heartbeat_timeouts`,
/// `kv.conn_errors`) and the front end's send/recv events (actor 0) are
/// published into `session`.
///
/// Call sites must dispatch re-executed children to
/// [`run_shard_child`] via [`pdc_mpi::WireWorld::child_world_id`]
/// before calling this.
///
/// # Panics
/// Panics if `opts.shards < 2` (no replication without a backup).
pub fn start(opts: ServeOptions, session: &TraceSession) -> std::io::Result<ServeHandle> {
    assert!(opts.shards >= 2, "replication needs at least two shards");
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

#[allow(clippy::too_many_lines)]
fn front_end(
    opts: ServeOptions,
    listener: TcpListener,
    mut hub: WireHub<ServeMsg>,
    ctl: Receiver<ServeCtl>,
    session: &TraceSession,
) -> ServeOutcome {
    let shards = opts.shards;
    let tracer: ThreadTrace = session.thread(0);
    let traced = opts.wire.trace_dir.is_some();
    let acked_ctr = session.counter("serve.acked_ops");
    let hb_timeouts = session.counter("serve.heartbeat_timeouts");
    let conn_errors = session.counter("kv.conn_errors");

    let mut tier = Tier {
        ring: shard_ring(shards),
        monitor: HeartbeatMonitor::new(opts.hb_timeout),
        pending: BTreeMap::new(),
        dead: Vec::new(),
        retries: 0,
        promotions: session.counter("serve.promotions"),
        retries_ctr: session.counter("serve.retries"),
    };
    for r in 1..=shards {
        tier.monitor.register(r, 0);
    }
    let send = |hub: &WireHub<ServeMsg>, dst: usize, msg: ServeMsg| {
        if traced {
            tracer.record(EventKind::Send, dst as u64, msg.size_bytes());
        }
        // Err means the writer is already gone; the Down event owns the
        // accounting and the retry.
        let _ = hub.send(dst, TAG_SERVE, &msg);
    };

    let mut conns: BTreeMap<u64, ClientConn> = BTreeMap::new();
    let mut next_conn = 0u64;
    let mut next_id = 1u64;
    let mut acked: Vec<(u64, ShardOp)> = Vec::new();

    // Drain/stop state machine: Running → Draining (Shutdown received)
    // → Stopping (Stop sent, collecting reports) → done.
    let mut shutting_down = false;
    let mut stop_sent = false;
    let mut state: BTreeMap<String, (String, u64)> = BTreeMap::new();
    let mut done_from: Vec<usize> = Vec::new();

    let start = Instant::now();
    let deadline = start + Duration::from_secs(300);
    let mut last_ping_tick = 0u64;

    // One poller for the whole tier: shard connections are the hub's
    // own; the client listener and every accepted client socket are
    // registered alongside them, so the loop blocks in a single
    // poll(2) and wakes on the first byte from any direction.
    const LISTENER_TOKEN: u64 = u64::MAX;
    hub.register_client(listener.as_raw_fd(), LISTENER_TOKEN);

    loop {
        assert!(
            Instant::now() < deadline,
            "serve front end stalled: {} pending, {} conns, stop_sent={stop_sent}",
            tier.pending.len(),
            conns.len()
        );
        let mut progress = false;

        // 1. Control.
        while let Ok(c) = ctl.try_recv() {
            progress = true;
            match c {
                ServeCtl::Kill(rank) => drop(hub.kill(rank)),
                ServeCtl::Pause(rank) => drop(hub.pause(rank)),
                ServeCtl::Shutdown => shutting_down = true,
            }
        }

        // 2. Accept new clients.
        if !shutting_down {
            for conn in accept_ready(&listener, &conn_errors) {
                hub.register_client(conn.fd(), next_conn);
                conns.insert(
                    next_conn,
                    ClientConn {
                        conn,
                        replies: VecDeque::new(),
                    },
                );
                next_conn += 1;
                progress = true;
            }
        }

        // 3. Client reads: complete lines become routed ops or ready
        // replies, in request order.
        for (&cid, client) in conns.iter_mut() {
            let was_closing = client.conn.is_closing();
            client.conn.fill(shutting_down);
            while let Some(line) = client.conn.next_line(shutting_down) {
                progress = true;
                let op = match route_line(line) {
                    Ok(op) => op,
                    Err(reply) => {
                        client.replies.push_back(Slot::Ready(reply));
                        continue;
                    }
                };
                let id = next_id;
                next_id += 1;
                let (primary, backup) = tier.targets(op.key());
                client.replies.push_back(Slot::Pending(id));
                send(
                    &hub,
                    primary,
                    ServeMsg::Op {
                        id,
                        op: op.clone(),
                        backup,
                    },
                );
                tier.pending.insert(
                    id,
                    PendingOp {
                        conn: cid,
                        op,
                        primary,
                        backup,
                    },
                );
            }
            if !was_closing && client.conn.is_closing() {
                // Nothing more to read: stop polling the socket (an
                // EOF'd fd would poll readable forever).
                hub.deregister_client(cid);
                progress = true;
            }
        }

        // 4. Shard events: acks fill reply slots; deaths trigger
        // promotion + rebalance + retries.
        for _ in 0..1024 {
            let Some(ev) = hub.try_event() else { break };
            progress = true;
            let tick = (start.elapsed().as_millis() as u64) / opts.hb_interval.as_millis() as u64;
            match ev {
                HubEvent::Msg(envl) => {
                    tier.monitor.heard(envl.src, tick);
                    if traced {
                        tracer.record(EventKind::Recv, envl.src as u64, envl.msg.size_bytes());
                    }
                    match envl.msg {
                        ServeMsg::Ack { id, reply } => {
                            // A duplicate ack (original chain + retry
                            // both completing) finds no pending entry
                            // and is dropped: acked exactly once.
                            if let Some(p) = tier.pending.remove(&id) {
                                acked.push((id, p.op));
                                acked_ctr.inc();
                                if let Some(client) = conns.get_mut(&p.conn) {
                                    fill_slot(client, id, render(&reply.into()));
                                }
                            }
                        }
                        ServeMsg::Pong => {}
                        ServeMsg::Entry { key, val, ver } => {
                            let prev = state.insert(key, (val, ver));
                            assert!(prev.is_none(), "two shards reported the same key");
                        }
                        ServeMsg::Done { .. } => done_from.push(envl.src),
                        other => panic!("serve front end: unexpected {other:?}"),
                    }
                }
                // A rank already dead (or past Exit) has nothing to add.
                HubEvent::Down { rank, error } => {
                    if !tier.monitor.is_dead(rank) {
                        tier.declare_dead(rank, Some(error), &hub, &send);
                    }
                }
                HubEvent::Result { .. } => {}
            }
        }

        // 5. Heartbeats: ping on a cadence, expire the silent.
        let tick = (start.elapsed().as_millis() as u64) / opts.hb_interval.as_millis() as u64;
        if tick > last_ping_tick && !stop_sent {
            last_ping_tick = tick;
            for r in tier.monitor.alive() {
                send(&hub, r, ServeMsg::Ping);
            }
            for r in tier.monitor.expired(tick) {
                hb_timeouts.inc();
                tier.declare_dead(r, None, &hub, &send);
            }
        }

        // 6. Client writes: queue the Ready prefix of each reply queue,
        // in request order, and flush.
        for client in conns.values_mut() {
            while let Some(Slot::Ready(_)) = client.replies.front() {
                let Some(Slot::Ready(text)) = client.replies.pop_front() else {
                    unreachable!()
                };
                client.conn.reply(&text, shutting_down);
                progress = true;
            }
            client.conn.flush(shutting_down);
        }
        conns.retain(|&cid, client| {
            let done = client.conn.is_done() && client.replies.is_empty();
            if done {
                hub.deregister_client(cid);
                progress = true;
            }
            !done
        });

        // 7. Drain/stop sequencing.
        if shutting_down && !stop_sent && tier.pending.is_empty() && conns.is_empty() {
            for r in tier.monitor.alive() {
                send(&hub, r, ServeMsg::Stop);
            }
            stop_sent = true;
            progress = true;
        }
        if stop_sent && done_from.len() == tier.monitor.alive().len() {
            // Every survivor reported. Exit after all reports so any
            // cross-shard Syncs have landed (see ServeMsg::Exit).
            for r in tier.monitor.alive() {
                send(&hub, r, ServeMsg::Exit);
            }
            break;
        }

        if !progress {
            // Nothing to do right now: block on readiness across every
            // connection (shards + clients) instead of spin-sleeping.
            // The timeout bounds the wait so heartbeat ticks still run
            // on schedule even with no traffic at all.
            hub.pump(Duration::from_millis(2));
        }
    }

    // The front end's own slice of the merged trace is process 0.
    let (statuses, trace) = hub.shutdown(Some(session));
    for (rank, status) in statuses.iter().enumerate().skip(1) {
        if !tier.dead.iter().any(|d| d.rank == rank) {
            let status = status.expect("survivor status");
            assert!(status.success(), "surviving shard {rank} exited {status}");
        }
    }

    ServeOutcome {
        state: state.into_iter().collect(),
        acked,
        promotions: session.snapshot().get("serve.promotions"),
        retries: tier.retries,
        dead: tier.dead,
        conn_errors: session.snapshot().get("kv.conn_errors"),
        hub_forwarded: 0,
        trace,
    }
}

/// The front end's view of the shard tier: who is alive, who owns
/// which key, and which ops are in flight.
struct Tier {
    ring: HashRing,
    monitor: HeartbeatMonitor,
    pending: BTreeMap<u64, PendingOp>,
    dead: Vec<DeadShard>,
    retries: u64,
    promotions: Counter,
    retries_ctr: Counter,
}

impl Tier {
    /// World ranks of `key`'s primary and backup under the current ring.
    fn targets(&self, key: &str) -> (usize, u32) {
        let group = self.ring.nodes_for(key, 2);
        let primary = *group.first().expect("ring has nodes") as usize + 1;
        let backup = group.get(1).map_or(NO_BACKUP, |n| *n as u32 + 1);
        (primary, backup)
    }

    /// Mark a shard dead: count the promotion, shrink the ring, tell the
    /// survivors to rebalance, and re-send every unacknowledged op that
    /// involved the dead rank — in id order — to its new chain.
    fn declare_dead(
        &mut self,
        rank: usize,
        error: Option<TransportError>,
        hub: &WireHub<ServeMsg>,
        send: &impl Fn(&WireHub<ServeMsg>, usize, ServeMsg),
    ) {
        // Claim the death inside the hub first: if this verdict came
        // from the heartbeat detector, the socket-level EOF that follows
        // for the same crash is suppressed at the source and can never
        // reach the promotion logic as a second Down.
        hub.report_dead(rank);
        self.monitor.mark_dead(rank);
        self.dead.push(DeadShard { rank, error });
        let survivors = self.monitor.alive();
        assert!(
            !survivors.is_empty(),
            "every shard died; nothing left to serve"
        );
        // The dead rank fronted part of the ring; its backups take over.
        self.promotions.inc();
        self.ring.remove_node((rank - 1) as u64);
        for r in &survivors {
            send(hub, *r, ServeMsg::Reconfig { dead: rank as u32 });
        }
        // Re-send unacked ops whose chain included the dead rank. Id
        // order preserves per-key apply order at the new primary;
        // shard-side memoization absorbs ops the survivors already
        // applied.
        let affected: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.primary == rank || p.backup == rank as u32)
            .map(|(&id, _)| id)
            .collect();
        for id in affected {
            let (primary, backup) = self.targets(self.pending[&id].op.key());
            let p = self.pending.get_mut(&id).expect("pending");
            p.primary = primary;
            p.backup = backup;
            self.retries += 1;
            self.retries_ctr.inc();
            let op = p.op.clone();
            send(hub, primary, ServeMsg::Op { id, op, backup });
        }
    }
}

/// Fill the reply slot for op `id` on `client`.
fn fill_slot(client: &mut ClientConn, id: u64, text: String) {
    for slot in client.replies.iter_mut() {
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
    use pdc_mpi::kv_tcp::conformance::{
        assert_overlong_line_rejected, assert_quit_drops_pipelined_suffix,
    };
    use pdc_mpi::kv_tcp::TcpKvClient;
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
            ServeMsg::Ping,
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

    #[test]
    fn replies_render_the_kv_tcp_protocol() {
        let line = |r: Reply| render(&r.into());
        assert_eq!(line(Reply::PutOk(4)), "OK 4");
        assert_eq!(line(Reply::DelOk), "OK 0");
        assert_eq!(line(Reply::DelMiss), "NOTFOUND");
        assert_eq!(line(Reply::Got(Some(("v".into(), 2)))), "VALUE 2 v");
        assert_eq!(line(Reply::Got(None)), "NOTFOUND");
    }

    /// Parity with both kv_tcp servers on the protocol's edge cases:
    /// the front end frames, rejects and accounts exactly as they do.
    #[test]
    fn front_end_matches_the_kv_tcp_protocol_edge_cases() {
        let path = "serve::tests::front_end_matches_the_kv_tcp_protocol_edge_cases";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            run_shard_child();
        }
        let session = TraceSession::new();
        let opts = ServeOptions::new(2, WireOptions::for_test(2, path));
        let handle = start(opts, &session).expect("start serve");
        let conn_errors = || session.snapshot().get("kv.conn_errors");

        assert_quit_drops_pipelined_suffix(handle.addr(), conn_errors);
        let mut c = TcpKvClient::connect(handle.addr()).expect("connect");
        for bad in ["FROB x", "GET", "CAS k 1 v"] {
            let reply = c.call(bad).expect("reply");
            assert!(reply.starts_with("ERR "), "{bad:?} -> {reply:?}");
        }
        assert_eq!(c.call("QUIT").expect("quit"), "BYE");
        assert_overlong_line_rejected(handle.addr(), conn_errors);

        let outcome = handle.finish();
        assert_eq!(outcome.conn_errors, 1, "only the over-long line counted");
        assert_eq!(outcome.acked.len(), 4, "PUT a, GET a, GET b, PUT ok");
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
