//! A sharded key–value store fronted by the consistent-hash ring.
//!
//! This is the [`crate::dht`] lecture made executable end to end: rank 0
//! is the router, ranks `1..=N` each own one shard of the key space, and
//! [`HashRing::node_for`] decides which shard serves which key (ring
//! node `s` is world rank `s + 1`). Because the router runs over the
//! `pdc_mpi` [`Transport`] seam, the *same* routing and serving code
//! executes two ways:
//!
//! * [`run_local`] — every rank is a thread in this process
//!   (`World::run` over `LocalTransport`), and
//! * [`run_wire`] — every rank is a separate OS process talking loopback
//!   TCP (`WireWorld::run` over `WireTransport`), each writing its own
//!   pdc-trace session that the parent merges into one `pdc-trace/3`
//!   snapshot.
//!
//! Both must produce bit-identical final states for the same op script:
//! all operations on one key flow through one FIFO (router → owning
//! shard) in script order, so the outcome is independent of how ranks
//! are scheduled or where they live. The CI shard gate replays one
//! script both ways and diffs the states.
//!
//! The router can also batch: with `batch = true` it funnels ops through
//! a [`Coalescer`], amortizing the per-message α over whole batches of
//! tiny operations — the α–β batching story from [`pdc_mpi::cost`]
//! applied to a storage workload.
//!
//! [`run_local`] takes the script by value: the router moves each op
//! into the message that carries it, so an op crosses the in-process
//! world without a copy. [`run_wire`] takes a closure that builds the
//! script, and only the router's process calls it: the parent and the
//! shard processes never build a script they do not route. Each shard
//! reports its state in key order, and the router merges the reports
//! with one stable sort over the concatenated, already-sorted runs.

use crate::dht::HashRing;
use pdc_core::rng::Rng;
use pdc_core::trace::TraceSession;
use pdc_mpi::coll::Coalescer;
use pdc_mpi::cost::AlphaBeta;
use pdc_mpi::{
    Payload, Rank, TrafficStats, Transport, WireMessage, WireOptions, WireRun, WireWorld, World,
};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Router → shard: operation batches.
const TAG_OPS: u32 = 0x50;
/// Shard → router: final state report.
const TAG_STATE: u32 = 0x51;

/// Virtual nodes per shard on the routing ring.
const VNODES: usize = 64;

/// One client operation against the sharded store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOp {
    /// Bind `key` to `val`; the key's version bumps on every write and
    /// restarts at 1 after a delete.
    Put {
        /// Key to write.
        key: String,
        /// Value to store.
        val: String,
    },
    /// Read `key` (shards count reads served; no reply flows back).
    Get {
        /// Key to read.
        key: String,
    },
    /// Remove `key`.
    Del {
        /// Key to remove.
        key: String,
    },
}

impl ShardOp {
    /// The key this operation routes on.
    pub fn key(&self) -> &str {
        match self {
            ShardOp::Put { key, .. } | ShardOp::Get { key } | ShardOp::Del { key } => key,
        }
    }
}

/// Wire/world message for the sharded store: ops flow down from the
/// router, state reports flow back up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMsg {
    /// Router → shard: apply one operation.
    Op(ShardOp),
    /// Router → shard: no more ops; report state and exit.
    Stop,
    /// Shard → router: one key's final binding.
    Entry {
        /// The key.
        key: String,
        /// Its final value.
        val: String,
        /// Its final version.
        ver: u64,
    },
    /// Shard → router: end of the state report.
    Done {
        /// How many operations this shard served.
        ops: u64,
    },
}

impl Payload for ShardOp {
    fn size_bytes(&self) -> u64 {
        // 1 discriminant byte + the strings' bytes, matching encode().
        1 + match self {
            ShardOp::Put { key, val } => (key.len() + val.len()) as u64,
            ShardOp::Get { key } | ShardOp::Del { key } => key.len() as u64,
        }
    }
}

impl Payload for ShardMsg {
    fn size_bytes(&self) -> u64 {
        match self {
            ShardMsg::Op(op) => 1 + op.size_bytes(),
            ShardMsg::Stop => 1,
            ShardMsg::Entry { key, val, .. } => 1 + (key.len() + val.len()) as u64 + 8,
            ShardMsg::Done { .. } => 1 + 8,
        }
    }
}

impl WireMessage for ShardOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ShardOp::Put { key, val } => {
                out.push(0);
                key.encode(out);
                val.encode(out);
            }
            ShardOp::Get { key } => {
                out.push(1);
                key.encode(out);
            }
            ShardOp::Del { key } => {
                out.push(2);
                key.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&disc, rest) = buf.split_first()?;
        *buf = rest;
        Some(match disc {
            0 => ShardOp::Put {
                key: String::decode(buf)?,
                val: String::decode(buf)?,
            },
            1 => ShardOp::Get {
                key: String::decode(buf)?,
            },
            2 => ShardOp::Del {
                key: String::decode(buf)?,
            },
            _ => return None,
        })
    }
}

impl WireMessage for ShardMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ShardMsg::Op(op) => {
                out.push(0);
                op.encode(out);
            }
            ShardMsg::Stop => out.push(1),
            ShardMsg::Entry { key, val, ver } => {
                out.push(2);
                key.encode(out);
                val.encode(out);
                ver.encode(out);
            }
            ShardMsg::Done { ops } => {
                out.push(3);
                ops.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&disc, rest) = buf.split_first()?;
        *buf = rest;
        Some(match disc {
            0 => ShardMsg::Op(ShardOp::decode(buf)?),
            1 => ShardMsg::Stop,
            2 => ShardMsg::Entry {
                key: String::decode(buf)?,
                val: String::decode(buf)?,
                ver: u64::decode(buf)?,
            },
            3 => ShardMsg::Done {
                ops: u64::decode(buf)?,
            },
            _ => return None,
        })
    }
}

/// The store's final contents, sorted by key: `(key, (value, version))`.
pub type KvState = Vec<(String, (String, u64))>;

/// What applying one [`ShardOp`] did — enough for a caller to build the
/// client-visible reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
    /// A PUT wrote this version.
    Put(u64),
    /// A GET observed this binding (or its absence).
    Got(Option<(String, u64)>),
    /// A DEL removed an existing key (`true`) or missed (`false`).
    Del(bool),
}

/// Apply one op to a store map — the single source of truth for
/// PUT/GET/DEL semantics, shared by the scripted shard loop, the
/// direct-apply reference in tests and gates, and the replicated
/// serving tier's primaries. The version bumps on every write and
/// restarts at 1 after a delete.
///
/// A PUT on a bound key overwrites the value in place (reusing its
/// buffer) and clones no key; only a PUT that creates a key allocates.
pub fn apply_op(store: &mut BTreeMap<String, (String, u64)>, op: &ShardOp) -> Applied {
    match op {
        ShardOp::Put { key, val } => match store.get_mut(key) {
            Some((cur, ver)) => {
                cur.clone_from(val);
                *ver += 1;
                Applied::Put(*ver)
            }
            None => {
                store.insert(key.clone(), (val.clone(), 1));
                Applied::Put(1)
            }
        },
        ShardOp::Get { key } => Applied::Got(store.get(key).cloned()),
        ShardOp::Del { key } => Applied::Del(store.remove(key).is_some()),
    }
}

/// Reference semantics: apply a whole script to one flat map. The serve
/// gate compares a replicated, failure-injected run's final state
/// against `apply_script(acked ops)` — zero lost acknowledged writes.
pub fn apply_script<'a>(ops: impl IntoIterator<Item = &'a ShardOp>) -> KvState {
    let mut store = BTreeMap::new();
    for op in ops {
        apply_op(&mut store, op);
    }
    store.into_iter().collect()
}

/// A deterministic op script: `ops` operations over `keys` distinct keys
/// — roughly 70% PUT / 20% GET / 10% DEL — reproducible from `seed` so
/// single-process and multi-process runs replay the identical workload.
pub fn script(keys: usize, ops: usize, seed: u64) -> Vec<ShardOp> {
    let mut rng = Rng::new(seed);
    (0..ops)
        .map(|i| {
            let key = format!("k{}", rng.gen_range(keys as u64));
            match rng.gen_range(10) {
                0..=6 => ShardOp::Put {
                    key,
                    val: format!("v{i}"),
                },
                7..=8 => ShardOp::Get { key },
                _ => ShardOp::Del { key },
            }
        })
        .collect()
}

/// The routing ring for `shards` shards: ring node `s` is world rank
/// `s + 1` (rank 0 is the router).
pub fn shard_ring(shards: usize) -> HashRing {
    let mut ring = HashRing::new(VNODES);
    for s in 0..shards {
        ring.add_node(s as u64);
    }
    ring
}

/// Rank 0: route every op to its owning shard, then stop the shards and
/// merge their state reports into one sorted [`KvState`]. Each op moves
/// from the script into the message that carries it.
fn route<T: Transport<Vec<ShardMsg>>>(
    rank: &mut Rank<Vec<ShardMsg>, T>,
    ops: Vec<ShardOp>,
    batch: bool,
) -> KvState {
    let shards = rank.size() - 1;
    let ring = shard_ring(shards);
    let total = ops.len() as u64;
    let mut coalescer = batch.then(|| Coalescer::new(rank.size(), TAG_OPS, AlphaBeta::cluster()));
    for op in ops {
        let dst = ring.node_for(op.key()).expect("ring has shards") as usize + 1;
        let msg = ShardMsg::Op(op);
        match &mut coalescer {
            Some(c) => {
                c.push(rank, dst, msg);
            }
            None => rank.send(dst, TAG_OPS, vec![msg]),
        }
    }
    if let Some(c) = &mut coalescer {
        c.flush_all(rank);
    }
    // FIFO per destination: Stop arrives after every flushed batch.
    for s in 1..=shards {
        rank.send(s, TAG_OPS, vec![ShardMsg::Stop]);
    }
    let mut state: KvState = Vec::new();
    let mut served = 0;
    for s in 1..=shards {
        let report = rank.recv(s, TAG_STATE);
        state.reserve(report.len());
        let mut done = false;
        for msg in report {
            match msg {
                ShardMsg::Entry { key, val, ver } => state.push((key, (val, ver))),
                ShardMsg::Done { ops } => {
                    served += ops;
                    done = true;
                }
                other => panic!("unexpected message in state report: {other:?}"),
            }
        }
        assert!(done, "shard {s} report missing Done");
    }
    assert_eq!(served, total, "shards served every op");
    // Every report is one sorted run; a stable sort merges the runs.
    state.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(
        state.windows(2).all(|w| w[0].0 != w[1].0),
        "two shards reported the same key"
    );
    state
}

/// Ranks `1..=N`: apply op batches to the local shard until Stop, then
/// report the shard's sorted state back to the router. The shard adds
/// its `served` total to `db.shard_ops` once, when it stops.
fn serve<T: Transport<Vec<ShardMsg>>>(rank: &mut Rank<Vec<ShardMsg>, T>) {
    let mut store: BTreeMap<String, (String, u64)> = BTreeMap::new();
    let mut served = 0u64;
    'serving: loop {
        for msg in rank.recv(0, TAG_OPS) {
            match msg {
                ShardMsg::Op(op) => {
                    served += 1;
                    apply_op(&mut store, &op);
                }
                ShardMsg::Stop => break 'serving,
                other => panic!("unexpected message at shard: {other:?}"),
            }
        }
    }
    rank.count("db.shard_ops", served);
    let mut report: Vec<ShardMsg> = store
        .into_iter()
        .map(|(key, (val, ver))| ShardMsg::Entry { key, val, ver })
        .collect();
    report.push(ShardMsg::Done { ops: served });
    rank.send(0, TAG_STATE, report);
}

/// Rank 0 routes the script `take_ops` hands it; every other rank
/// serves one shard.
fn worker<T: Transport<Vec<ShardMsg>>>(
    rank: &mut Rank<Vec<ShardMsg>, T>,
    take_ops: impl FnOnce() -> Vec<ShardOp>,
    batch: bool,
) -> KvState {
    if rank.id() == 0 {
        route(rank, take_ops(), batch)
    } else {
        serve(rank);
        Vec::new()
    }
}

/// Run the sharded store in-process: rank 0 routes `ops`, ranks
/// `1..=shards` serve, all as threads. The script is taken by value and
/// each op moves to its shard uncopied; a caller that replays one
/// script clones it at the call site. Returns the final state (sorted
/// by key) and the world's traffic counters.
///
/// # Panics
/// Panics if `shards == 0` or on any protocol violation.
pub fn run_local(shards: usize, ops: Vec<ShardOp>, batch: bool) -> (KvState, TrafficStats) {
    run_local_inner(shards, ops, batch, None)
}

/// [`run_local`] with every rank publishing pdc-trace counters/events
/// into `session`.
///
/// # Panics
/// Panics if `shards == 0` or on any protocol violation.
pub fn run_local_traced(
    shards: usize,
    ops: Vec<ShardOp>,
    batch: bool,
    session: &TraceSession,
) -> (KvState, TrafficStats) {
    run_local_inner(shards, ops, batch, Some(session))
}

fn run_local_inner(
    shards: usize,
    ops: Vec<ShardOp>,
    batch: bool,
    session: Option<&TraceSession>,
) -> (KvState, TrafficStats) {
    assert!(shards > 0, "need at least one shard");
    // `World::run` shares one `Fn` body across ranks, so the script
    // waits in a slot until rank 0 takes it.
    let script = Mutex::new(Some(ops));
    let take_ops = || {
        script
            .lock()
            .expect("script slot poisoned")
            .take()
            .expect("only rank 0 takes the script")
    };
    let f = |rank: &mut Rank<Vec<ShardMsg>>| worker(rank, take_ops, batch);
    let (mut results, stats) = match session {
        Some(s) => World::run_traced(shards + 1, s, f),
        None => World::run(shards + 1, f),
    };
    (results.swap_remove(0), stats)
}

/// Run the sharded store as `shards + 1` OS processes over loopback TCP.
/// `results[0]` of the returned [`WireRun`] is the final state; with a
/// traced [`WireOptions`] the run also carries the merged `pdc-trace/3`
/// snapshot.
///
/// `make_ops` builds the script. Only the router's process (rank 0)
/// calls it; the parent, which runs no rank, and the shard processes
/// never do. It must build the same script in whichever process it
/// runs, e.g. from a seed both sides know.
///
/// Call sites must dispatch on [`WireWorld::child_world_id`] first:
/// re-executed children reach this function through the same code path
/// as the parent and never return from it.
///
/// # Panics
/// Panics if `opts.procs != shards + 1`, if a child cannot be spawned or
/// fails, or on any protocol violation.
pub fn run_wire(
    opts: &WireOptions,
    shards: usize,
    make_ops: impl FnOnce() -> Vec<ShardOp>,
    batch: bool,
) -> WireRun<KvState> {
    assert_eq!(opts.procs, shards + 1, "world = 1 router + N shards");
    WireWorld::run(opts, |rank| worker(rank, make_ops, batch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_msgs_roundtrip_the_wire_codec() {
        let msgs = vec![
            ShardMsg::Op(ShardOp::Put {
                key: "k".into(),
                val: "v".into(),
            }),
            ShardMsg::Op(ShardOp::Get { key: "k".into() }),
            ShardMsg::Op(ShardOp::Del { key: "".into() }),
            ShardMsg::Stop,
            ShardMsg::Entry {
                key: "k2".into(),
                val: "x".into(),
                ver: 7,
            },
            ShardMsg::Done { ops: 42 },
        ];
        let bytes = msgs.to_bytes();
        assert_eq!(Vec::<ShardMsg>::from_bytes(&bytes), Some(msgs.clone()));
        // Truncation is rejected, not mis-decoded.
        assert_eq!(Vec::<ShardMsg>::from_bytes(&bytes[..bytes.len() - 1]), None);
        // Modeled sizes match encoded discriminant + payload layout.
        let op = ShardMsg::Op(ShardOp::Put {
            key: "abc".into(),
            val: "de".into(),
        });
        assert_eq!(op.size_bytes(), 1 + 1 + 3 + 2);
    }

    #[test]
    fn sharded_state_matches_direct_apply() {
        let ops = script(40, 600, 0xD8);
        let (state, _) = run_local(3, ops.clone(), false);
        assert_eq!(state, apply_script(&ops));
    }

    #[test]
    fn state_is_identical_across_shard_counts() {
        let ops = script(25, 400, 0xBEEF);
        let (one, _) = run_local(1, ops.clone(), false);
        let (two, _) = run_local(2, ops.clone(), false);
        let (four, _) = run_local(4, ops, false);
        assert_eq!(one, two);
        assert_eq!(two, four);
    }

    #[test]
    fn batching_preserves_state_and_cuts_messages() {
        let ops = script(30, 500, 7);
        let (plain_state, plain_stats) = run_local(4, ops.clone(), false);
        let (batched_state, batched_stats) = run_local(4, ops, true);
        assert_eq!(plain_state, batched_state, "batching must not reorder");
        // Unbatched: one envelope per op (+ stops + reports). Batched:
        // tiny ops coalesce far below the α/β threshold, so whole queues
        // ship as single envelopes.
        assert!(
            batched_stats.messages < plain_stats.messages / 10,
            "batched {} vs plain {}",
            batched_stats.messages,
            plain_stats.messages
        );
    }

    #[test]
    fn traced_run_counts_every_op() {
        let ops = script(20, 300, 99);
        let shards = 3;
        let session = TraceSession::new();
        let (state, _) = run_local_traced(shards, ops.clone(), true, &session);
        assert_eq!(state, apply_script(&ops));
        let snap = session.snapshot();
        assert_eq!(snap.get("db.shard_ops"), ops.len() as u64);
        assert_eq!(snap.get("coll.coalesced_msgs"), ops.len() as u64);
        // Every envelope is a batch, a Stop or a state report.
        assert_eq!(
            snap.get("coll.coalesce_flushes") + 2 * shards as u64,
            snap.get("mpi.msgs")
        );
    }

    #[test]
    fn wire_sharded_matches_local_and_traces_per_process() {
        let dir = std::env::temp_dir().join(format!("pdc-shard-trace-{}", std::process::id()));
        let ops = script(30, 400, 0xACE);
        let opts = WireOptions::for_test(
            4,
            "sharded::tests::wire_sharded_matches_local_and_traces_per_process",
        )
        .traced(&dir);
        // The router's process builds the script; the parent never does.
        let built = std::cell::Cell::new(false);
        let run = run_wire(
            &opts,
            3,
            || {
                built.set(true);
                ops.clone()
            },
            true,
        );
        assert!(!built.get(), "the parent built the script");
        let (local_state, _) = run_local(3, ops.clone(), true);
        assert_eq!(run.results[0], local_state, "processes == threads");
        for shard in &run.results[1..] {
            assert!(shard.is_empty(), "only the router returns state");
        }
        let merged = run.trace.expect("traced run yields a merged trace");
        assert_eq!(merged.processes.len(), 4);
        assert_eq!(merged.counter("db.shard_ops"), ops.len() as u64);
        // The router sent every batch: its per-process msgs are nonzero,
        // and the cross-process sum matches the parent's socket count.
        assert!(merged.processes[0].counters.get("mpi.msgs").copied() > Some(0));
        assert_eq!(merged.counter("mpi.msgs"), run.stats.messages);
        std::fs::remove_dir_all(&dir).ok();
    }
}
