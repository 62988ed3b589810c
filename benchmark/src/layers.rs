//! Single-layer probes: the serve workload's op stream replayed through
//! the ring, the store, and the frame codec in-process, and the wire
//! transport's latency, bandwidth and world lifecycle between child
//! processes.

use crate::serve::{OpGen, SHARDS};
use crate::spans::Spans;
use crate::{Metrics, Scale, Tally};
use pdc_core::stats::Samples;
use pdc_db::serve::{ApplyCmd, Reply, ServeMsg};
use pdc_db::sharded::shard_ring;
use pdc_db::{apply_op, Applied, ShardOp};
use pdc_mpi::{Rank, WireMessage, WireOptions, WireTransport, WireWorld};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// World id of the ping-pong and bulk-stream probe.
pub const WORLD_PINGPONG: &str = "bench-wire-pingpong";
/// World id of the empty-body lifecycle probe.
pub const WORLD_EMPTY: &str = "bench-wire-empty";

/// Replayed ops per probe repetition.
const REPLAY_OPS: u64 = 20_000;
/// Repetitions per probe; each reports its median.
const REPS: usize = 5;
/// Timed 8-byte round trips per ping-pong world.
const PING_ITERS: u32 = 1_000;
const PING_WARMUP: u32 = 50;
/// Bulk stream: 32 messages of 256 KiB (8 MiB).
const CHUNK: usize = 256 * 1024;
const CHUNKS: u32 = 32;
/// Worlds per wire probe; each reports its median.
const WORLDS: usize = 3;

type WireRank = Rank<Vec<u8>, WireTransport<Vec<u8>>>;

/// Options of the ping-pong world: two child ranks, no arguments,
/// since `main` dispatches children before parsing any.
pub fn pingpong_opts() -> WireOptions {
    WireOptions::for_args(2, WORLD_PINGPONG, &[])
}

/// Options of the empty-body world.
pub fn empty_opts() -> WireOptions {
    WireOptions::for_args(2, WORLD_EMPTY, &[])
}

/// Rank body of the ping-pong world. Rank 0 returns the round-trip
/// phase's nanoseconds, rank 1 the bulk stream's.
pub fn pingpong(r: &mut WireRank) -> u64 {
    let tiny = vec![0u8; 8];
    if r.id() == 0 {
        for _ in 0..PING_WARMUP {
            r.send(1, 1, tiny.clone());
            r.recv(1, 1);
        }
        let t0 = Instant::now();
        for _ in 0..PING_ITERS {
            r.send(1, 1, tiny.clone());
            r.recv(1, 1);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        r.recv(1, 2);
        let blob = vec![0u8; CHUNK];
        for _ in 0..CHUNKS {
            r.send(1, 3, blob.clone());
        }
        ns
    } else {
        for _ in 0..(PING_WARMUP + PING_ITERS) {
            r.recv(0, 1);
            r.send(0, 1, tiny.clone());
        }
        let t0 = Instant::now();
        r.send(0, 2, vec![1]);
        for _ in 0..CHUNKS {
            r.recv(0, 3);
        }
        t0.elapsed().as_nanos() as u64
    }
}

/// Rank body of the lifecycle world: nothing.
pub fn empty(_: &mut WireRank) -> u64 {
    0
}

/// Median nanoseconds per op of `REPS` timed repetitions of `f`, each
/// inside a span.
fn per_op_ns(spans: &mut Spans, name: &str, ops: usize, mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|i| {
            let span = spans.open(name, i as u64, None);
            f();
            spans.close(span) as f64 / ops as f64
        })
        .collect();
    Samples::from_vec(reps).median()
}

/// Replay connection 0's op stream through the routing ring, the store's
/// apply, and the serve frame codec; returns their summed ns per op.
pub fn replay(gen: &OpGen, scale: &Scale, spans: &mut Spans, out: &mut Metrics) -> f64 {
    let n = if scale.smoke { 500 } else { REPLAY_OPS }.min(gen.len(0));
    let ops: Vec<ShardOp> = (0..n).map(|i| gen.op(0, i)).collect();

    let ring = shard_ring(SHARDS);
    let route_ns = per_op_ns(spans, "layer.route", ops.len(), || {
        for op in &ops {
            black_box(ring.nodes_for(op.key(), 2));
        }
    });
    let mut load = [0usize; SHARDS];
    for op in &ops {
        load[ring.nodes_for(op.key(), 2)[0] as usize] += 1;
    }
    let hot_share = *load.iter().max().expect("shards") as f64 / ops.len() as f64 * 100.0;

    // Each repetition starts from the empty store the tier starts from.
    let mut store = BTreeMap::new();
    let apply_ns = per_op_ns(spans, "layer.apply", ops.len(), || {
        store.clear();
        for op in &ops {
            black_box(apply_op(&mut store, op));
        }
    });

    // The frames each op puts on the wire: front end → primary, primary
    // → backup for a write, tail → front end.
    store.clear();
    let mut frames: Vec<ServeMsg> = Vec::new();
    for (id, op) in ops.iter().enumerate() {
        let id = id as u64;
        frames.push(ServeMsg::Op {
            id,
            op: op.clone(),
            backup: 2,
        });
        let (cmd, reply) = match (apply_op(&mut store, op), op) {
            (Applied::Got(found), _) => {
                let reply = Reply::Got(found);
                frames.push(ServeMsg::Ack { id, reply });
                continue;
            }
            (Applied::Put(ver), ShardOp::Put { key, val }) => (
                ApplyCmd::Set {
                    key: key.clone(),
                    val: val.clone(),
                    ver,
                },
                Reply::PutOk(ver),
            ),
            (Applied::Del(hit), ShardOp::Del { key }) => (
                ApplyCmd::Del { key: key.clone() },
                if hit { Reply::DelOk } else { Reply::DelMiss },
            ),
            (applied, op) => unreachable!("{op:?} applied as {applied:?}"),
        };
        frames.push(ServeMsg::Fwd {
            id,
            cmd,
            reply: reply.clone(),
        });
        frames.push(ServeMsg::Ack { id, reply });
    }
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| {
            let mut buf = Vec::new();
            f.encode(&mut buf);
            buf
        })
        .collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mut buf = Vec::with_capacity(4096);
    let encode_ns = per_op_ns(spans, "layer.codec.encode", ops.len(), || {
        for f in &frames {
            buf.clear();
            f.encode(&mut buf);
            black_box(&buf);
        }
    });
    let decode_ns = per_op_ns(spans, "layer.codec.decode", ops.len(), || {
        for e in &encoded {
            black_box(ServeMsg::decode(&mut e.as_slice()));
        }
    });

    out.put("route.ns_per_op", route_ns, "ns");
    out.put("route.hot_shard_share", hot_share, "%");
    out.put("apply.ns_per_op", apply_ns, "ns");
    out.put("codec.encode_ns_per_op", encode_ns, "ns");
    out.put("codec.decode_ns_per_op", decode_ns, "ns");
    out.put("codec.bytes_per_op", bytes as f64 / ops.len() as f64, "B");
    route_ns + apply_ns + encode_ns + decode_ns
}

/// The wire transport between two child ranks: one-way latency α from
/// 8-byte round trips, bandwidth from an 8 MiB stream, the cost of an
/// empty world's spawn/bootstrap/teardown, and messages per world. No
/// frame may be relayed by the parent on the mesh. Returns α in µs.
pub fn wire(spans: &mut Spans, out: &mut Metrics, tally: &mut Tally) -> f64 {
    let (mut alpha_us, mut bw, mut msgs) = (Vec::new(), Vec::new(), 0);
    for i in 0..WORLDS {
        let span = spans.open("layer.wire.pingpong", i as u64, None);
        let run = WireWorld::run(&pingpong_opts(), pingpong);
        spans.close(span);
        tally.attempted += 1;
        if run.forwarded != 0 {
            tally.fail_op(format!(
                "mesh world relayed {} frames through the parent",
                run.forwarded
            ));
        }
        alpha_us.push(run.results[0] as f64 / (2.0 * f64::from(PING_ITERS)) / 1e3);
        bw.push(
            (CHUNK as f64 * f64::from(CHUNKS) / (1 << 20) as f64) / (run.results[1] as f64 / 1e9),
        );
        msgs = run.stats.messages;
    }
    let lifecycle: Vec<f64> = (0..WORLDS)
        .map(|i| {
            let span = spans.open("layer.wire.empty", i as u64, None);
            WireWorld::run(&empty_opts(), empty);
            tally.attempted += 1;
            spans.close(span) as f64 / 1e6
        })
        .collect();
    let alpha = Samples::from_vec(alpha_us).median();
    out.put("wire.alpha_us", alpha, "us");
    out.put("wire.bw_mb_s", Samples::from_vec(bw).median(), "MB/s");
    out.put(
        "wire.lifecycle_ms",
        Samples::from_vec(lifecycle).median(),
        "ms",
    );
    out.put("wire.msgs_per_job", msgs as f64, "count");
    alpha
}
