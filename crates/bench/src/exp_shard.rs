//! Sharded-KV and α–β batching experiments (Sec III-A, CS87: DHTs and
//! message-cost models).
//!
//! * [`shard`] — the consistent-hash ring fronting live shard ranks:
//!   the final KV state is invariant under the shard count, and routing
//!   tiny ops through a [`pdc_mpi::coll::Coalescer`] collapses the
//!   message count without changing the state.
//! * [`batch`] — the batching crossover *measured on real loopback
//!   sockets*: `k` small writes vs one coalesced write, against the
//!   α–β prediction `k(α+βn)` vs `α+βkn`. Below `n* = α/β` batching
//!   wins by up to `k×`; above it the two converge.
//! * [`gate`] — `experiments --shard`: one script as threads and as OS
//!   processes over loopback TCP must reach one state, and the merged
//!   `pdc-trace/3` snapshot must read back clean.
//!
//! The two experiments print `pdc-report` tables, which the `experiments`
//! binary captures into the `pdc-tables/1` JSON snapshot.

use crate::verdict::{named, Expect, Registration, Verdicts};
use pdc_core::merge::MergedTrace;
use pdc_core::report::{count_fmt, f, speedup_fmt, write_text_file, Table};
use pdc_db::sharded;
use pdc_mpi::cost::AlphaBeta;
use pdc_mpi::WireOptions;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;

/// Sharded KV over the ring: state determinism across shard counts and
/// the batching win, all in-process.
pub fn shard() -> String {
    let ops = sharded::script(64, 2_000, 0x5EED);
    let (reference, _) = sharded::run_local(1, ops.clone(), false);
    let mut t = Table::new(
        "E-shard — DHT-routed KV, 2000 ops over 64 keys (threads)",
        &[
            "shards",
            "keys left",
            "plain msgs",
            "batched msgs",
            "msg reduction",
            "state == 1-shard",
        ],
    );
    for shards in [1usize, 2, 4, 8] {
        let (plain_state, plain) = sharded::run_local(shards, ops.clone(), false);
        let (batched_state, batched) = sharded::run_local(shards, ops.clone(), true);
        assert_eq!(plain_state, batched_state, "batching must not reorder");
        t.row(&[
            shards.to_string(),
            plain_state.len().to_string(),
            count_fmt(plain.messages),
            count_fmt(batched.messages),
            speedup_fmt(plain.messages as f64 / batched.messages as f64),
            (plain_state == reference).to_string(),
        ]);
    }
    let mut out = t.render();
    out.push('\n');

    // Ring balance for the same key universe the script draws from.
    let ring = sharded::shard_ring(4);
    let keys: Vec<String> = (0..64).map(|i| format!("k{i}")).collect();
    let dist = ring.load_distribution(&keys);
    let mut t = Table::new(
        "E-shard — ring balance, 64 keys over 4 shards (64 vnodes each)",
        &["shard", "keys owned"],
    );
    for (node, n) in &dist {
        t.row(&[node.to_string(), n.to_string()]);
    }
    out.push_str(&t.render());
    out
}

/// Sink server: reads exactly `total` bytes per round, acks with one
/// byte so the client can time the full delivery.
fn sink(listener: TcpListener, rounds: usize, total: usize) {
    let (mut s, _) = listener.accept().expect("accept");
    s.set_nodelay(true).expect("nodelay");
    let mut buf = vec![0u8; 64 * 1024];
    for _ in 0..rounds {
        let mut got = 0;
        while got < total {
            let n = s.read(&mut buf).expect("sink read");
            assert!(n > 0, "client hung up mid-round");
            got += n;
        }
        s.write_all(&[1]).expect("ack");
    }
}

/// Time `rounds` deliveries of `k` chunks of `n` bytes, either as `k`
/// separate writes (`coalesced = false`) or one big write. Returns
/// seconds per round.
fn measure(k: usize, n: usize, rounds: usize, coalesced: bool) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let total = k * n;
    let server = std::thread::spawn(move || sink(listener, rounds, total));
    let mut s = TcpStream::connect(addr).expect("connect");
    // TCP_NODELAY: without it Nagle coalesces behind our back and the
    // "many small writes" side would not pay its per-message cost.
    s.set_nodelay(true).expect("nodelay");
    let chunk = vec![0xA5u8; n];
    let whole = vec![0xA5u8; total];
    let mut ack = [0u8; 1];
    let start = std::time::Instant::now();
    for _ in 0..rounds {
        if coalesced {
            s.write_all(&whole).expect("write");
        } else {
            for _ in 0..k {
                s.write_all(&chunk).expect("write");
            }
        }
        s.read_exact(&mut ack).expect("ack");
    }
    let per_round = start.elapsed().as_secs_f64() / rounds as f64;
    server.join().expect("sink thread");
    per_round
}

/// The α–β batching crossover on real loopback sockets.
pub fn batch() -> String {
    let model = AlphaBeta::cluster();
    let k = 64;
    let rounds = 20;
    let mut t = Table::new(
        "E-batch — k=64 chunks: many writes vs one coalesced write (loopback TCP, nodelay)",
        &[
            "n (bytes)",
            "vs n* = alpha/beta",
            "many (us)",
            "coalesced (us)",
            "measured ratio",
            "modeled ratio",
        ],
    );
    for n in [16usize, 256, 4_096, 65_536, 1 << 20] {
        let many = measure(k, n, rounds, false);
        let one = measure(k, n, rounds, true);
        let modeled = model.p2p_many(k as u64, n as u64) / model.p2p_coalesced(k as u64, n as u64);
        let regime = if (n as u64) < model.coalesce_threshold() {
            "below (latency-bound)"
        } else {
            "above (bandwidth-bound)"
        };
        t.row(&[
            count_fmt(n as u64),
            regime.to_string(),
            f(many * 1e6, 1),
            f(one * 1e6, 1),
            speedup_fmt(many / one),
            f(modeled, 2),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\nmodel: alpha = {:.0e} s, beta = {:.0e} s/B, crossover n* = {} bytes\n",
        model.alpha,
        model.beta,
        model.coalesce_threshold()
    ));
    out
}

const GATE_SHARDS: usize = 3;

/// Child re-entry point: a re-executed child runs its rank inside
/// [`gate`]'s `run_wire` and exits there, before any verdict.
pub fn reenter() -> ! {
    gate(&mut Verdicts::new("shard", Vec::new()));
    unreachable!("wire child returned from its world");
}

/// The shard gate's verdicts.
pub fn registered() -> Registration {
    named(&[
        ("states_identical", Expect::Holds),
        ("batching_cuts_messages", Expect::Holds),
        ("shards_served_every_op", Expect::Holds),
        ("merged_trace_on_disk", Expect::Holds),
        ("merged_trace_clean", Expect::Holds),
    ])
}

/// `--shard`: one op script three ways — single process unbatched,
/// single process batched, and as OS processes with batching — must
/// land on one final state. The wire run's per-process snapshots merge
/// into one `pdc-trace/3` document, read back from disk.
pub fn gate(v: &mut Verdicts) {
    let ops = sharded::script(64, 2_000, 0x5EED);
    let dir = Path::new("target/pdc-trace/shard");
    let opts = WireOptions::for_args(GATE_SHARDS + 1, "shard-gate", &["--shard"]).traced(dir);
    // Children exit inside this call; everything below is parent-only.
    let wire = sharded::run_wire(&opts, GATE_SHARDS, ops.clone(), true);
    let (plain_state, plain_stats) = sharded::run_local(GATE_SHARDS, ops.clone(), false);
    let (batched_state, batched_stats) = sharded::run_local(GATE_SHARDS, ops.clone(), true);
    let merged = wire.trace.as_ref().expect("traced wire run");

    v.check(
        "states_identical",
        wire.results[0] == plain_state && batched_state == plain_state,
        format!(
            "keys left: {} by processes, {} by threads, {} batched",
            wire.results[0].len(),
            plain_state.len(),
            batched_state.len()
        ),
    );
    v.check(
        "batching_cuts_messages",
        batched_stats.messages < plain_stats.messages,
        format!(
            "{} messages batched vs {} unbatched ({} across processes)",
            batched_stats.messages, plain_stats.messages, wire.stats.messages
        ),
    );
    v.check(
        "shards_served_every_op",
        merged.counter("db.shard_ops") == ops.len() as u64,
        format!("{} of {} ops", merged.counter("db.shard_ops"), ops.len()),
    );

    let trace_path = dir.join("merged.trace.json");
    write_text_file(
        &trace_path,
        &merged.to_json(&[("source", "experiments --shard".to_string())]),
    )
    .expect("write merged trace");
    write_text_file(
        &dir.join("merged.analyze.json"),
        &pdc_analyze::analyze_merged(merged).to_json(),
    )
    .expect("write merged analyze report");

    // Every process moved real messages: a zero would mean a rank ran
    // outside the transport seam.
    let msgs = std::fs::read_to_string(&trace_path)
        .map_err(|e| e.to_string())
        .and_then(|json| MergedTrace::parse(&json))
        .map(|t| {
            t.processes
                .iter()
                .map(|p| p.counters.get("mpi.msgs").copied().unwrap_or(0))
                .collect::<Vec<u64>>()
        });
    v.check(
        "merged_trace_on_disk",
        msgs.as_ref()
            .is_ok_and(|m| m.len() == GATE_SHARDS + 1 && m.iter().all(|&n| n > 0)),
        format!("pdc-trace/3 mpi.msgs per process: {msgs:?}"),
    );
    v.evidence("merged_trace_on_disk", &trace_path);
    v.file_contains(
        "merged_trace_clean",
        &dir.join("merged.analyze.json"),
        &["\"clean\":true"],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_experiment_reports_determinism() {
        let out = shard();
        assert!(out.contains("##"), "must render a table");
        // Every shard count reproduced the single-shard state.
        assert!(!out.contains("false"), "{out}");
    }

    #[test]
    fn batch_measure_moves_real_bytes() {
        // Smoke test only — CI boxes are too noisy to assert on time.
        let t = measure(8, 64, 2, false);
        assert!(t > 0.0);
        let t = measure(8, 64, 2, true);
        assert!(t > 0.0);
    }
}
