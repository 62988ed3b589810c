//! `experiments --serve`: the live-traffic failover gate.
//!
//! A closed-loop load generator — N client threads, each issuing its
//! next request only after the previous reply — drives the replicated
//! sharded KV ([`pdc_db::serve`]) over real TCP while one shard process
//! is SIGKILLed mid-run. The gate passes only if serving *kept its
//! promises through the failure*:
//!
//! * **Zero lost acknowledged writes** — the survivors' final state
//!   equals a direct single-node replay of exactly the acknowledged
//!   ops, in acknowledgement order.
//! * **The failure was detected and repaired** — `serve.promotions >= 1`
//!   and the death surfaced through the typed
//!   [`pdc_mpi::TransportError`] path, not a panic.
//! * **The survivors' communication is causally complete** — the merged
//!   `pdc-trace/3` snapshot, shrunk around the killed rank
//!   ([`pdc_analyze::shrink_failed`], the communicator-shrink
//!   analogue), passes [`pdc_analyze::analyze_merged`] clean.
//! * **Clients never noticed** — every request got its reply in order,
//!   `kv.conn_errors == 0`.
//!
//! Throughput and p50/p95/p99 reply latency are reported as a table and
//! captured in `pdc-tables/1` JSON, because a serving tier that
//! survives failures by stalling forever hasn't survived them.
//!
//! This is a *gate*, not a registry experiment: it spawns OS processes
//! and kills one, so it runs behind its own `--serve` flag rather than
//! inside the run-everything sweep.

use crate::verdict::{named, Expect, Registration, Verdicts};
use pdc_analyze::{analyze_merged, shrink_failed};
use pdc_core::report::{write_text_file, Table};
use pdc_core::rng::Rng;
use pdc_core::stats::Samples;
use pdc_core::trace::TraceSession;
use pdc_db::serve::{self, ServeOptions};
use pdc_db::sharded::apply_script;
use pdc_db::ShardOp;
use pdc_mpi::kv_tcp::TcpKvClient;
use pdc_mpi::WireOptions;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// World id the serve gate's shard children dispatch on (see
/// `experiments::main`).
pub const WORLD_ID: &str = "serve-gate";

const SHARDS: usize = 4;
const CLIENTS: usize = 8;
const OPS_PER_CLIENT: usize = 400;
const KILL_RANK: usize = 1;
const TRACE_DIR: &str = "target/pdc-trace/serve";

/// One client's deterministic op script: 70% PUT / 20% GET / 10% DEL
/// over a key space shared by all clients, so the killed shard's keys
/// see traffic from everyone, before and after the failure.
fn client_script(client: usize) -> Vec<String> {
    let mut rng = Rng::new(0xC0FFEE ^ client as u64);
    (0..OPS_PER_CLIENT)
        .map(|i| {
            let key = format!("k{}", rng.gen_range(96));
            match rng.gen_range(10) {
                0..=6 => format!("PUT {key} c{client}v{i}"),
                7..=8 => format!("GET {key}"),
                _ => format!("DEL {key}"),
            }
        })
        .collect()
}

/// The serve gate's verdicts: the kill is caught and every promise holds.
pub fn registered() -> Registration {
    named(&[
        ("every_op_acked", Expect::Holds),
        ("zero_lost_acked_writes", Expect::Holds),
        ("shard_death_detected", Expect::Detects),
        ("backup_promoted", Expect::Detects),
        ("no_client_errors", Expect::Holds),
        ("hub_forwards_nothing", Expect::Holds),
        ("survivor_trace_clean", Expect::Holds),
        ("merged_trace_on_disk", Expect::Holds),
        ("latency_table_on_disk", Expect::Holds),
    ])
}

/// Run the load, kill a shard mid-run, and record the verdicts.
pub fn gate(v: &mut Verdicts) {
    let total_ops = (CLIENTS * OPS_PER_CLIENT) as u64;
    let session = TraceSession::with_capacity(1 << 18);
    let opts = ServeOptions::new(
        SHARDS,
        WireOptions::for_args(SHARDS, WORLD_ID, &["--serve"]).traced(TRACE_DIR),
    );
    let handle = serve::start(opts, &session).expect("start serving tier");
    let addr = handle.addr();

    let completed = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                let mut client = TcpKvClient::connect(addr).expect("client connect");
                let mut lat: Vec<f64> = Vec::with_capacity(OPS_PER_CLIENT);
                for line in client_script(c) {
                    let sent = Instant::now();
                    let reply = client.call(&line).expect("closed-loop call");
                    lat.push(sent.elapsed().as_secs_f64() * 1e6);
                    assert!(
                        !reply.starts_with("ERR"),
                        "client {c}: {line:?} -> {reply:?}"
                    );
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                assert_eq!(client.call("QUIT").expect("quit"), "BYE");
                lat
            })
        })
        .collect();

    // Fault injection: once a quarter of the load has been served, kill
    // one shard out from under the remaining three quarters.
    while completed.load(Ordering::Relaxed) < total_ops / 4 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    handle.kill_shard(KILL_RANK);
    println!(
        "killed shard rank {KILL_RANK} after {} of {total_ops} ops",
        completed.load(Ordering::Relaxed)
    );

    let mut all_lat: Vec<f64> = Vec::with_capacity(total_ops as usize);
    for w in workers {
        all_lat.extend(w.join().expect("client thread"));
    }
    let latencies = Samples::from_vec(all_lat);
    let elapsed = t0.elapsed();
    let outcome = handle.finish();

    let acked_ops: Vec<ShardOp> = outcome.acked.iter().map(|(_, op)| op.clone()).collect();
    v.check(
        "every_op_acked",
        outcome.acked.len() as u64 == total_ops,
        format!("{} of {total_ops} issued ops", outcome.acked.len()),
    );
    v.check(
        "zero_lost_acked_writes",
        outcome.state == apply_script(&acked_ops),
        format!(
            "{} acked ops replayed against the survivors' state",
            acked_ops.len()
        ),
    );
    v.check(
        "shard_death_detected",
        outcome
            .dead
            .iter()
            .any(|d| d.rank == KILL_RANK && d.error.is_some()),
        format!("rank {KILL_RANK} killed; deaths {:?}", outcome.dead),
    );
    v.check(
        "backup_promoted",
        outcome.promotions >= 1,
        format!(
            "promotions={}, {} ops re-sent",
            outcome.promotions, outcome.retries
        ),
    );
    v.check(
        "no_client_errors",
        outcome.conn_errors == 0,
        format!("kv.conn_errors={}", outcome.conn_errors),
    );
    v.check(
        "hub_forwards_nothing",
        outcome.hub_forwarded == 0,
        format!(
            "{} chain frames through the hub (chain replication rides peer connections)",
            outcome.hub_forwarded
        ),
    );

    let merged = outcome.trace.as_ref().expect("traced run");
    let report = analyze_merged(&shrink_failed(merged, &[KILL_RANK as u32]));

    // ---- Throughput / latency report ----
    let throughput = total_ops as f64 / elapsed.as_secs_f64();
    let mut t = Table::new(
        format!(
            "serve gate (experiments --serve) — {CLIENTS} closed-loop clients, \
             {SHARDS} shards (rank {KILL_RANK} killed mid-run), 2-way replication"
        ),
        &["metric", "value"],
    );
    t.row(&["ops acked".into(), outcome.acked.len().to_string()]);
    t.row(&[
        "wall time (s)".into(),
        format!("{:.2}", elapsed.as_secs_f64()),
    ]);
    t.row(&["throughput (ops/s)".into(), format!("{throughput:.0}")]);
    t.row(&[
        "p50 latency (us)".into(),
        format!("{:.0}", latencies.percentile(50.0)),
    ]);
    t.row(&[
        "p95 latency (us)".into(),
        format!("{:.0}", latencies.percentile(95.0)),
    ]);
    t.row(&[
        "p99 latency (us)".into(),
        format!("{:.0}", latencies.percentile(99.0)),
    ]);
    t.row(&[
        "rebalanced keys".into(),
        merged.counter("serve.rebalanced_keys").to_string(),
    ]);
    let (rendered, tables) = pdc_core::report::capture_tables(|| t.render());
    print!("{rendered}");

    let dir = std::path::Path::new(TRACE_DIR);
    let tables_json = format!(
        "{{\"schema\":\"pdc-tables/1\",\"experiments\":[{{\"id\":\"serve-gate\",\"tables\":[{}]}}]}}",
        tables.join(",")
    );
    write_text_file(&dir.join("serve.tables.json"), &tables_json).expect("write tables json");
    write_text_file(
        &dir.join("merged.trace.json"),
        &merged.to_json(&[("source", "experiments --serve".to_string())]),
    )
    .expect("write merged trace");
    write_text_file(&dir.join("merged.analyze.json"), &report.to_json())
        .expect("write analyze report");
    v.file_contains(
        "survivor_trace_clean",
        &dir.join("merged.analyze.json"),
        &["\"clean\":true"],
    );
    v.file_contains(
        "merged_trace_on_disk",
        &dir.join("merged.trace.json"),
        &["\"schema\":\"pdc-trace/3\""],
    );
    v.file_contains(
        "latency_table_on_disk",
        &dir.join("serve.tables.json"),
        &["\"schema\":\"pdc-tables/1\"", "p99 latency"],
    );
}
