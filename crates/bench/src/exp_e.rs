//! Prose-section experiments: GPU ladder, collectives, false sharing,
//! MapReduce, the α–β batching crossover on real loopback sockets,
//! client-server.

use crate::WALL_REPS;
use pdc_core::report::{count_fmt, f, speedup_fmt, Table};
use pdc_core::rng::Rng;
use pdc_core::stats::time_op;
use pdc_db::wordcount::tokens;
use pdc_gpu::device::GpuConfig;
use pdc_gpu::kernels::{reduce_global, reduce_shared_interleaved, reduce_shared_sequential};
use pdc_memsim::coherence::{counter_increment_trace, CoherenceSim, Protocol};
use pdc_mpi::coll;
use pdc_mpi::cost::{self, AlphaBeta};
use pdc_mpi::ft::{run_farm, Crash, Task};
use pdc_mpi::kv::{Request, Server};
use pdc_mpi::mapreduce::run_ranks;
use pdc_mpi::world::{Rank, World};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};

/// The CUDA reduction optimization ladder (CS40's "parallel reductions
/// on large arrays").
pub fn gpu() -> String {
    let mut rng = Rng::new(2023);
    let input: Vec<i64> = (0..1 << 16).map(|_| rng.gen_range(100) as i64).collect();
    let want: i64 = input.iter().sum();
    let cfg = GpuConfig::default();
    let mut t = Table::new(
        "E-gpu — reduction ladder, n = 65_536, block = 256 (simulated SIMT)",
        &[
            "variant",
            "sum ok",
            "global txns",
            "warp eff",
            "coalesce eff",
            "cycles",
            "speedup",
        ],
    );
    let runs = [
        ("global-memory tree", reduce_global(&input, 256)),
        (
            "shared, interleaved",
            reduce_shared_interleaved(&input, 256),
        ),
        ("shared, sequential", reduce_shared_sequential(&input, 256)),
    ];
    let base = runs[0].1 .1.cycles(&cfg) as f64;
    for (name, (sum, stats)) in &runs {
        t.row(&[
            name.to_string(),
            (sum == &want).to_string(),
            count_fmt(stats.global_transactions),
            f(stats.warp_efficiency(), 3),
            f(stats.coalescing_efficiency(&cfg), 3),
            count_fmt(stats.cycles(&cfg)),
            speedup_fmt(base / stats.cycles(&cfg) as f64),
        ]);
    }
    t.render()
}

/// Collectives: measured message counts vs the α–β formulas, and modeled
/// time scaling.
pub fn collectives() -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "E-collectives — measured messages vs formula",
        &["collective", "p", "measured", "formula"],
    );
    for p in [2usize, 4, 8] {
        let (_, s) = World::run(p, |r: &mut Rank<u64>| {
            coll::broadcast(r, 0, (r.id() == 0).then_some(1))
        });
        t.row(&[
            "broadcast (binomial)".into(),
            p.to_string(),
            s.messages.to_string(),
            cost::broadcast_msgs(p as u64).to_string(),
        ]);
        let (_, s) = World::run(p, |r: &mut Rank<u64>| {
            coll::allreduce(r, r.id() as u64, |a, b| a + b)
        });
        t.row(&[
            "allreduce (tree)".into(),
            p.to_string(),
            s.messages.to_string(),
            cost::allreduce_msgs(p as u64).to_string(),
        ]);
        let (_, s) = World::run(p, |r: &mut Rank<u64>| coll::allgather(r, r.id() as u64));
        t.row(&[
            "allgather (ring)".into(),
            p.to_string(),
            s.messages.to_string(),
            cost::allgather_msgs(p as u64).to_string(),
        ]);
        let (_, s) = World::run(p, |r: &mut Rank<u64>| coll::barrier(r));
        t.row(&[
            "barrier (dissemination)".into(),
            p.to_string(),
            s.messages.to_string(),
            cost::barrier_msgs(p as u64).to_string(),
        ]);
        let (_, s) = World::run(p, move |r: &mut Rank<Vec<i64>>| {
            let n = 24; // divisible by 2, 4, 8
            let mine: Vec<i64> = (0..n).map(|j| (r.id() + j) as i64).collect();
            coll::ring_allreduce(r, mine, |a, b| a + b)
        });
        t.row(&[
            "allreduce (ring)".into(),
            p.to_string(),
            s.messages.to_string(),
            cost::ring_allreduce_msgs(p as u64).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    // Modeled time: tree vs linear broadcast on a cluster.
    let m = AlphaBeta::cluster();
    let mut t = Table::new(
        "E-collectives — modeled broadcast time, 1 KiB message (alpha-beta)",
        &["p", "linear (us)", "binomial tree (us)", "tree speedup"],
    );
    for p in [2u64, 8, 64, 512] {
        let lin = cost::broadcast_linear_time(m, p, 1024) * 1e6;
        let tree = cost::broadcast_time(m, p, 1024) * 1e6;
        t.row(&[
            p.to_string(),
            f(lin, 2),
            f(tree, 2),
            speedup_fmt(lin / tree),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Tree vs ring allreduce: the bandwidth crossover (α–β model).
pub fn allreduce_crossover() -> String {
    let m = AlphaBeta::cluster();
    let p = 64;
    let mut t = Table::new(
        "E-ft/allreduce — tree vs ring allreduce, p = 64 (modeled time, us)",
        &[
            "message size",
            "tree 2log2(p)(a+bn)",
            "ring 2(p-1)(a+bn/p)",
            "winner",
        ],
    );
    for n in [8u64, 1 << 10, 1 << 16, 1 << 20, 1 << 26, 1 << 30] {
        let tree = cost::allreduce_time(m, p, n) * 1e6;
        let ring = cost::ring_allreduce_time(m, p, n) * 1e6;
        t.row(&[
            count_fmt(n),
            f(tree, 2),
            f(ring, 2),
            if tree < ring { "tree" } else { "ring" }.to_string(),
        ]);
    }
    t.render()
}

/// Fault-tolerant master-worker farming under injected crashes.
pub fn fault_tolerance() -> String {
    let tasks: Vec<Task> = (0..20).map(|id| Task { id, duration: 5 }).collect();
    let mut t = Table::new(
        "E-ft — task farm: 20 tasks x 5 ticks, 4 workers, heartbeat timeout 3",
        &[
            "scenario",
            "makespan",
            "executions",
            "reassigned",
            "survivors",
            "all done",
        ],
    );
    let scenarios: Vec<(&str, Vec<Crash>)> = vec![
        ("no failures", vec![]),
        (
            "one crash early",
            vec![Crash {
                worker: 0,
                at_tick: 2,
            }],
        ),
        (
            "two crashes",
            vec![
                Crash {
                    worker: 0,
                    at_tick: 2,
                },
                Crash {
                    worker: 1,
                    at_tick: 12,
                },
            ],
        ),
        (
            "three crashes",
            vec![
                Crash {
                    worker: 0,
                    at_tick: 2,
                },
                Crash {
                    worker: 1,
                    at_tick: 7,
                },
                Crash {
                    worker: 2,
                    at_tick: 12,
                },
            ],
        ),
    ];
    for (name, crashes) in scenarios {
        let out = run_farm(&tasks, 4, &crashes, 3);
        t.row(&[
            name.into(),
            out.makespan.to_string(),
            out.executions.to_string(),
            out.reassignments.to_string(),
            out.survivors.to_string(),
            (out.completed.len() == 20).to_string(),
        ]);
    }
    t.render()
}

/// Threads and per-thread relaxed increments of the real-counters table.
const COUNTER_THREADS: usize = 4;
const COUNTER_INCREMENTS: u64 = 20_000;

/// False sharing through the MESI simulator, then on real threads:
/// padded vs packed counters.
pub fn false_sharing() -> String {
    let mut t = Table::new(
        "E-falsesharing — per-thread counters through MESI (250 increments each)",
        &[
            "cores",
            "layout",
            "bus txns",
            "invalidations",
            "txns/increment",
        ],
    );
    for cores in [2usize, 4, 8] {
        for (layout, pad) in [("packed (8 B apart)", 8u64), ("padded (64 B apart)", 64)] {
            let mut sim = CoherenceSim::new(Protocol::Mesi, cores, 64);
            let tr = counter_increment_trace(cores, 250, pad);
            let s = sim.run_trace(&tr);
            t.row(&[
                cores.to_string(),
                layout.to_string(),
                count_fmt(s.bus_traffic()),
                count_fmt(s.invalidations),
                f(s.bus_traffic() as f64 / (250.0 * cores as f64), 3),
            ]);
        }
    }
    let mut out = t.render();
    out.push('\n');
    out.push_str(&real_counters());
    out
}

/// The wall-clock companion: one counter per thread, packed into one
/// cache line or padded to a line each. The gap shows only on real
/// multicore hardware.
fn real_counters() -> String {
    #[repr(align(64))]
    struct Padded(AtomicU64);

    fn hammer(counters: &[&AtomicU64]) {
        std::thread::scope(|s| {
            for &c in counters {
                s.spawn(move || {
                    for _ in 0..COUNTER_INCREMENTS {
                        c.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
    }
    let packed = time_op(WALL_REPS, || {
        let counters: Vec<AtomicU64> = (0..COUNTER_THREADS).map(|_| AtomicU64::new(0)).collect();
        hammer(&counters.iter().collect::<Vec<_>>());
    });
    let padded = time_op(WALL_REPS, || {
        let counters: Vec<Padded> = (0..COUNTER_THREADS)
            .map(|_| Padded(AtomicU64::new(0)))
            .collect();
        hammer(&counters.iter().map(|c| &c.0).collect::<Vec<_>>());
    });
    let mut t = Table::new(
        format!(
            "E-falsesharing — real threads: {COUNTER_THREADS} threads x {} relaxed increments of their own counter",
            count_fmt(COUNTER_INCREMENTS)
        ),
        &["layout", "median (us)", "vs packed"],
    );
    for (layout, timing) in [
        ("packed (8 B apart)", packed),
        ("padded (64 B apart)", padded),
    ] {
        let secs = timing.median.as_secs_f64();
        t.row(&[
            layout.to_string(),
            f(secs * 1e6, 1),
            speedup_fmt(packed.median.as_secs_f64() / secs),
        ]);
    }
    t.render()
}

/// MapReduce word count (the Hadoop-lab substitute) on 1, 2 and 4
/// ranks. Each rank combines its counts before the shuffle, so a job
/// sends p(p − 1) + (p − 1) messages however many pairs the map side
/// emits.
pub fn mapreduce() -> String {
    let corpus: Vec<String> = (0..64)
        .map(|i| {
            format!(
                "the quick brown fox {} jumps over the lazy dog {}",
                ["alpha", "beta", "gamma", "delta"][i % 4],
                i % 7
            )
        })
        .collect();
    let emitted: usize = corpus.iter().map(|doc| tokens(doc).count()).sum();
    let mut t = Table::new(
        format!(
            "E-mapreduce — word count over {} documents, {} pairs emitted",
            corpus.len(),
            count_fmt(emitted as u64)
        ),
        &[
            "ranks",
            "distinct keys",
            "'the' count",
            "messages",
            "formula",
            "bytes",
        ],
    );
    for p in [1usize, 2, 4] {
        let (mut out, traffic) = World::run(p, |rank: &mut Rank<Vec<(String, u64)>>| {
            let splits = corpus.iter().skip(rank.id()).step_by(p);
            run_ranks(
                rank,
                splits,
                |doc| tokens(doc).map(|w| (w, 1)),
                |n, m| *n += m,
            )
        });
        let counts = out.swap_remove(0).expect("rank 0 is the gather's root");
        let the = counts
            .iter()
            .find(|(w, _)| w == "the")
            .map_or(0, |&(_, c)| c);
        t.row(&[
            p.to_string(),
            counts.len().to_string(),
            the.to_string(),
            traffic.messages.to_string(),
            // The alltoall's p(p − 1) and the gather's p − 1.
            (p * (p - 1) + (p - 1)).to_string(),
            count_fmt(traffic.bytes),
        ]);
    }
    t.render()
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

/// Client-server KV store: request mix and linearized CAS.
pub fn kv() -> String {
    let (server, client) = Server::start();
    for i in 0..100 {
        client.put(&format!("user{}", i % 10), &format!("v{i}"));
    }
    let mut hits = 0;
    for i in 0..50 {
        if client.get(&format!("user{}", i % 20)).is_some() {
            hits += 1;
        }
    }
    let _ = client.call(Request::Cas {
        key: "user0".into(),
        expect_version: 1, // stale: user0 was rewritten 10 times
        value: "hacked".into(),
    });
    let stats = server.shutdown();
    let mut t = Table::new(
        "E-kv — client-server KV store session",
        &["metric", "value"],
    );
    t.row(&["requests serviced".into(), stats.requests.to_string()]);
    t.row(&["get hits".into(), hits.to_string()]);
    t.row(&["cas conflicts".into(), stats.cas_conflicts.to_string()]);
    t.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn gpu_ladder_improves_monotonically() {
        let out = super::gpu();
        assert!(out.contains("shared, sequential"));
        assert!(!out.contains("false"), "all sums must be correct");
    }

    #[test]
    fn collectives_measured_equals_formula() {
        let out = super::collectives();
        // Spot-check one row: broadcast p=8 -> 7 messages both columns.
        let line = out
            .lines()
            .find(|l| l.contains("broadcast") && l.contains(" 8 "))
            .expect("row exists");
        let nums: Vec<&str> = line.split_whitespace().rev().take(2).collect();
        assert_eq!(nums[0], nums[1], "measured != formula in {line}");
    }

    #[test]
    fn mapreduce_messages_equal_formula() {
        let out = super::mapreduce();
        // Data rows start with the rank count: 1, 2 and 4.
        let rows: Vec<Vec<&str>> = out
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .filter(|cells| cells.len() == 6 && ["1", "2", "4"].contains(&cells[0]))
            .collect();
        assert_eq!(rows.len(), 3, "one row per world size in\n{out}");
        for row in &rows {
            // The same keys and count of "the" at every world size.
            assert_eq!(row[1..3], rows[0][1..3], "in {row:?}");
            assert_eq!(row[3], row[4], "measured != formula in {row:?}");
        }
        assert_eq!(rows[0][1..3], ["19", "128"]);
    }

    #[test]
    fn false_sharing_padding_wins() {
        let out = super::false_sharing();
        assert!(out.contains("padded"));
    }

    #[test]
    fn batch_measure_moves_real_bytes() {
        // Smoke test only — CI boxes are too noisy to assert on time.
        let t = super::measure(8, 64, 2, false);
        assert!(t > 0.0);
        let t = super::measure(8, 64, 2, true);
        assert!(t > 0.0);
    }
}
