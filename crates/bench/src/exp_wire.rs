//! `experiments --wire`: the wire gate — one hop against two, measured.
//!
//! Every wire world is a full mesh: children hold a direct TCP
//! connection per pair and the parent is a control plane only. The
//! two-hop path that a star layout would force on every message is
//! measured here as what it is — an application-level relay — inside
//! the same three-rank world:
//!
//! * **one hop**: ranks 1 and 2 exchange directly;
//! * **two hops**: rank 1 sends to rank 0, which re-sends to rank 2 (and
//!   back the same way), store-and-forward.
//!
//! Two kinds of evidence are collected, each checked in *both*
//! directions:
//!
//! 1. **Hop counts** (exact): the parent relays nothing
//!    (`WireRun::forwarded == 0`) while rank 0 re-sends every relayed
//!    frame.
//! 2. **α–β parameters** (measured wall-clock): an 8-byte ping-pong pins
//!    the per-message latency α of each path; a bulk stream pins the
//!    per-byte cost β. The relay must cost more α, and with it push the
//!    coalescing threshold `n* = α/β` right — the direction
//!    [`pdc_mpi::cost::AlphaBeta::with_hops`] models (α × hops, β
//!    unchanged), printed alongside for comparison.
//!
//! Results land as a table on stdout and as `pdc-tables/1` JSON at
//! `target/pdc-trace/wire/wire.tables.json` for the CI artifact.
//!
//! Like the other process-spawning gates this runs behind its own flag
//! (`--wire`), not inside the registry sweep.

use crate::verdict::{named, Expect, Registration, Verdicts};
use pdc_core::report::{capture_tables, write_text_file, Table};
use pdc_mpi::cost::AlphaBeta;
use pdc_mpi::{Rank, WireOptions, WireTransport, WireWorld};
use std::time::Instant;

/// World id of the measurement world (children dispatch on this in
/// `experiments::main`).
pub const WORLD_ID: &str = "wire-bench";

/// Timed round trips for the latency estimate.
const PING_ITERS: u32 = 400;
/// Untimed round trips to warm caches, buffers, and the connection.
const WARMUP_ITERS: u32 = 50;
/// Bulk-stream chunk size (bytes).
const CHUNK: usize = 256 * 1024;
/// Bulk-stream chunk count (total bytes = CHUNK * CHUNKS).
const CHUNKS: u32 = 32;
/// Independent world runs; the minimum wins (standard for latency:
/// noise is strictly additive).
const TRIALS: usize = 3;

/// Frames rank 0 must re-send per world: both legs of every relayed
/// round trip, plus every relayed chunk.
const RELAYED_PER_WORLD: u64 = 2 * (WARMUP_ITERS + PING_ITERS) as u64 + CHUNKS as u64;

// Tags: direct ping, stream go, direct chunk, relay up (to rank 0),
// relay down (from rank 0).
const TAG_PING: u32 = 1;
const TAG_GO: u32 = 2;
const TAG_CHUNK: u32 = 3;
const TAG_UP: u32 = 4;
const TAG_DOWN: u32 = 5;

type WireRank = Rank<String, WireTransport<String>>;

/// One path's measured α–β point.
#[derive(Clone, Copy)]
struct Path {
    /// One-way per-message latency, microseconds.
    alpha_us: f64,
    /// Per-byte cost, nanoseconds.
    beta_ns: f64,
}

impl Path {
    fn from_ns(pingpong_ns: u64, stream_ns: u64) -> Path {
        Path {
            // A round trip is two one-way messages.
            alpha_us: pingpong_ns as f64 / (2.0 * f64::from(PING_ITERS)) / 1e3,
            beta_ns: stream_ns as f64 / (f64::from(CHUNKS) * CHUNK as f64),
        }
    }

    /// The coalescing threshold `n* = α/β`, bytes.
    fn crossover_bytes(&self) -> f64 {
        (self.alpha_us * 1e3) / self.beta_ns
    }
}

/// Ping-pong `iters` round trips from rank 1 to rank 2, directly or
/// through rank 0; returns elapsed nanoseconds.
fn ping(r: &mut WireRank, relay: bool, iters: u32) -> u64 {
    let tiny = "x".repeat(8);
    let t0 = Instant::now();
    for _ in 0..iters {
        if relay {
            r.send(0, TAG_UP, tiny.clone());
            r.recv(0, TAG_DOWN);
        } else {
            r.send(2, TAG_PING, tiny.clone());
            r.recv(2, TAG_PING);
        }
    }
    t0.elapsed().as_nanos() as u64
}

/// The per-rank body. Rank 1 returns `[direct, relayed]` ping-pong
/// nanoseconds, rank 2 `[direct, relayed]` stream nanoseconds, rank 0
/// `[frames relayed]`.
fn measure_rank(r: &mut WireRank) -> Vec<u64> {
    let blob = "x".repeat(CHUNK);
    match r.id() {
        0 => {
            let mut relayed = 0u64;
            for _ in 0..(WARMUP_ITERS + PING_ITERS) {
                let m = r.recv(1, TAG_UP);
                r.send(2, TAG_DOWN, m);
                let m = r.recv(2, TAG_UP);
                r.send(1, TAG_DOWN, m);
                relayed += 2;
            }
            for _ in 0..CHUNKS {
                let m = r.recv(1, TAG_UP);
                r.send(2, TAG_DOWN, m);
                relayed += 1;
            }
            vec![relayed]
        }
        1 => {
            let mut out = Vec::new();
            for relay in [false, true] {
                ping(r, relay, WARMUP_ITERS);
                out.push(ping(r, relay, PING_ITERS));
                // Bulk phase: stream once rank 2 says go.
                r.recv(2, TAG_GO);
                for _ in 0..CHUNKS {
                    if relay {
                        r.send(0, TAG_UP, blob.clone());
                    } else {
                        r.send(2, TAG_CHUNK, blob.clone());
                    }
                }
            }
            out
        }
        _ => {
            let mut out = Vec::new();
            for relay in [false, true] {
                for _ in 0..(WARMUP_ITERS + PING_ITERS) {
                    if relay {
                        let m = r.recv(0, TAG_DOWN);
                        r.send(0, TAG_UP, m);
                    } else {
                        let m = r.recv(1, TAG_PING);
                        r.send(1, TAG_PING, m);
                    }
                }
                let t0 = Instant::now();
                r.send(1, TAG_GO, String::new());
                for _ in 0..CHUNKS {
                    if relay {
                        r.recv(0, TAG_DOWN);
                    } else {
                        r.recv(1, TAG_CHUNK);
                    }
                }
                out.push(t0.elapsed().as_nanos() as u64);
            }
            out
        }
    }
}

fn options() -> WireOptions {
    WireOptions::for_args(3, WORLD_ID, &["--wire"])
}

/// Child re-entry point: never returns. `experiments::main` routes
/// re-executed children here when their world id is ours.
pub fn reenter() -> ! {
    WireWorld::run(&options(), measure_rank);
    unreachable!("wire child returned from its world");
}

/// The wire gate's verdicts: exact hop counts, then measured α–β.
pub fn registered() -> Registration {
    named(&[
        ("parent_forwards_nothing", Expect::Holds),
        ("relay_takes_two_hops", Expect::Holds),
        ("relay_alpha_exceeds_direct", Expect::Holds),
        ("relay_crossover_exceeds_direct", Expect::Holds),
        ("tables_on_disk", Expect::Holds),
    ])
}

/// Measure one hop and the relay in fresh worlds and record the verdicts.
pub fn gate(v: &mut Verdicts) {
    println!("wire gate: measuring one hop and a two-hop relay ({TRIALS} worlds)...");
    let (mut best, mut forwarded, mut messages, mut relayed) = ([u64::MAX; 4], 0, 0, 0);
    for _ in 0..TRIALS {
        let run = WireWorld::run(&options(), measure_rank);
        let trial = [
            run.results[1][0],
            run.results[2][0],
            run.results[1][1],
            run.results[2][1],
        ];
        for (b, t) in best.iter_mut().zip(trial) {
            *b = (*b).min(t);
        }
        forwarded += run.forwarded;
        messages += run.stats.messages;
        relayed += run.results[0][0];
    }
    let direct = Path::from_ns(best[0], best[1]);
    let relay = Path::from_ns(best[2], best[3]);
    let model = AlphaBeta {
        alpha: direct.alpha_us,
        beta: direct.beta_ns,
    }
    .with_hops(2);
    let modeled = Path {
        alpha_us: model.alpha,
        beta_ns: model.beta,
    };

    // The parent relays nothing — every frame is one hop.
    v.check(
        "parent_forwards_nothing",
        forwarded == 0 && messages > 0,
        format!("the parent relayed {forwarded} of {messages} data frames"),
    );
    // The two-hop path really took two hops — rank 0 re-sent every
    // relayed frame (if this drops, the "relay" went direct and the
    // comparison below is meaningless).
    let want = RELAYED_PER_WORLD * TRIALS as u64;
    v.check(
        "relay_takes_two_hops",
        relayed == want,
        format!("rank 0 relayed {relayed} of {want} two-hop frames"),
    );
    // The second hop shows up in measured α.
    v.check(
        "relay_alpha_exceeds_direct",
        relay.alpha_us > direct.alpha_us,
        format!(
            "{:.1}us relayed vs {:.1}us direct per message; with_hops(2) models {:.1}us",
            relay.alpha_us, direct.alpha_us, modeled.alpha_us
        ),
    );
    // The coalescing crossover n* = α/β moves right — batching pays off
    // over a longer range when every message pays the relay tax.
    v.check(
        "relay_crossover_exceeds_direct",
        relay.crossover_bytes() > direct.crossover_bytes(),
        format!(
            "{:.0}B relayed vs {:.0}B direct; with_hops(2) models {:.0}B",
            relay.crossover_bytes(),
            direct.crossover_bytes(),
            modeled.crossover_bytes()
        ),
    );

    let mut t = Table::new(
        format!(
            "wire gate (experiments --wire) — 3 child ranks, {PING_ITERS} timed round trips, \
             {} MiB bulk stream, best of {TRIALS}",
            CHUNK * CHUNKS as usize / (1024 * 1024)
        ),
        &["path", "alpha (us/msg)", "beta (ns/B)", "n* = a/b (B)"],
    );
    for (name, p) in [
        ("one hop (direct)", direct),
        ("two hops (relay via rank 0)", relay),
        ("model: one hop .with_hops(2)", modeled),
    ] {
        t.row(&[
            name.into(),
            format!("{:.2}", p.alpha_us),
            format!("{:.3}", p.beta_ns),
            format!("{:.0}", p.crossover_bytes()),
        ]);
    }
    t.row(&[
        "relay/direct".into(),
        format!("{:.2}x", relay.alpha_us / direct.alpha_us),
        format!("{:.2}x", relay.beta_ns / direct.beta_ns),
        format!("{:.2}x", relay.crossover_bytes() / direct.crossover_bytes()),
    ]);
    let (rendered, tables) = capture_tables(|| t.render());
    print!("{rendered}");

    let dir = std::path::Path::new("target/pdc-trace/wire");
    let tables_json = format!(
        "{{\"schema\":\"pdc-tables/1\",\"experiments\":[{{\"id\":\"wire-hops\",\"tables\":[{}]}}]}}",
        tables.join(",")
    );
    write_text_file(&dir.join("wire.tables.json"), &tables_json).expect("write tables json");
    v.file_contains(
        "tables_on_disk",
        &dir.join("wire.tables.json"),
        &[
            "\"schema\":\"pdc-tables/1\"",
            "wire gate (experiments --wire)",
        ],
    );
}
