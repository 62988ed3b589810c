//! The served-KV workloads: closed-loop clients against `db::serve`.
//!
//! Each workload sends the op stream of a caller of `db::serve` that
//! exists in this repository, over two connections with one client
//! thread each. Like those callers, a client sends its next request only
//! after the previous reply.
//!
//! - `serve-mixed` is the serve gate's client script (`experiments
//!   --serve`, `crates/bench/src/exp_serve.rs`).
//! - `serve-shuffle` is the word-count shuffle through `db::serve`
//!   (`experiments --scenario`, `crates/bench/src/exp_scenario.rs`).
//!
//! Every op is a pure function of `(seed, connection, index)`, so a GET's
//! reply can be checked after the fact: its value must be one that some
//! client's PUT of that key carried.

use crate::spans::Spans;
use crate::{sys, E2e, Metrics, Scale, Tally};
use pdc_core::stats::Samples;
use pdc_core::trace::{EventKind, TraceSession};
use pdc_db::serve::{self, ServeHandle, ServeOptions, ServeOutcome};
use pdc_db::wordcount::{count_sequential, counts_from_kv, digest_counts, gen_docs, tokenize};
use pdc_db::{apply_script, ShardOp};
use pdc_mpi::kv_tcp::TcpKvClient;
use pdc_mpi::WireOptions;
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

/// World id the serve tier's shard children dispatch on.
pub const WORLD: &str = "bench-serve";
/// Shard processes behind the front end.
pub const SHARDS: usize = 3;
/// Client connections, one thread each.
pub const CONNS: usize = 2;
/// Tier start-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed ops per connection in the traced pass (30k in all), small
/// enough that no process's trace buffer overflows.
const TRACED_OPS_PER_CONN: u64 = 15_000;
const TRACE_DIR: &str = "target/bench/trace/serve";
/// The serve gate's shared key space.
const MIXED_KEYS: u64 = 96;
/// `gen_docs` draws 30 to 49 words a document.
const TOKENS_PER_DOC: u64 = 40;

/// Whose op stream a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// The serve gate's script: a key drawn uniformly from 96 shared
    /// keys, then 70% `PUT <key> c<conn>v<i>`, 20% `GET`, 10% `DEL`.
    Mixed,
    /// The word-count shuffle: one `PUT <word> 1` per token of a
    /// `gen_docs` corpus (a few hot words and a tail). The final version
    /// of each word is its count.
    Shuffle,
}

impl Traffic {
    /// Timed ops per connection per second of `--seconds`: the rate this
    /// traffic ran at on a 2-vCPU VM when the benchmark was introduced.
    /// The work is fixed by this, not by the clock, so two commits do the
    /// same work.
    fn ops_per_conn_per_s(self) -> f64 {
        match self {
            Traffic::Mixed => 16_000.0,
            Traffic::Shuffle => 15_000.0,
        }
    }
}

/// How much work one run does, per connection.
#[derive(Debug, Clone, Copy)]
struct Sizing {
    warmup: u64,
    timed: u64,
}

impl Sizing {
    fn new(traffic: Traffic, scale: &Scale, traced: bool) -> Sizing {
        if scale.smoke {
            return Sizing {
                warmup: 100,
                timed: 600,
            };
        }
        let timed = if traced {
            TRACED_OPS_PER_CONN
        } else {
            (scale.seconds * traffic.ops_per_conn_per_s()) as u64
        };
        Sizing {
            warmup: 5_000,
            timed,
        }
    }
}

/// SplitMix64's finalizer: a bijective 64-bit mix.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The corpus a shuffle run counts.
#[derive(Debug, Clone)]
struct Corpus {
    /// Its distinct words.
    words: Vec<String>,
    /// Each connection's tokens as indices into `words`. Connection `c`
    /// maps documents `c`, `c + CONNS`, … like one mapper.
    tokens: Vec<Vec<u16>>,
    /// Digest of the corpus's sequential word count.
    counts_digest: u64,
}

impl Corpus {
    fn new(seed: u64, ops_per_conn: u64) -> Corpus {
        let docs = gen_docs(
            seed,
            (CONNS as u64 * ops_per_conn).div_ceil(TOKENS_PER_DOC) as usize,
        );
        let mut ids: BTreeMap<String, u16> = BTreeMap::new();
        let mut words = Vec::new();
        let mut tokens = vec![Vec::new(); CONNS];
        for (d, doc) in docs.iter().enumerate() {
            for word in tokenize(doc) {
                let id = *ids.entry(word).or_insert_with_key(|w| {
                    words.push(w.clone());
                    u16::try_from(words.len() - 1).expect("gen_docs has a small vocabulary")
                });
                tokens[d % CONNS].push(id);
            }
        }
        Corpus {
            words,
            tokens,
            counts_digest: digest_counts(&count_sequential(&docs)),
        }
    }
}

/// Stateless op generator for one run.
#[derive(Debug, Clone)]
pub struct OpGen {
    seed: u64,
    /// Ops each connection sends, warm-up included.
    len: [u64; CONNS],
    /// The shuffle's corpus; `None` for the mixed traffic.
    corpus: Option<Corpus>,
}

impl OpGen {
    fn new(traffic: Traffic, seed: u64, sizing: Sizing) -> OpGen {
        let ops = sizing.warmup + sizing.timed;
        match traffic {
            Traffic::Mixed => OpGen {
                seed,
                len: [ops; CONNS],
                corpus: None,
            },
            Traffic::Shuffle => {
                let corpus = Corpus::new(seed, ops);
                OpGen {
                    seed,
                    len: std::array::from_fn(|c| corpus.tokens[c].len() as u64),
                    corpus: Some(corpus),
                }
            }
        }
    }

    /// Ops connection `conn` sends in a whole run.
    pub fn len(&self, conn: usize) -> u64 {
        self.len[conn]
    }

    /// Op `index` of connection `conn`.
    pub fn op(&self, conn: usize, index: u64) -> ShardOp {
        if let Some(corpus) = &self.corpus {
            return ShardOp::Put {
                key: corpus.words[corpus.tokens[conn][index as usize] as usize].clone(),
                val: "1".into(),
            };
        }
        let h = mix64(
            mix64(self.seed ^ 0x5e7e_be4c)
                ^ mix64((conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );
        let key = format!("k{}", mix64(h) % MIXED_KEYS);
        match h % 10 {
            0..=6 => ShardOp::Put {
                key,
                val: format!("c{conn}v{index}"),
            },
            7..=8 => ShardOp::Get { key },
            _ => ShardOp::Del { key },
        }
    }

    /// The connection and op index whose PUT wrote `val` to `key`;
    /// `None` if no op of the run did.
    pub fn writer_of(&self, key: &str, val: &str) -> Option<(usize, u64)> {
        let (conn, index) = val.strip_prefix('c')?.split_once('v')?;
        let (conn, index): (usize, u64) = (conn.parse().ok()?, index.parse().ok()?);
        let put = ShardOp::Put {
            key: key.into(),
            val: val.into(),
        };
        (conn < CONNS && index < self.len[conn] && self.op(conn, index) == put)
            .then_some((conn, index))
    }
}

/// The kv_tcp request line of `op`.
fn request_line(op: &ShardOp) -> String {
    match op {
        ShardOp::Put { key, val } => format!("PUT {key} {val}"),
        ShardOp::Get { key } => format!("GET {key}"),
        ShardOp::Del { key } => format!("DEL {key}"),
    }
}

/// The highest percentile in `candidates` (ordered highest first) that
/// leaves at least ten of `n` samples beyond it. Falls back to the
/// median when even that is unsupported, so a tiny smoke run still
/// reports a value.
fn tail_percentile(n: usize, candidates: &[f64]) -> f64 {
    candidates
        .iter()
        .copied()
        // The tolerance absorbs decimal percentiles' rounding (100 - 99.9).
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// One client connection and what it has seen.
struct Conn {
    conn: usize,
    client: TcpKvClient,
    alive: bool,
    /// Next op index this connection would send.
    next: u64,
    /// Per writing connection, one past the highest op index whose value
    /// a GET returned.
    seen: [u64; CONNS],
    lat_us: Vec<f64>,
    spans: Option<Spans>,
    tally: Tally,
}

impl Conn {
    fn call(&mut self, line: &str) -> Option<String> {
        match self.client.call(line) {
            Ok(reply) => Some(reply),
            Err(e) => {
                self.tally
                    .fail_op(format!("conn {}: {line:.24}: {e}", self.conn));
                self.alive = false;
                None
            }
        }
    }

    /// Send ops `self.next..end`, timing each one when `timed`.
    fn run(&mut self, gen: &OpGen, end: u64, timed: bool) {
        while self.alive && self.next < end {
            let index = self.next;
            self.next += 1;
            self.tally.attempted += 1;
            let op = gen.op(self.conn, index);
            let line = request_line(&op);
            let request = ((self.conn as u64) << 40) | index;
            let span = self
                .spans
                .as_mut()
                .filter(|_| timed)
                .map(|s| s.open("serve.op", request, None));
            let t0 = Instant::now();
            let Some(reply) = self.call(&line) else {
                return;
            };
            if timed {
                self.lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            if let (Some(s), Some(id)) = (self.spans.as_mut(), span) {
                s.close(id);
            }
            self.check_reply(gen, &op, &reply);
        }
    }

    fn check_reply(&mut self, gen: &OpGen, op: &ShardOp, reply: &str) {
        let ok = match op {
            ShardOp::Put { .. } => reply.starts_with("OK "),
            ShardOp::Del { .. } => reply == "OK 0" || reply == "NOTFOUND",
            // A miss needs no writer: the key may be unwritten or
            // deleted, and the final state check covers the store.
            ShardOp::Get { key } => {
                let written = reply
                    .strip_prefix("VALUE ")
                    .and_then(|r| r.split_once(' '))
                    .and_then(|(_, v)| gen.writer_of(key, v));
                if let Some((conn, index)) = written {
                    self.seen[conn] = self.seen[conn].max(index + 1);
                }
                reply == "NOTFOUND" || written.is_some()
            }
        };
        if !ok {
            self.tally
                .fail_op(format!("{:.32} -> {reply:.48}", request_line(op)));
        }
    }
}

/// A running tier with its connected clients.
struct Tier {
    handle: ServeHandle,
    conns: Vec<Conn>,
}

/// Start the tier, connect the clients, and wait for the reply to each
/// client's first op, so the tier is known to serve. With `epoch`, every
/// timed op records a span measured from it.
fn start_tier(
    gen: &OpGen,
    opts: ServeOptions,
    session: &TraceSession,
    epoch: Option<Instant>,
) -> std::io::Result<Tier> {
    let handle = serve::start(opts, session)?;
    let mut conns = (0..CONNS)
        .map(|conn| {
            Ok(Conn {
                conn,
                client: TcpKvClient::connect(handle.addr())?,
                alive: true,
                next: 0,
                seen: [0; CONNS],
                lat_us: Vec::new(),
                spans: epoch.map(Spans::new),
                tally: Tally::default(),
            })
        })
        .collect::<std::io::Result<Vec<Conn>>>()?;
    for c in &mut conns {
        c.run(gen, 1, false);
    }
    Ok(Tier { handle, conns })
}

/// Say goodbye on every live connection and drain the tier.
fn stop_tier(tier: Tier, gen: &OpGen, tally: &mut Tally) -> (ServeOutcome, Vec<Conn>) {
    let Tier { handle, mut conns } = tier;
    for c in &mut conns {
        if c.alive {
            match c.call("QUIT") {
                Some(bye) if bye == "BYE" => {}
                other => c.tally.fail_op(format!("QUIT -> {other:?}")),
            }
        }
    }
    let outcome = handle.finish();
    check_outcome(&outcome, gen, &conns, tally);
    for c in &mut conns {
        tally.merge(std::mem::take(&mut c.tally));
    }
    (outcome, conns)
}

/// The serve invariants: every issued op acked, the served state equal
/// to a replay of the acked ops, no GET value from an op never sent, a
/// fault-free run (no errors, deaths, promotions, or relaying), and,
/// once a shuffle has sent its whole corpus, the served versions equal
/// to the corpus's sequential word count.
fn check_outcome(outcome: &ServeOutcome, gen: &OpGen, conns: &[Conn], tally: &mut Tally) {
    let issued: u64 = conns.iter().map(|c| c.next).sum();
    let acked = outcome.acked.len() as u64;
    if acked < issued {
        tally.fail_ops(
            issued - acked,
            format!("{acked} of {issued} issued ops acked"),
        );
    } else if acked > issued {
        tally.problem(format!("{acked} acks for {issued} issued ops"));
    }
    if outcome.state != apply_script(outcome.acked.iter().map(|(_, op)| op)) {
        tally.problem("served state diverged from a replay of the acked ops".into());
    }
    for reader in conns {
        for (writer, &seen) in conns.iter().zip(&reader.seen) {
            if seen > writer.next {
                tally.problem(format!(
                    "conn {} read op {} of conn {}, which sent only {}",
                    reader.conn,
                    seen - 1,
                    writer.conn,
                    writer.next
                ));
            }
        }
    }
    if let Some(corpus) = &gen.corpus {
        let sent_all = conns.iter().all(|c| c.next == gen.len(c.conn));
        if sent_all && digest_counts(&counts_from_kv(&outcome.state)) != corpus.counts_digest {
            tally.problem("served word counts differ from the sequential count".into());
        }
    }
    if outcome.conn_errors != 0
        || outcome.hub_forwarded != 0
        || outcome.promotions != 0
        || !outcome.dead.is_empty()
    {
        tally.problem(format!(
            "fault-free run reported conn_errors={} hub_forwarded={} promotions={} dead={}",
            outcome.conn_errors,
            outcome.hub_forwarded,
            outcome.promotions,
            outcome.dead.len()
        ));
    }
}

/// Warm every connection up untimed, then send the rest of its ops timed
/// from a common start; returns the timed phase's wall-clock seconds.
fn warm_and_time(tier: &mut Tier, gen: &OpGen, warmup: u64) -> f64 {
    let barrier = Barrier::new(CONNS);
    let windows: Vec<(Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = tier
            .conns
            .iter_mut()
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    c.run(gen, warmup, false);
                    barrier.wait();
                    let t0 = Instant::now();
                    c.run(gen, gen.len(c.conn), true);
                    (t0, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = windows.iter().map(|w| w.0).min().expect("clients");
    let end = windows.iter().map(|w| w.1).max().expect("clients");
    (end - start).as_secs_f64()
}

/// The op generator of an untraced run of `traffic` at `scale`.
pub fn op_gen(traffic: Traffic, seed: u64, scale: &Scale) -> OpGen {
    OpGen::new(traffic, seed, Sizing::new(traffic, scale, false))
}

fn options(traced: bool) -> ServeOptions {
    let wire = WireOptions::for_args(SHARDS, WORLD, &[]);
    ServeOptions::new(SHARDS, if traced { wire.traced(TRACE_DIR) } else { wire })
}

/// The untraced pass: `SETUPS` timed tier start-ups (spawn 3 shards,
/// connect, first reply), then warm-up and the timed closed loop on the
/// last one.
pub fn measure(traffic: Traffic, seed: u64, scale: &Scale, tally: &mut Tally) -> E2e {
    let sizing = Sizing::new(traffic, scale, false);
    let gen = OpGen::new(traffic, seed, sizing);
    let mut setup_s = Vec::new();
    let mut tier = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let started = match start_tier(&gen, options(false), &TraceSession::new(), None) {
            Ok(t) => t,
            Err(e) => {
                tally.problem(format!("start serving tier: {e}"));
                return E2e::default();
            }
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            stop_tier(started, &gen, tally);
        } else {
            tier = Some(started);
        }
    }
    let mut tier = tier.expect("at least one setup");
    let elapsed_s = warm_and_time(&mut tier, &gen, sizing.warmup);
    let shards_rss_mb = sys::children_rss_mb().iter().sum();
    let (_, conns) = stop_tier(tier, &gen, tally);
    let lat_us: Vec<f64> = conns.into_iter().flat_map(|c| c.lat_us).collect();
    E2e {
        children_rss_mb: shards_rss_mb,
        ..E2e::from_latencies(setup_s, lat_us.len() as f64 / elapsed_s, lat_us)
    }
}

/// What the traced serve pass hands the cross-layer residual.
pub struct Traced {
    /// Median op latency, µs.
    pub p50_us: f64,
    /// Data frames per acked op.
    pub frames_per_op: f64,
}

impl Traced {
    const FAILED: Traced = Traced {
        p50_us: f64::NAN,
        frames_per_op: f64::NAN,
    };
}

/// The traced pass: one traced tier, 30k timed ops with a span each, the
/// merged per-process trace for frame counts, and the memory of the
/// largest shard and of this process (front end and clients).
pub fn layers(
    traffic: Traffic,
    seed: u64,
    scale: &Scale,
    spans: &mut Spans,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Traced {
    let sizing = Sizing::new(traffic, scale, true);
    let gen = OpGen::new(traffic, seed, sizing);
    std::fs::remove_dir_all(TRACE_DIR).ok();
    // The front end records a send and a receive per frame.
    let session = TraceSession::with_capacity(1 << 18);
    let setup = spans.open("serve.setup", 0, None);
    let mut tier = match start_tier(&gen, options(true), &session, Some(spans.epoch())) {
        Ok(t) => t,
        Err(e) => {
            tally.problem(format!("start traced serving tier: {e}"));
            return Traced::FAILED;
        }
    };
    spans.close(setup);
    warm_and_time(&mut tier, &gen, sizing.warmup);
    let shard_rss = sys::children_rss_mb().into_iter().fold(0.0, f64::max);
    let (outcome, conns) = stop_tier(tier, &gen, tally);
    let fe_rss = sys::self_rss_mb();
    let mut lat_us = Vec::new();
    for c in conns {
        lat_us.extend(c.lat_us);
        if let Some(s) = c.spans {
            spans.absorb(s);
        }
    }

    let Some(merged) = outcome.trace.as_ref() else {
        tally.problem("traced serve run returned no merged trace".into());
        return Traced::FAILED;
    };
    if lat_us.is_empty() {
        tally.problem("traced serve run timed no op".into());
        return Traced::FAILED;
    }
    if merged.dropped() != 0 {
        tally.problem(format!("serve trace dropped {} events", merged.dropped()));
    }
    // Data frames only: Ping/Pong/Stop/Exit encode to 1 byte and Done to
    // 9, and the shutdown report sends one Entry per key in the state.
    let sends = merged
        .events()
        .iter()
        .filter(|(_, e)| e.kind == EventKind::Send && e.b != 1 && e.b != 9)
        .count();
    let frames_per_op =
        sends.saturating_sub(outcome.state.len()) as f64 / outcome.acked.len().max(1) as f64;
    let samples = lat_us.len();
    let lat = Samples::from_vec(lat_us);
    // The tail is per layer only: its spread across runs on the 2-core
    // host is too wide for an end-to-end bound.
    let tail = |pct: f64| lat.percentile(tail_percentile(samples, &[pct]));
    out.put("serve.p99_us", tail(99.0), "us");
    out.put("serve.p999_us", tail(99.9), "us");
    out.put("serve.samples", samples as f64, "count");
    out.put("serve.frames_per_op", frames_per_op, "frames/op");
    out.put(
        "serve.primary_ops",
        merged.counter("serve.primary_ops") as f64,
        "count",
    );
    out.put(
        "serve.replica_ops",
        merged.counter("serve.replica_ops") as f64,
        "count",
    );
    out.put("serve.shard_rss_mb", shard_rss, "MB");
    out.put("serve.fe_rss_mb", fe_rss, "MB");
    Traced {
        p50_us: lat.median(),
        frames_per_op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZING: Sizing = Sizing {
        warmup: 100,
        timed: 4_900,
    };

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let candidates = [99.9, 99.0, 90.0];
        assert_eq!(tail_percentile(10_000, &candidates), 99.9);
        assert_eq!(tail_percentile(9_999, &candidates), 99.0);
        assert_eq!(tail_percentile(1_000, &candidates), 99.0);
        assert_eq!(tail_percentile(999, &candidates), 90.0);
        assert_eq!(tail_percentile(100, &candidates), 90.0);
        // Nothing supported: the median stands in.
        assert_eq!(tail_percentile(99, &candidates), 50.0);
    }

    #[test]
    fn mixed_ops_are_deterministic_per_seed_and_follow_the_gate_mix() {
        let ops = |seed: u64| -> Vec<ShardOp> {
            let gen = OpGen::new(Traffic::Mixed, seed, SIZING);
            (0..5_000).map(|i| gen.op(1, i)).collect()
        };
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
        let ops = ops(7);
        let count = |f: fn(&ShardOp) -> bool| ops.iter().filter(|op| f(op)).count();
        let puts = count(|op| matches!(op, ShardOp::Put { .. }));
        let gets = count(|op| matches!(op, ShardOp::Get { .. }));
        assert!((3_300..3_700).contains(&puts), "{puts} PUTs of 5000");
        assert!((800..1_200).contains(&gets), "{gets} GETs of 5000");
        let keys: std::collections::BTreeSet<&str> = ops.iter().map(ShardOp::key).collect();
        assert_eq!(keys.len(), MIXED_KEYS as usize);
    }

    #[test]
    fn shuffle_stream_counts_to_the_sequential_word_count() {
        let gen = OpGen::new(Traffic::Shuffle, 5, SIZING);
        let corpus = gen.corpus.as_ref().expect("shuffle corpus");
        let ops: Vec<ShardOp> = (0..CONNS)
            .flat_map(|c| (0..gen.len(c)).map(move |i| (c, i)))
            .map(|(c, i)| gen.op(c, i))
            .collect();
        // Both mappers get about half the tokens of about 10k asked for.
        for c in 0..CONNS {
            assert!(
                (4_000..6_000).contains(&gen.len(c)),
                "conn {c}: {}",
                gen.len(c)
            );
        }
        let state = apply_script(&ops);
        assert_eq!(digest_counts(&counts_from_kv(&state)), corpus.counts_digest);
        let other = OpGen::new(Traffic::Shuffle, 6, SIZING);
        assert_ne!(
            other.corpus.expect("corpus").counts_digest,
            corpus.counts_digest
        );
    }

    #[test]
    fn get_validator_accepts_written_values_and_rejects_forged_ones() {
        let gen = OpGen::new(Traffic::Mixed, 11, SIZING);
        let (index, key, val) = (0..)
            .find_map(|i| match gen.op(1, i) {
                ShardOp::Put { key, val } => Some((i, key, val)),
                _ => None,
            })
            .expect("a PUT");
        assert_eq!(gen.writer_of(&key, &val), Some((1, index)));
        let other_key = if key == "k0" { "k1" } else { "k0" };
        // The value under another key, a GET's or DEL's index, an index
        // past the run, a mangled value, an unknown connection, and
        // garbage are all forged.
        assert_eq!(gen.writer_of(other_key, &val), None);
        let not_put = (0..)
            .find(|&i| !matches!(gen.op(1, i), ShardOp::Put { .. }))
            .expect("a GET or DEL");
        let target = gen.op(1, not_put).key().to_string();
        assert_eq!(gen.writer_of(&target, &format!("c1v{not_put}")), None);
        let past = gen.len(1);
        assert_eq!(
            gen.writer_of(gen.op(1, past).key(), &format!("c1v{past}")),
            None
        );
        assert_eq!(gen.writer_of(&key, &format!("{val}x")), None);
        assert_eq!(gen.writer_of(&key, &format!("c9v{index}")), None);
        assert_eq!(gen.writer_of(&key, "VALUE"), None);
    }
}
