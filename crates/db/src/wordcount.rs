//! MapReduce word count behind the [`pdc_core::scenario`] seam — the
//! serving stack's first non-synthetic client.
//!
//! `size` is the document count; documents are drawn from a skewed
//! seeded vocabulary (a few hot words, a long tail — the shape that
//! stresses a shuffle). Three ways to count:
//!
//! * **Sequential** — one `BTreeMap` pass, the baseline.
//! * **Threads** — [`pdc_mpi::mapreduce::run_job`] with
//!   [`tokenize`] as the map side: parallel mappers, hash shuffle,
//!   parallel reducers.
//! * **Mpi** — the shuffle *rides the sharded KV*: every token becomes
//!   a `Put(word, "1")` routed through [`crate::sharded`], and the
//!   store's version counter (bumped on every overwrite) **is** the
//!   reduce — `count(word) = final version of key word`.
//!
//! The same versions-are-counts trick lets the scenario gate drive the
//! full `db::serve` TCP stack as a fourth, out-of-process counter and
//! compare digests; [`counts_from_kv`] converts either KV state.

use crate::sharded::{run_local_traced, run_wire, KvState, ShardOp};
use pdc_core::rng::Rng;
use pdc_core::scenario::{Backend, Digest, Outcome, Scenario, ScenarioCtx};
use pdc_core::trace::TraceSession;
use pdc_mpi::mapreduce::run_job;
use pdc_mpi::WireOptions;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Shards used by both MPI backends (in-process thread ranks and wire
/// OS processes); the wire world is `WIRE_SHARDS + 1` processes.
pub const WIRE_SHARDS: usize = 3;

/// Split a document into normalized words: whitespace-separated tokens,
/// punctuation trimmed from both ends, lowercased, empties dropped.
/// This is the exact normalization `pdc_mpi::mapreduce::word_count`
/// applies, extracted so every backend counts the same tokens.
pub fn tokenize(doc: &str) -> Vec<String> {
    doc.split_whitespace()
        .map(|w| {
            w.trim_matches(|c: char| !c.is_alphanumeric())
                .to_lowercase()
        })
        .filter(|w| !w.is_empty())
        .collect()
}

/// Deterministic corpus: `ndocs` documents of ~40 words drawn from a
/// Zipf-flavored vocabulary (hot words picked often, tail words
/// rarely), with occasional punctuation so [`tokenize`] has work to do.
pub fn gen_docs(seed: u64, ndocs: usize) -> Vec<String> {
    const HOT: &[&str] = &["the", "map", "reduce", "shard", "key", "data"];
    const TAIL: &[&str] = &[
        "cluster", "router", "shuffle", "merge", "halo", "trace", "digest", "backend", "version",
        "commit", "replica", "quorum", "socket", "batch", "stream", "vector", "thread", "kernel",
        "block", "cache",
    ];
    let mut rng = Rng::new(seed ^ 0x77c0_afee);
    (0..ndocs)
        .map(|_| {
            let words = rng.usize_in(30, 50);
            let doc: Vec<String> = (0..words)
                .map(|_| {
                    let w = if rng.chance(0.6) {
                        *rng.choose(HOT)
                    } else {
                        *rng.choose(TAIL)
                    };
                    match rng.gen_range(10) {
                        0 => format!("{w},"),
                        1 => format!("{w}."),
                        2 => {
                            let mut u = w.to_string();
                            u[..1].make_ascii_uppercase();
                            u
                        }
                        _ => w.to_string(),
                    }
                })
                .collect();
            doc.join(" ")
        })
        .collect()
}

/// Baseline: count every token of every document in one `BTreeMap`.
pub fn count_sequential(docs: &[String]) -> Vec<(String, u64)> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut tokens = 0u64;
    for doc in docs {
        for word in tokenize(doc) {
            *counts.entry(word).or_insert(0) += 1;
            tokens += 1;
        }
    }
    // One unit of attributed work per token — the empirical-work metric
    // the span gate's curve fit checks against Θ(n). No-op untraced.
    pdc_core::trace::record_steps(tokens.max(1));
    counts.into_iter().collect()
}

/// Recover word counts from a sharded-KV final state where every token
/// was `Put` exactly once: a key's version bumps on each overwrite, so
/// its final version equals the number of `Put`s — the count. Works on
/// both [`run_local_traced`]'s state and a `db::serve` outcome's.
pub fn counts_from_kv(state: &KvState) -> Vec<(String, u64)> {
    state
        .iter()
        .map(|(key, (_val, ver))| (key.clone(), *ver))
        .collect()
}

/// The `Put(word, "1")` stream for `docs`, in document/token order —
/// the shuffle traffic the KV backends route.
pub fn put_ops(docs: &[String]) -> Vec<ShardOp> {
    docs.iter()
        .flat_map(|doc| tokenize(doc))
        .map(|word| ShardOp::Put {
            key: word,
            val: "1".to_string(),
        })
        .collect()
}

/// Digest a sorted `(word, count)` table.
pub fn digest_counts(counts: &[(String, u64)]) -> u64 {
    let mut d = Digest::new();
    d.write_u64(counts.len() as u64);
    for (word, n) in counts {
        d.write_str(word);
        d.write_u64(*n);
    }
    d.finish()
}

/// How the `wire: true` MPI backend re-executes rank children: a
/// world-id prefix (the per-run id appends the seed and size so a
/// child can regenerate the exact corpus), the argv that brings the
/// re-executed binary back to the same scenario run, and where the
/// per-rank trace snapshots land.
#[derive(Debug, Clone)]
pub struct WireSpec {
    /// World-id prefix; [`WireSpec::options`] appends `#s<seed>n<size>`.
    pub world_prefix: String,
    /// argv for the re-executed binary (e.g. `["--scenario"]`, or a
    /// libtest `--exact` filter).
    pub child_args: Vec<String>,
    /// When set, ranks snapshot `pdc-trace/2` here and the parent
    /// merges them into the run's `pdc-trace/3`.
    pub trace_dir: Option<PathBuf>,
}

impl WireSpec {
    /// The concrete [`WireOptions`] for one `(seed, size)` run — the
    /// *same* construction in the parent and in the re-entered child,
    /// so the world ids match.
    pub fn options(&self, seed: u64, size: usize) -> WireOptions {
        let mut opts = WireOptions::for_args(
            WIRE_SHARDS + 1,
            &format!("{}#s{seed:x}n{size}", self.world_prefix),
            &[],
        );
        opts.child_args = self.child_args.clone();
        opts.trace_dir = self.trace_dir.clone();
        opts
    }

    /// Parse `(seed, size)` back out of a world id minted by
    /// [`WireSpec::options`]; `None` for ids with a different prefix.
    pub fn parse_world(&self, world_id: &str) -> Option<(u64, usize)> {
        let rest = world_id.strip_prefix(self.world_prefix.as_str())?;
        let rest = rest.strip_prefix("#s")?;
        let (seed, size) = rest.split_once('n')?;
        Some((u64::from_str_radix(seed, 16).ok()?, size.parse().ok()?))
    }
}

/// Wire-child entry: regenerate the corpus from the world id and
/// re-enter the exact [`run_wire`] call the parent is blocked on. Call
/// from the binary's dispatch on `WireWorld::child_world_id` when the
/// id carries `spec.world_prefix`.
///
/// # Panics
/// Panics if `world_id` was not minted by `spec` (and never returns
/// otherwise — the wire child exits inside `run_wire`).
pub fn run_wire_wordcount_child(spec: &WireSpec, world_id: &str) -> ! {
    let (seed, size) = spec
        .parse_world(world_id)
        .expect("world id minted by WireSpec::options");
    let ops = put_ops(&gen_docs(seed, size));
    run_wire(&spec.options(seed, size), WIRE_SHARDS, ops, true);
    unreachable!("wire child returned from its world");
}

/// Count words by running the sharded shuffle as `WIRE_SHARDS + 1` OS
/// processes over loopback TCP (the `mpi-wire` backend).
fn count_wire(docs: &[String], spec: &WireSpec, ctx: &ScenarioCtx<'_>) -> Vec<(String, u64)> {
    let ops = put_ops(docs);
    ctx.session
        .counter("wordcount.shuffle_puts")
        .add(ops.len() as u64);
    let run = run_wire(&spec.options(ctx.seed, ctx.size), WIRE_SHARDS, ops, true);
    ctx.session
        .counter("wordcount.wire_msgs")
        .add(run.stats.messages);
    counts_from_kv(&run.results[0])
}

/// MapReduce word count on sequential / threads / sharded-KV backends,
/// plus — when constructed [`WordCountScenario::with_wire`] — the same
/// shuffle as real OS processes over loopback TCP.
#[derive(Default)]
pub struct WordCountScenario {
    wire: Option<WireSpec>,
}

impl WordCountScenario {
    /// The in-process backends only (sequential / threads / mpi-local).
    pub fn new() -> Self {
        WordCountScenario { wire: None }
    }

    /// Also list the `mpi-wire` backend, re-executing children per
    /// `spec`. The hosting binary must dispatch wire children carrying
    /// `spec.world_prefix` to [`run_wire_wordcount_child`].
    #[must_use]
    pub fn with_wire(mut self, spec: WireSpec) -> Self {
        self.wire = Some(spec);
        self
    }
}

/// Count words using [`run_job`]'s thread-parallel map/shuffle/reduce.
/// Traced, each map worker attributes its own tokens (one pair each)
/// as work on its own strand.
fn count_mapreduce(docs: Vec<String>, workers: usize) -> Vec<(String, u64)> {
    let (mut counts, _stats) = run_job(
        docs,
        workers,
        workers,
        |doc: String| {
            tokenize(&doc)
                .into_iter()
                .map(|w| (w, 1u64))
                .collect::<Vec<_>>()
        },
        |_word, ones: Vec<u64>| ones.iter().sum::<u64>(),
    );
    counts.sort();
    counts
}

/// Count words by routing one `Put` per token through the sharded KV
/// (coalesced batches) and reading counts back out of the versions.
fn count_sharded(docs: &[String], shards: usize, session: &TraceSession) -> Vec<(String, u64)> {
    let ops = put_ops(docs);
    session
        .counter("wordcount.shuffle_puts")
        .add(ops.len() as u64);
    let (state, _traffic) = run_local_traced(shards, ops, true, session);
    counts_from_kv(&state)
}

impl Scenario for WordCountScenario {
    fn name(&self) -> &'static str {
        "wordcount"
    }

    fn backends(&self) -> Vec<Backend> {
        let mut backends = vec![
            Backend::Sequential,
            Backend::Threads { workers: 4 },
            Backend::Mpi {
                ranks: WIRE_SHARDS,
                wire: false,
            },
        ];
        if self.wire.is_some() {
            backends.push(Backend::Mpi {
                ranks: WIRE_SHARDS,
                wire: true,
            });
        }
        backends
    }

    fn run(&self, backend: &Backend, ctx: &ScenarioCtx<'_>) -> Outcome {
        let docs = gen_docs(ctx.seed, ctx.size);
        let counts = match backend {
            Backend::Sequential => count_sequential(&docs),
            Backend::Threads { workers } => count_mapreduce(docs.clone(), *workers),
            Backend::Mpi { ranks, wire: false } => count_sharded(&docs, *ranks, ctx.session),
            Backend::Mpi { wire: true, .. } => {
                let spec = self.wire.as_ref().expect("wire backend requires a spec");
                count_wire(&docs, spec, ctx)
            }
            other => panic!("wordcount scenario does not support {other}"),
        };
        let items: u64 = counts.iter().map(|(_, n)| n).sum();
        ctx.session.counter("wordcount.words").add(items);
        Outcome {
            digest: digest_counts(&counts),
            items,
            detail: format!("distinct={}", counts.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_core::scenario::{run_scenario, AnalyzeVerdict, ScenarioConfig};

    fn no_analyzer(_: &TraceSession) -> AnalyzeVerdict {
        AnalyzeVerdict {
            clean: true,
            defects: 0,
            events: 0,
        }
    }

    #[test]
    fn tokenize_matches_word_count_normalization() {
        assert_eq!(
            tokenize("The map, the REDUCE. (shard)"),
            vec!["the", "map", "the", "reduce", "shard"]
        );
        assert_eq!(tokenize("  ... !!! "), Vec::<String>::new());
    }

    #[test]
    fn all_backends_agree_on_small_corpora() {
        let cfg = ScenarioConfig::new(21, &[3, 10]);
        let report = run_scenario(&WordCountScenario::new(), &cfg, &no_analyzer);
        assert_eq!(report.runs.len(), 6);
        assert!(report.outcomes_agree(), "{:?}", report.mismatches());
        assert!(report.rows_valid());
    }

    #[test]
    fn threads_backend_traces_its_map_workers_as_parallel_strands() {
        let session = TraceSession::with_capacity(1 << 16);
        let ctx = ScenarioCtx {
            seed: 7,
            size: 40,
            session: &session,
        };
        let prev = pdc_core::trace::install_sync_trace(session.thread(0));
        let out = WordCountScenario::new().run(&Backend::Threads { workers: 2 }, &ctx);
        pdc_core::trace::clear_sync_trace();
        assert!(prev.is_none());
        let span = pdc_analyze::analyze_span_session(&session);
        assert!(
            span.parallelism() > 1.0,
            "two map workers must show as parallel strands: work {} span {}",
            span.work,
            span.span
        );
        assert!(span.work >= out.items, "every token is attributed as work");
    }

    #[test]
    fn sharded_versions_equal_sequential_counts() {
        let docs = gen_docs(4, 6);
        let session = TraceSession::with_capacity(1 << 16);
        let seq = count_sequential(&docs);
        let kv = count_sharded(&docs, 3, &session);
        assert_eq!(kv, seq);
        let puts: u64 = seq.iter().map(|(_, n)| n).sum();
        assert_eq!(session.snapshot().get("wordcount.shuffle_puts"), puts);
    }

    #[test]
    fn wire_backend_agrees_with_in_process_backends() {
        let path = "wordcount::tests::wire_backend_agrees_with_in_process_backends";
        let spec = WireSpec {
            world_prefix: path.to_string(),
            child_args: vec![
                path.to_string(),
                "--exact".to_string(),
                "--nocapture".to_string(),
            ],
            trace_dir: None,
        };
        // A spawned rank child re-runs exactly this test; route it back
        // into the world it belongs to.
        if let Some(id) = pdc_mpi::WireWorld::child_world_id() {
            run_wire_wordcount_child(&spec, &id);
        }
        let scenario = WordCountScenario::new().with_wire(spec.clone());
        assert_eq!(scenario.backends().len(), 4, "wire backend listed");
        let cfg = ScenarioConfig::new(33, &[5]);
        let report = run_scenario(&scenario, &cfg, &no_analyzer);
        assert_eq!(report.runs.len(), 4);
        assert!(report.outcomes_agree(), "{:?}", report.mismatches());
        // Round-trip of the world-id encoding the child relies on.
        let opts = spec.options(33, 5);
        assert_eq!(spec.parse_world(&opts.world_id), Some((33, 5)));
        assert_eq!(spec.parse_world("other#s21n5"), None);
    }

    #[test]
    fn corpus_is_deterministic_and_seed_sensitive() {
        assert_eq!(gen_docs(9, 4), gen_docs(9, 4));
        assert_ne!(gen_docs(9, 4), gen_docs(10, 4));
    }
}
