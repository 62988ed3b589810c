//! MapReduce word count behind the [`pdc_core::scenario`] seam — the
//! serving stack's first non-synthetic client.
//!
//! `size` is the document count; documents are drawn from a skewed
//! seeded vocabulary (a few hot words, a long tail — the shape that
//! stresses a shuffle). Every way to count folds the tokens [`tokens`]
//! borrows from the documents, so a count allocates per distinct word,
//! and per token only where lowercasing changes it. Three ways:
//!
//! * **Sequential** — one pass folding the borrowed tokens into a
//!   `BTreeMap`, the baseline.
//! * **Threads** — [`pdc_mpi::mapreduce::run_job`] over the borrowed
//!   documents with [`tokens`] as the map side: parallel mappers, hash
//!   shuffle, parallel reducers.
//! * **Mpi** — [`pdc_mpi::mapreduce::run_ranks`] in a world of `p`
//!   ranks. Rank `r` maps documents `r, r + p, …` (the round-robin
//!   split of `run_job`) and combines its counts, one alltoall shuffles
//!   the hash partitions, and one gather brings the reduced counts to
//!   rank 0: p(p − 1) + (p − 1) messages, whatever the token count.
//!   The ranks are threads (`mpi-local`) or, with
//!   [`WordCountScenario::with_wire`], OS processes over loopback TCP
//!   (`mpi-wire`), each of which rebuilds the corpus from the seed and
//!   size.
//!
//! The scenario gate and the benchmark's serve-shuffle workload also
//! count a corpus through the full `db::serve` TCP stack, one
//! `PUT word 1` per token: a key's version bumps on every PUT, so the
//! final versions are the counts, and [`counts_from_kv`] reads them.

use crate::sharded::KvState;
use pdc_core::report::write_text_file;
use pdc_core::rng::Rng;
use pdc_core::scenario::{Backend, Digest, Outcome, Scenario, ScenarioCtx};
use pdc_core::trace::TraceSession;
use pdc_mpi::mapreduce::{run_job, run_ranks};
use pdc_mpi::{Rank, Transport, WireOptions, WireRun, WireWorld, World};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Ranks of both message-passing backends: thread ranks in one process
/// (`mpi-local`) and OS processes over loopback TCP (`mpi-wire`).
pub const MPI_RANKS: usize = 3;

/// The normalized words of a document, borrowed from it:
/// whitespace-separated tokens, punctuation trimmed from both ends,
/// lowercased, empties dropped. A token is owned only when lowercasing
/// changes it. This is the normalization
/// `pdc_mpi::mapreduce::word_count` applies, and every backend counts
/// these tokens.
pub fn tokens(doc: &str) -> impl Iterator<Item = Cow<'_, str>> {
    doc.split_whitespace()
        .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()))
        .filter(|w| !w.is_empty())
        .map(lowercase)
}

/// `word` lowercased, borrowed when no character of it changes. When
/// none does, `str::to_lowercase` would return `word` itself: its one
/// context-dependent mapping, a final `Σ`, is a change.
fn lowercase(word: &str) -> Cow<'_, str> {
    // The byte scan settles a lowercase ASCII word, most of a corpus, at
    // about a third of the cost of the per-character check.
    let ascii_lower = |b: u8| b.is_ascii() && !b.is_ascii_uppercase();
    let unchanged = |c: char| c.to_lowercase().eq([c]);
    if word.bytes().all(ascii_lower) || word.chars().all(unchanged) {
        Cow::Borrowed(word)
    } else {
        Cow::Owned(word.to_lowercase())
    }
}

/// [`tokens`], each owned.
pub fn tokenize(doc: &str) -> Vec<String> {
    tokens(doc).map(Cow::into_owned).collect()
}

/// Deterministic corpus: `ndocs` documents of ~40 words drawn from a
/// Zipf-flavored vocabulary (hot words picked often, tail words
/// rarely), with occasional punctuation and capitals so [`tokens`] has
/// work to do. A document's words are drawn first, then written into
/// one string of exactly their length.
pub fn gen_docs(seed: u64, ndocs: usize) -> Vec<String> {
    const HOT: &[&str] = &["the", "map", "reduce", "shard", "key", "data"];
    const TAIL: &[&str] = &[
        "cluster", "router", "shuffle", "merge", "halo", "trace", "digest", "backend", "version",
        "commit", "replica", "quorum", "socket", "batch", "stream", "vector", "thread", "kernel",
        "block", "cache",
    ];
    /// Exclusive bound of a document's word count.
    const MAX_WORDS: usize = 50;
    // A drawn word and its form: 0 adds a comma, 1 a full stop,
    // 2 capitalizes it, anything else leaves it as it is.
    let mut drawn = [("", 0u64); MAX_WORDS];
    let mut rng = Rng::new(seed ^ 0x77c0_afee);
    let mut docs = Vec::with_capacity(ndocs);
    for _ in 0..ndocs {
        let words = &mut drawn[..rng.usize_in(30, MAX_WORDS)];
        for (word, form) in words.iter_mut() {
            *word = if rng.chance(0.6) {
                *rng.choose(HOT)
            } else {
                *rng.choose(TAIL)
            };
            *form = rng.gen_range(10);
        }
        let marks = words.iter().filter(|(_, form)| *form < 2).count();
        let letters: usize = words.iter().map(|(word, _)| word.len()).sum();
        let mut doc = String::with_capacity(letters + marks + words.len() - 1);
        for (i, &(word, form)) in words.iter().enumerate() {
            if i > 0 {
                doc.push(' ');
            }
            match form {
                0 => {
                    doc.push_str(word);
                    doc.push(',');
                }
                1 => {
                    doc.push_str(word);
                    doc.push('.');
                }
                2 => {
                    doc.push(char::from(word.as_bytes()[0].to_ascii_uppercase()));
                    doc.push_str(&word[1..]);
                }
                _ => doc.push_str(word),
            }
        }
        debug_assert_eq!(doc.len(), doc.capacity(), "one exact allocation");
        docs.push(doc);
    }
    docs
}

/// Baseline: fold every token of every document into one `BTreeMap`
/// keyed by the borrowed tokens; a word is copied out once, when the
/// table becomes the result.
pub fn count_sequential(docs: &[String]) -> Vec<(String, u64)> {
    let mut counts: BTreeMap<Cow<'_, str>, u64> = BTreeMap::new();
    let mut tokens = 0u64;
    for word in docs.iter().flat_map(|doc| self::tokens(doc)) {
        *counts.entry(word).or_insert(0) += 1;
        tokens += 1;
    }
    // One unit of attributed work per token — the empirical-work metric
    // the span gate's curve fit checks against Θ(n). No-op untraced.
    pdc_core::trace::record_steps(tokens.max(1));
    owned(counts)
}

/// A count table with its borrowed words copied out.
fn owned<'a>(counts: impl IntoIterator<Item = (Cow<'a, str>, u64)>) -> Vec<(String, u64)> {
    counts
        .into_iter()
        .map(|(word, n)| (word.into_owned(), n))
        .collect()
}

/// Recover word counts from a KV final state where every token was
/// `Put` exactly once: a key's version bumps on each overwrite, so its
/// final version equals the number of `Put`s — the count. Reads a
/// `db::serve` outcome's state.
pub fn counts_from_kv(state: &KvState) -> Vec<(String, u64)> {
    state
        .iter()
        .map(|(key, (_val, ver))| (key.clone(), *ver))
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
    /// merges them into the run's `pdc-trace/3`, written here as
    /// `merged.trace.json`.
    pub trace_dir: Option<PathBuf>,
}

impl WireSpec {
    /// The concrete [`WireOptions`] for one `(seed, size)` run — the
    /// *same* construction in the parent and in the re-entered child,
    /// so the world ids match.
    pub fn options(&self, seed: u64, size: usize) -> WireOptions {
        let mut opts = WireOptions::for_args(
            MPI_RANKS,
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

/// Wire-child entry: re-enter the exact wire world the parent is
/// blocked on, with the `(seed, size)` the world id carries. Each rank
/// process regenerates the corpus. Call from the binary's dispatch on
/// `WireWorld::child_world_id` when the id carries
/// `spec.world_prefix`.
///
/// # Panics
/// Panics if `world_id` was not minted by `spec` (and never returns
/// otherwise — the wire child exits inside its world).
pub fn run_wire_wordcount_child(spec: &WireSpec, world_id: &str) -> ! {
    let (seed, size) = spec
        .parse_world(world_id)
        .expect("world id minted by WireSpec::options");
    run_wire_ranks(spec, seed, size);
    unreachable!("wire child returned from its world");
}

/// One rank of word count on [`run_ranks`]: rank `r` maps documents
/// `r, r + p, …` and folds their borrowed tokens; a word becomes an
/// owned message key once per rank.
fn count_ranks<T: Transport<Vec<(String, u64)>>>(
    rank: &mut Rank<Vec<(String, u64)>, T>,
    docs: &[String],
) -> Option<Vec<(String, u64)>> {
    let splits = docs.iter().skip(rank.id()).step_by(rank.size());
    run_ranks(
        rank,
        splits,
        |doc| tokens(doc).map(|w| (w, 1)),
        |n, m| *n += m,
    )
}

/// Count words with `p` thread ranks in one traced world (`mpi-local`).
fn count_local(docs: &[String], p: usize, session: &TraceSession) -> Vec<(String, u64)> {
    let (mut counts, _) = World::run_traced(p, session, |rank| count_ranks(rank, docs));
    counts.swap_remove(0).expect("rank 0 is the gather's root")
}

/// The wire world of the corpus `(seed, size)`: the same call in the
/// parent and in every re-entered child. Only the rank processes build
/// the corpus.
fn run_wire_ranks(spec: &WireSpec, seed: u64, size: usize) -> WireRun<Option<Vec<(String, u64)>>> {
    WireWorld::run(&spec.options(seed, size), |rank| {
        count_ranks(rank, &gen_docs(seed, size))
    })
}

/// Count words with [`MPI_RANKS`] OS processes over loopback TCP (the
/// `mpi-wire` backend). A traced spec's merged `pdc-trace/3` is
/// written to `merged.trace.json` in its `trace_dir`.
fn count_wire(spec: &WireSpec, ctx: &ScenarioCtx<'_>) -> Vec<(String, u64)> {
    let mut run = run_wire_ranks(spec, ctx.seed, ctx.size);
    if let (Some(dir), Some(trace)) = (&spec.trace_dir, &run.trace) {
        let json = trace.to_json(&[("source", "wordcount mpi-wire".to_string())]);
        write_text_file(&dir.join("merged.trace.json"), &json).expect("write merged trace");
    }
    run.results
        .swap_remove(0)
        .expect("rank 0 is the gather's root")
}

/// MapReduce word count on sequential / threads / mpi-local backends,
/// plus — when constructed [`WordCountScenario::with_wire`] — the same
/// rank shuffle as real OS processes over loopback TCP.
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

/// Count words using [`run_job`]'s thread-parallel map/shuffle/reduce
/// over the borrowed documents: the mappers emit borrowed tokens, and a
/// word is copied out once, after the reduce. Traced, each map worker
/// attributes its own tokens (one pair each) as work on its own strand.
fn count_mapreduce(docs: &[String], workers: usize) -> Vec<(String, u64)> {
    let (counts, _stats) = run_job(
        docs.iter().map(String::as_str).collect(),
        workers,
        workers,
        |doc: &str| tokens(doc).map(|w| (w, 1u64)).collect::<Vec<_>>(),
        |_word, ones: Vec<u64>| ones.iter().sum::<u64>(),
    );
    let mut counts = owned(counts);
    counts.sort();
    counts
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
                ranks: MPI_RANKS,
                wire: false,
            },
        ];
        if self.wire.is_some() {
            backends.push(Backend::Mpi {
                ranks: MPI_RANKS,
                wire: true,
            });
        }
        backends
    }

    fn run(&self, backend: &Backend, ctx: &ScenarioCtx<'_>) -> Outcome {
        let docs = || gen_docs(ctx.seed, ctx.size);
        let counts = match backend {
            Backend::Sequential => count_sequential(&docs()),
            Backend::Threads { workers } => count_mapreduce(&docs(), *workers),
            Backend::Mpi { ranks, wire: false } => count_local(&docs(), *ranks, ctx.session),
            Backend::Mpi { wire: true, .. } => {
                let spec = self.wire.as_ref().expect("wire backend requires a spec");
                count_wire(spec, ctx)
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
        // Word-final sigma lowercases to ς, any other to σ.
        assert_eq!(tokenize("ΌΣΟΣ, Σ."), vec!["όσος", "σ"]);
        let kinds: Vec<bool> = tokens("map, The ΌΣΟΣ")
            .map(|t| matches!(t, Cow::Borrowed(_)))
            .collect();
        assert_eq!(
            kinds,
            vec![true, false, false],
            "owned only when lowercasing changes"
        );
    }

    /// The reference normalization: trim each whitespace-separated word
    /// to its alphanumeric core, then `str::to_lowercase`.
    fn reference(doc: &str) -> Vec<String> {
        doc.split_whitespace()
            .map(|w| {
                w.trim_matches(|c: char| !c.is_alphanumeric())
                    .to_lowercase()
            })
            .filter(|w| !w.is_empty())
            .collect()
    }

    /// Text that mixes arbitrary characters with the ones lowercasing
    /// treats specially: non-ASCII capitals, a titlecase digraph, a
    /// capital that lowercases to two characters, and `Σ`, whose
    /// lowercase depends on whether it ends a word.
    #[derive(Debug, Clone, Copy)]
    struct Text;

    impl Text {
        const PIECES: &'static [&'static str] = &[
            "Σ", "ΌΣΟΣ", "σ", "ΑΣ.", "Ǆ", "ǅ", "İ", "É", "ẞ", "Ω", "ß", "Ⅻ", "ǅΣ", " ", "\t",
            "\u{a0}", "\u{2028}", "—", "(", ".", "The", "MAP,", "reduce", "42",
        ];
    }

    impl proptest::strategy::Strategy for Text {
        type Value = String;

        fn pick(&self, rng: &mut proptest::test_runner::TestRng) -> String {
            let mut doc = String::new();
            for _ in 0..rng.next_u64() % 24 {
                let draw = rng.next_u64();
                let scalar = |limit: u32| char::from_u32((draw >> 8) as u32 % limit);
                match draw % 4 {
                    // Any scalar value, the BMP twice as often.
                    0 => doc.push(scalar(0x1_0000).unwrap_or('\u{fffd}')),
                    1 => doc.push(scalar(0x11_0000).unwrap_or('\u{fffd}')),
                    2 => doc.push(char::from(b" aZ,.!9"[(draw >> 8) as usize % 7])),
                    _ => doc.push_str(Self::PIECES[(draw >> 8) as usize % Self::PIECES.len()]),
                }
            }
            doc
        }

        fn specials(&self) -> Vec<String> {
            [
                "",
                "Σ",
                "ΌΣΟΣ, Σ. ΣΑ",
                "The MAP, reduce.",
                "İstanbul ǅemal ẞ Ⅻ",
            ]
            .map(String::from)
            .to_vec()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The borrowed tokenizer yields the reference's tokens, and owns
        /// a token exactly when lowercasing changes it.
        #[test]
        fn tokens_follow_the_reference_normalization(doc in Text) {
            let trimmed = doc
                .split_whitespace()
                .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()))
                .filter(|w| !w.is_empty());
            let got: Vec<Cow<'_, str>> = tokens(&doc).collect();
            proptest::prop_assert_eq!(tokenize(&doc), reference(&doc));
            proptest::prop_assert_eq!(got.len(), trimmed.clone().count());
            for (token, word) in got.iter().zip(trimmed) {
                let lower = word.to_lowercase();
                proptest::prop_assert_eq!(token.as_ref(), lower.as_str());
                proptest::prop_assert_eq!(matches!(token, Cow::Owned(_)), lower != word, "{:?}", word);
            }
        }

        /// The sequential count equals a `BTreeMap` count of the
        /// reference's tokens.
        #[test]
        fn sequential_count_equals_the_reference_count(
            docs in proptest::collection::vec(Text, 0..6),
        ) {
            let mut want: BTreeMap<String, u64> = BTreeMap::new();
            for word in docs.iter().flat_map(|doc| reference(doc)) {
                *want.entry(word).or_insert(0) += 1;
            }
            proptest::prop_assert_eq!(count_sequential(&docs), want.into_iter().collect::<Vec<_>>());
        }
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
    fn rank_counts_equal_sequential_counts() {
        // Where p > ndocs, some ranks map nothing and some partitions
        // are empty.
        for ndocs in [0, 1, 2, 7, 40] {
            let docs = gen_docs(4, ndocs);
            let want = digest_counts(&count_sequential(&docs));
            for p in [1, 2, 3, 5] {
                let got = count_local(&docs, p, &TraceSession::new());
                assert_eq!(digest_counts(&got), want, "p={p} ndocs={ndocs}");
            }
        }
    }

    #[test]
    fn rank_shuffle_sends_a_fixed_message_count_on_p_parallel_strands() {
        use pdc_core::trace::{EventKind, MARK_STEPS};
        for p in [2, 3] {
            // Token counts 10x apart: the message count must not move.
            for ndocs in [36, 360] {
                let docs = gen_docs(8, ndocs);
                let tokens: u64 = docs.iter().map(|d| tokenize(d).len() as u64).sum();
                let session = TraceSession::new();
                count_local(&docs, p, &session);
                let snap = session.snapshot();
                let msgs = p * (p - 1) + (p - 1);
                assert_eq!(snap.get("mpi.msgs"), msgs as u64, "p={p} ndocs={ndocs}");
                assert_eq!(snap.get("coll.alltoall"), p as u64, "p={p} ndocs={ndocs}");
                let mut steps = vec![0u64; p];
                for e in session.events() {
                    if e.kind == EventKind::Mark && e.a == MARK_STEPS {
                        let actor = e.actor as usize;
                        assert!(actor < p, "steps marked by actor {actor}, not a rank");
                        steps[actor] += e.b;
                    }
                }
                assert!(steps.iter().all(|&s| s > 0), "every rank maps: {steps:?}");
                assert_eq!(steps.iter().sum::<u64>(), tokens, "p={p} ndocs={ndocs}");
                let parallelism = pdc_analyze::analyze_span_session(&session).parallelism();
                assert!(
                    parallelism >= p as f64 - 0.5,
                    "parallelism {parallelism:.2} at p={p} ndocs={ndocs}"
                );
            }
        }
    }

    #[test]
    fn wire_backend_agrees_with_in_process_backends() {
        let path = "wordcount::tests::wire_backend_agrees_with_in_process_backends";
        // Children read the trace directory from their environment, so
        // the parent's process id names it.
        let dir = std::env::temp_dir().join(format!("pdc-wordcount-wire-{}", std::process::id()));
        let spec = WireSpec {
            world_prefix: path.to_string(),
            child_args: vec![
                path.to_string(),
                "--exact".to_string(),
                "--nocapture".to_string(),
            ],
            trace_dir: Some(dir.clone()),
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
        // The merged trace on disk holds every rank process, and each
        // one sent messages.
        let json = std::fs::read_to_string(dir.join("merged.trace.json")).expect("merged trace");
        let merged = pdc_core::merge::MergedTrace::parse(&json).expect("pdc-trace/3");
        assert_eq!(merged.processes.len(), MPI_RANKS);
        for proc in &merged.processes {
            assert!(
                proc.counters.get("mpi.msgs").copied() > Some(0),
                "{}",
                proc.process
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequential_digests_at_the_gates_seed_are_pinned() {
        // Every backend, the scenario gate and the benchmark compare
        // against the same build's sequential count, so a change to the
        // corpus or the normalization that all of them share passes
        // those checks; these values, read from the scenario gate's seed
        // (0x5ceaa19) at its three sizes, catch it. The corpus digest
        // pins `gen_docs` itself, so a count that hides a corpus change
        // still fails here.
        const SEED: u64 = 0x05CE_AA10 ^ 9;
        for (size, counts, corpus) in [
            (40, 0x0ee0_dd62_0a90_ea8f, 0xe0f6_a2ed_34ad_4720),
            (120, 0x0eca_919f_e9c3_3f22, 0x1d50_3647_87b9_05cf),
            (360, 0xd2aa_4b0c_f4de_6395, 0xce46_b411_9673_b94e),
        ] {
            let mut d = Digest::new();
            for doc in gen_docs(SEED, size) {
                d.write_str(&doc);
            }
            assert_eq!(d.finish(), corpus, "corpus n={size}: {:#x}", d.finish());
            let session = TraceSession::new();
            let ctx = ScenarioCtx {
                seed: SEED,
                size,
                session: &session,
            };
            let outcome = WordCountScenario::new().run(&Backend::Sequential, &ctx);
            assert_eq!(outcome.digest, counts, "n={size}: {:#x}", outcome.digest);
        }
    }

    #[test]
    fn corpus_is_deterministic_and_seed_sensitive() {
        assert_eq!(gen_docs(9, 4), gen_docs(9, 4));
        assert_ne!(gen_docs(9, 4), gen_docs(10, 4));
    }
}
