//! A mini MapReduce framework — the Hadoop-lab substitute (paper
//! Section III: "Most likely the additional lab will involve using
//! Hadoop").
//!
//! The three phases run exactly as the programming model prescribes:
//! *map* tasks run in parallel over input splits emitting `(K, V)` pairs;
//! the *shuffle* partitions pairs by `hash(K) % reducers` and groups
//! values per key; *reduce* tasks run in parallel over their partitions.
//! Shuffle volume (pairs moved across the map→reduce boundary) is
//! reported, since that is the quantity MapReduce tuning obsesses over.
//! Two forms run a job:
//!
//! * [`run_job`] — map and reduce workers on scoped threads sharing one
//!   address space; the shuffle is a hash-partitioned regrouping in
//!   memory.
//! * [`run_ranks`] — the job as the body of one rank of a world
//!   ([`crate::World`] threads or [`crate::WireWorld`] processes).
//!   Each rank maps its own splits and folds the pairs with a combiner
//!   (Dean and Ghemawat, OSDI 2004), partitions its keys by the same
//!   `hash(K) % p` as [`run_job`], exchanges the partitions in one
//!   [`coll::alltoall`], reduces the keys it owns, and one
//!   [`coll::gather`] brings them to rank 0: p(p − 1) + (p − 1)
//!   messages per job, whatever the input size.
//!
//! When the calling thread has a sync trace installed, every map and
//! reduce worker of [`run_job`] records on a sibling strand of it, with
//! the same fork/join edges `pdc_threads::join` records, and each map
//! worker attributes its emitted pairs as work — so the span profiler
//! sees the phases as parallel strands, not as serial work on the
//! driver. A traced rank of [`run_ranks`] attributes its pairs on its
//! own strand, and the collectives join the strands.

use crate::coll;
use crate::transport::Transport;
use crate::world::{Payload, Rank};
use pdc_core::trace::{self, EventKind, ThreadTrace};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{Hash, Hasher};

/// Statistics from one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStats {
    /// Map tasks executed.
    pub map_tasks: u64,
    /// Intermediate pairs emitted by all mappers.
    pub pairs_emitted: u64,
    /// Pairs moved during the shuffle (= emitted, without a combiner).
    pub shuffle_pairs: u64,
    /// Distinct keys reduced.
    pub distinct_keys: u64,
    /// Reduce tasks executed.
    pub reduce_tasks: u64,
}

/// A worker's strand of the caller's trace: the caller records the
/// fork before the worker starts and the worker adopts it; the worker
/// publishes its history under `h_join`, which the caller adopts once
/// the worker is joined.
struct Strand {
    trace: ThreadTrace,
    h_fork: u64,
    h_join: u64,
}

impl Strand {
    /// Fork a strand off `parent` (on the parent's thread).
    fn fork(parent: &ThreadTrace) -> Strand {
        let h_fork = trace::next_site_id();
        let h_join = trace::next_site_id();
        parent.record(EventKind::Fork, h_fork, 0);
        Strand {
            trace: parent.sibling_auto(),
            h_fork,
            h_join,
        }
    }

    /// Run `work` on the worker's thread, as `strand` when traced.
    fn run<T>(strand: Option<&Strand>, work: impl FnOnce() -> T) -> T {
        let Some(st) = strand else {
            return work();
        };
        trace::install_sync_trace(st.trace.clone());
        st.trace.record(EventKind::Join, st.h_fork, 0);
        let out = work();
        st.trace.record(EventKind::Fork, st.h_join, 0);
        trace::clear_sync_trace();
        out
    }
}

fn partition_of<K: Hash>(key: &K, reducers: usize) -> usize {
    let mut h = std::hash::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % reducers as u64) as usize
}

/// Run a MapReduce job.
///
/// * `inputs` — one element per input split; each map task receives one.
/// * `mappers` — number of parallel map workers.
/// * `reducers` — number of parallel reduce workers (= output partitions).
/// * `map_fn(split) -> Vec<(K, V)>` — the mapper.
/// * `reduce_fn(key, values) -> R` — the reducer, called once per key.
///
/// Returns the `(K, R)` results (sorted by partition then key order of
/// arrival — deterministic for a fixed input) and the [`JobStats`].
///
/// Traced (see the module docs), each map worker records its emitted
/// pair count as [`trace::record_steps`] work.
pub fn run_job<I, K, V, R, MF, RF>(
    inputs: Vec<I>,
    mappers: usize,
    reducers: usize,
    map_fn: MF,
    reduce_fn: RF,
) -> (Vec<(K, R)>, JobStats)
where
    I: Send,
    K: Hash + Eq + Ord + Clone + Send,
    V: Send,
    R: Send,
    MF: Fn(I) -> Vec<(K, V)> + Sync,
    RF: Fn(&K, Vec<V>) -> R + Sync,
{
    assert!(mappers > 0, "need at least one mapper");
    assert!(reducers > 0, "need at least one reducer");
    let map_tasks = inputs.len() as u64;

    // ---- Map phase: split inputs round-robin across mapper workers.
    let mut worker_inputs: Vec<Vec<I>> = (0..mappers).map(|_| Vec::new()).collect();
    for (i, input) in inputs.into_iter().enumerate() {
        worker_inputs[i % mappers].push(input);
    }
    let parent = trace::current_sync_trace();
    let map_fn = &map_fn;
    let mapped: Vec<Vec<(K, V)>> = std::thread::scope(|s| {
        let handles: Vec<_> = worker_inputs
            .into_iter()
            .map(|splits| {
                let strand = parent.as_ref().map(Strand::fork);
                let h_join = strand.as_ref().map(|st| st.h_join);
                let h = s.spawn(move || {
                    Strand::run(strand.as_ref(), || {
                        let mut out = Vec::new();
                        for split in splits {
                            out.extend(map_fn(split));
                        }
                        trace::record_steps(out.len() as u64);
                        out
                    })
                });
                (h, h_join)
            })
            .collect();
        handles
            .into_iter()
            .map(|h| join_strand(h, &parent))
            .collect()
    });
    let pairs_emitted: u64 = mapped.iter().map(|m| m.len() as u64).sum();

    // ---- Shuffle: partition by key hash, group values per key.
    let mut partitions: Vec<HashMap<K, Vec<V>>> = (0..reducers).map(|_| HashMap::new()).collect();
    for pairs in mapped {
        for (k, v) in pairs {
            let part = partition_of(&k, reducers);
            partitions[part].entry(k).or_default().push(v);
        }
    }
    let distinct_keys: u64 = partitions.iter().map(|p| p.len() as u64).sum();

    // ---- Reduce phase: one worker per partition.
    let reduce_fn = &reduce_fn;
    let reduced: Vec<Vec<(K, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = partitions
            .into_iter()
            .map(|part| {
                let strand = parent.as_ref().map(Strand::fork);
                let h_join = strand.as_ref().map(|st| st.h_join);
                let h = s.spawn(move || {
                    Strand::run(strand.as_ref(), || {
                        // Sort keys for deterministic output within a partition.
                        let mut entries: Vec<(K, Vec<V>)> = part.into_iter().collect();
                        entries.sort_by(|a, b| a.0.cmp(&b.0));
                        entries
                            .into_iter()
                            .map(|(k, vs)| {
                                let r = reduce_fn(&k, vs);
                                (k, r)
                            })
                            .collect::<Vec<_>>()
                    })
                });
                (h, h_join)
            })
            .collect();
        handles
            .into_iter()
            .map(|h| join_strand(h, &parent))
            .collect()
    });

    let stats = JobStats {
        map_tasks,
        pairs_emitted,
        shuffle_pairs: pairs_emitted,
        distinct_keys,
        reduce_tasks: reducers as u64,
    };
    (reduced.into_iter().flatten().collect(), stats)
}

/// Run a job as the body of one rank (see the module docs); every rank
/// of the world calls it.
///
/// * `splits` — this rank's input splits; `map_fn(split)` yields its
///   `(Q, V)` pairs. The map key `Q` may borrow from the split (a
///   `Cow<str>` token of a document, say): the combiner's table is
///   keyed by it, and each distinct key becomes the owned message key
///   `K` once, before it is partitioned. A map side that emits `K`
///   itself sets `Q = K`.
/// * `combine(acc, v)` folds `v` into the value already held for the
///   same key. It must be associative and commutative: it is the
///   map-side combiner and the reducer both.
///
/// Rank 0 returns every `(K, V)` of the job sorted by key; every other
/// rank returns `None`. Traced, the rank records its emitted pair count
/// as [`trace::record_steps`] work.
pub fn run_ranks<I, Q, K, V, It, T>(
    rank: &mut Rank<Vec<(K, V)>, T>,
    splits: impl IntoIterator<Item = I>,
    mut map_fn: impl FnMut(I) -> It,
    combine: impl Fn(&mut V, V),
) -> Option<Vec<(K, V)>>
where
    Q: Hash + Eq + Into<K>,
    K: Payload + Hash + Ord,
    V: Payload,
    It: IntoIterator<Item = (Q, V)>,
    T: Transport<Vec<(K, V)>>,
{
    let p = rank.size();
    let mut combined = HashMap::new();
    let mut emitted = 0u64;
    for split in splits {
        for (q, v) in map_fn(split) {
            emitted += 1;
            fold(&mut combined, q, v, &combine);
        }
    }
    trace::record_steps(emitted);

    let mut partitions: Vec<Vec<(K, V)>> = (0..p).map(|_| Vec::new()).collect();
    for (q, v) in combined {
        let k: K = q.into();
        partitions[partition_of(&k, p)].push((k, v));
    }
    let mut owned = HashMap::new();
    for (k, v) in coll::alltoall(rank, partitions).into_iter().flatten() {
        fold(&mut owned, k, v, &combine);
    }
    let mut reduced: Vec<(K, V)> = owned.into_iter().collect();
    reduced.sort_unstable_by(|a, b| a.0.cmp(&b.0));

    coll::gather(rank, 0, reduced).map(|runs| {
        // Each rank's keys are one sorted run, disjoint from the others';
        // a stable sort merges the runs.
        let mut all: Vec<(K, V)> = runs.into_iter().flatten().collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    })
}

/// Fold `(k, v)` into `table` with `combine`.
fn fold<K: Hash + Eq, V>(table: &mut HashMap<K, V>, k: K, v: V, combine: &impl Fn(&mut V, V)) {
    match table.entry(k) {
        Entry::Occupied(mut held) => combine(held.get_mut(), v),
        Entry::Vacant(slot) => {
            slot.insert(v);
        }
    }
}

/// Join a worker and, when traced, adopt its strand's history (the
/// `h_join` handle it published) on `parent`.
fn join_strand<T>(
    (handle, h_join): (std::thread::ScopedJoinHandle<'_, T>, Option<u64>),
    parent: &Option<ThreadTrace>,
) -> T {
    let out = handle.join().unwrap();
    if let (Some(h), Some(p)) = (h_join, parent) {
        p.record(EventKind::Join, h, 0);
    }
    out
}

/// The canonical word-count job.
pub fn word_count(
    documents: Vec<String>,
    mappers: usize,
    reducers: usize,
) -> (Vec<(String, u64)>, JobStats) {
    run_job(
        documents,
        mappers,
        reducers,
        |doc: String| {
            doc.split_whitespace()
                .map(|w| {
                    (
                        w.trim_matches(|c: char| !c.is_alphanumeric())
                            .to_lowercase(),
                        1u64,
                    )
                })
                .filter(|(w, _)| !w.is_empty())
                .collect()
        },
        |_k, vs| vs.iter().sum::<u64>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use std::collections::HashMap as Map;

    #[test]
    fn word_count_basic() {
        let docs = vec![
            "the quick brown fox".to_string(),
            "the lazy dog and the fox".to_string(),
        ];
        let (results, stats) = word_count(docs, 2, 3);
        let m: Map<String, u64> = results.into_iter().collect();
        assert_eq!(m["the"], 3);
        assert_eq!(m["fox"], 2);
        assert_eq!(m["dog"], 1);
        assert_eq!(stats.map_tasks, 2);
        assert_eq!(stats.pairs_emitted, 10);
        assert_eq!(stats.distinct_keys, 7);
        assert_eq!(stats.reduce_tasks, 3);
    }

    #[test]
    fn punctuation_and_case_normalized() {
        let (results, _) = word_count(vec!["Hello, hello! HELLO?".to_string()], 1, 1);
        let m: Map<String, u64> = results.into_iter().collect();
        assert_eq!(m["hello"], 3);
        assert_eq!(m.len(), 1);
    }

    /// A corpus without punctuation or capitals, so the rank form's
    /// plain whitespace split counts what `word_count` counts.
    fn corpus() -> Vec<String> {
        (0..50)
            .map(|i| format!("w{} w{} shared", i % 7, i % 3))
            .collect()
    }

    /// The rank form's word count: one pair per whitespace token.
    fn words(doc: &str) -> impl Iterator<Item = (String, u64)> + '_ {
        doc.split_whitespace().map(|w| (w.to_string(), 1))
    }

    #[test]
    fn results_independent_of_worker_counts() {
        let docs = corpus();
        let canonical = {
            let (mut r, _) = word_count(docs.clone(), 1, 1);
            r.sort();
            r
        };
        for (m, red) in [(1usize, 4usize), (3, 2), (8, 1), (4, 4)] {
            let (mut r, _) = word_count(docs.clone(), m, red);
            r.sort();
            assert_eq!(r, canonical, "mappers={m} reducers={red}");
        }
        // The rank form, round-robin splits, at every world size.
        for p in [1usize, 2, 3, 5] {
            let (mut out, stats) = World::run(p, |rank: &mut Rank<Vec<(String, u64)>>| {
                let splits = docs.iter().skip(rank.id()).step_by(p);
                run_ranks(rank, splits, |doc: &String| words(doc), |n, m| *n += m)
            });
            assert_eq!(out.remove(0).as_ref(), Some(&canonical), "p={p}");
            assert!(out.iter().all(Option::is_none), "only rank 0 returns");
            assert_eq!(stats.messages, (p * (p - 1) + (p - 1)) as u64, "p={p}");
        }
    }

    #[test]
    fn rank_form_runs_in_a_wire_world() {
        // Each rank process rebuilds the corpus and maps its own splits;
        // the alltoall and the gather cross real sockets.
        use crate::transport::{WireOptions, WireTransport, WireWorld};
        let docs = corpus();
        let opts = WireOptions::for_test(3, "mapreduce::tests::rank_form_runs_in_a_wire_world");
        type Msg = Vec<(String, u64)>;
        let run = WireWorld::run(&opts, |rank: &mut Rank<Msg, WireTransport<Msg>>| {
            let splits = docs.iter().skip(rank.id()).step_by(rank.size());
            run_ranks(rank, splits, |doc: &String| words(doc), |n, m| *n += m)
        });
        let (mut want, _) = word_count(docs, 1, 1);
        want.sort();
        assert_eq!(run.results[0], Some(want));
        assert!(run.results[1..].iter().all(Option::is_none));
        assert_eq!(run.stats.messages, 3 * 2 + 2);
    }

    #[test]
    fn generic_job_inverted_index() {
        // Build an inverted index: word -> sorted list of doc ids.
        let docs: Vec<(usize, &str)> = vec![
            (0, "apple banana"),
            (1, "banana cherry"),
            (2, "apple cherry apple"),
        ];
        let (results, _) = run_job(
            docs,
            2,
            2,
            |(id, text): (usize, &str)| {
                text.split_whitespace()
                    .map(|w| (w.to_string(), id))
                    .collect()
            },
            |_w, mut ids: Vec<usize>| {
                ids.sort_unstable();
                ids.dedup();
                ids
            },
        );
        let m: Map<String, Vec<usize>> = results.into_iter().collect();
        assert_eq!(m["apple"], vec![0, 2]);
        assert_eq!(m["banana"], vec![0, 1]);
        assert_eq!(m["cherry"], vec![1, 2]);
    }

    #[test]
    fn every_key_lands_in_exactly_one_partition() {
        let docs: Vec<String> = (0..100).map(|i| format!("key{}", i % 20)).collect();
        let (results, stats) = word_count(docs, 4, 5);
        assert_eq!(results.len(), 20, "20 distinct keys, no duplicates");
        assert_eq!(stats.distinct_keys, 20);
        let total: u64 = results.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn empty_input() {
        let (results, stats) = word_count(vec![], 2, 2);
        assert!(results.is_empty());
        assert_eq!(stats.pairs_emitted, 0);
    }

    #[test]
    fn stats_shuffle_equals_emitted_without_combiner() {
        let (_, stats) = word_count(vec!["a a a a".to_string()], 1, 1);
        assert_eq!(stats.shuffle_pairs, stats.pairs_emitted);
        assert_eq!(stats.pairs_emitted, 4);
    }
}
