//! A mini MapReduce framework — the Hadoop-lab substitute (paper
//! Section III: "Most likely the additional lab will involve using
//! Hadoop").
//!
//! [`run_ranks`] is the one engine: a job runs as the body of every
//! rank of a world ([`crate::World`] threads or [`crate::WireWorld`]
//! processes), in the three phases the programming model prescribes.
//!
//! * *Map* — each rank maps its own input splits into `(K, V)` pairs
//!   and folds them with a combiner (Dean and Ghemawat, OSDI 2004), so
//!   a key leaves a rank once however often the rank emitted it.
//! * *Shuffle* — each rank partitions its keys by `hash(K) % p`, and
//!   one [`coll::alltoall`] hands every partition to the rank that owns
//!   it.
//! * *Reduce* — each rank folds the values of the keys it owns, and one
//!   [`coll::gather`] brings them to rank 0.
//!
//! A job sends p(p − 1) + (p − 1) messages whatever the input size, and
//! the combiner keeps the shuffle's volume at one pair per distinct key
//! per rank, not one per emitted pair. A traced rank attributes its
//! emitted pairs as work on its own strand, and the collectives join
//! the strands, so the span profiler sees p parallel map strands.

use crate::coll;
use crate::transport::Transport;
use crate::world::{Payload, Rank};
use pdc_core::trace;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{Hash, Hasher};

/// The rank that owns `key` in a world of `p` ranks: `hash(key) % p`.
fn partition_of<K: Hash>(key: &K, p: usize) -> usize {
    let mut h = std::hash::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % p as u64) as usize
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use std::collections::BTreeMap;

    /// One pair per whitespace token, keyed by the borrowed token.
    fn words(doc: &str) -> impl Iterator<Item = (&str, u64)> + '_ {
        doc.split_whitespace().map(|w| (w, 1))
    }

    /// The same count folded on one thread: the reference.
    fn reference(docs: &[String]) -> Vec<(String, u64)> {
        let mut counts = BTreeMap::new();
        for (w, n) in docs.iter().flat_map(|doc| words(doc)) {
            *counts.entry(w.to_string()).or_insert(0) += n;
        }
        counts.into_iter().collect()
    }

    /// Messages of one job on `p` ranks: the alltoall and the gather.
    fn job_messages(p: usize) -> u64 {
        (p * (p - 1) + (p - 1)) as u64
    }

    /// Count the words of `docs` on `p` thread ranks, rank `r` mapping
    /// documents `r, r + p, …`; returns rank 0's counts and the world's
    /// message count.
    fn count(docs: &[String], p: usize) -> (Vec<(String, u64)>, u64) {
        let (mut out, stats) = World::run(p, |rank: &mut Rank<Vec<(String, u64)>>| {
            let splits = docs.iter().skip(rank.id()).step_by(p);
            run_ranks(rank, splits, |doc: &String| words(doc), |n, m| *n += m)
        });
        assert!(out[1..].iter().all(Option::is_none), "only rank 0 returns");
        (
            out.swap_remove(0).expect("rank 0 is the gather's root"),
            stats.messages,
        )
    }

    #[test]
    fn counts_two_documents_on_two_ranks() {
        let docs = ["the quick brown fox", "the lazy dog and the fox"].map(String::from);
        let (counts, messages) = count(&docs, 2);
        let m: BTreeMap<String, u64> = counts.into_iter().collect();
        assert_eq!(m["the"], 3);
        assert_eq!(m["fox"], 2);
        assert_eq!(m["dog"], 1);
        assert_eq!(m.len(), 7);
        assert_eq!(messages, job_messages(2));
    }

    /// A corpus of 50 documents over nine words.
    fn corpus() -> Vec<String> {
        (0..50)
            .map(|i| format!("w{} w{} shared", i % 7, i % 3))
            .collect()
    }

    #[test]
    fn results_independent_of_world_size() {
        let docs = corpus();
        let want = reference(&docs);
        for p in [1usize, 2, 3, 5] {
            let (counts, messages) = count(&docs, p);
            assert_eq!(counts, want, "p={p}");
            assert_eq!(messages, job_messages(p), "p={p}");
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
        assert_eq!(run.results[0], Some(reference(&docs)));
        assert!(run.results[1..].iter().all(Option::is_none));
        assert_eq!(run.stats.messages, job_messages(3));
    }

    #[test]
    fn inverted_index_with_a_set_union_combiner() {
        // word -> sorted ids of the documents that hold it. The values
        // are sets, and the combiner is their union, not a sum.
        let docs = ["apple banana", "banana cherry", "apple cherry apple"];
        for p in [1usize, 2, 3] {
            type Msg = Vec<(String, Vec<usize>)>;
            let (mut out, stats) = World::run(p, |rank: &mut Rank<Msg>| {
                let splits = docs.iter().enumerate().skip(rank.id()).step_by(p);
                run_ranks(
                    rank,
                    splits,
                    |(id, text)| text.split_whitespace().map(move |w| (w, vec![id])),
                    |ids, more| {
                        ids.extend(more);
                        ids.sort_unstable();
                        ids.dedup();
                    },
                )
            });
            let index: BTreeMap<String, Vec<usize>> = out
                .swap_remove(0)
                .expect("rank 0 is the gather's root")
                .into_iter()
                .collect();
            assert_eq!(index["apple"], [0, 2], "p={p}");
            assert_eq!(index["banana"], [0, 1], "p={p}");
            assert_eq!(index["cherry"], [1, 2], "p={p}");
            assert_eq!(index.len(), 3, "p={p}");
            assert_eq!(stats.messages, job_messages(p), "p={p}");
        }
    }

    #[test]
    fn every_key_lands_in_exactly_one_partition() {
        let docs: Vec<String> = (0..100).map(|i| format!("key{}", i % 20)).collect();
        for p in [4usize, 5] {
            let (counts, _) = count(&docs, p);
            assert_eq!(counts.len(), 20, "20 distinct keys, no duplicates (p={p})");
            assert!(counts.windows(2).all(|w| w[0].0 < w[1].0), "sorted by key");
            assert!(counts.iter().all(|&(_, n)| n == 5), "p={p}");
        }
    }

    #[test]
    fn empty_input() {
        // No splits anywhere: rank 0 still returns, an empty result, and
        // every rank still takes part in both collectives.
        for p in [1usize, 3] {
            let (counts, messages) = count(&[], p);
            assert!(counts.is_empty(), "p={p}");
            assert_eq!(messages, job_messages(p), "p={p}");
        }
    }
}
