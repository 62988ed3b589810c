//! MapReduce word count — the CS87 "Hadoop lab" substitute, plus an
//! inverted index built with the same engine and a set-union combiner.
//!
//! ```text
//! cargo run --example mapreduce_wordcount
//! ```

use pdc::db::wordcount::tokens;
use pdc::mpi::mapreduce::run_ranks;
use pdc::mpi::{Rank, World};

const GETTYSBURG: &str = "Four score and seven years ago our fathers brought forth on this \
continent a new nation conceived in Liberty and dedicated to the proposition that all men \
are created equal Now we are engaged in a great civil war testing whether that nation or \
any nation so conceived and so dedicated can long endure";

/// Ranks of both jobs; rank `r` maps documents `r, r + RANKS, …`.
const RANKS: usize = 3;

fn main() {
    println!("== MapReduce word count ==\n");
    // Split the text into per-line "documents".
    let docs: Vec<String> = GETTYSBURG
        .split_whitespace()
        .collect::<Vec<_>>()
        .chunks(8)
        .map(|c| c.join(" "))
        .collect();
    let emitted: usize = docs.iter().map(|doc| tokens(doc).count()).sum();
    println!("{} documents, {emitted} words total\n", docs.len());

    // Each rank combines its own counts, so the shuffle moves one pair
    // per distinct word per rank, not one per word.
    let (mut out, traffic) = World::run(RANKS, |rank: &mut Rank<Vec<(String, u64)>>| {
        let splits = docs.iter().skip(rank.id()).step_by(RANKS);
        run_ranks(
            rank,
            splits,
            |doc| tokens(doc).map(|w| (w, 1)),
            |n, m| *n += m,
        )
    });
    let mut counts = out.swap_remove(0).expect("rank 0 is the gather's root");
    let distinct = counts.len();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("top words:");
    for (w, c) in counts.iter().take(8) {
        println!("  {c:3}  {w}");
    }
    println!(
        "\njob: {RANKS} ranks, {emitted} pairs emitted, {distinct} distinct keys, {} messages ({} bytes)\n",
        traffic.messages, traffic.bytes
    );

    // The same engine with sets for values: an inverted index (word ->
    // documents containing it), whose combiner is set union.
    let (mut out, _) = World::run(RANKS, |rank: &mut Rank<Vec<(String, Vec<usize>)>>| {
        let splits = docs.iter().enumerate().skip(rank.id()).step_by(RANKS);
        run_ranks(
            rank,
            splits,
            |(id, doc)| tokens(doc).map(move |w| (w, vec![id])),
            |ids, more| {
                ids.extend(more);
                ids.sort_unstable();
                ids.dedup();
            },
        )
    });
    let index = out.swap_remove(0).expect("rank 0 is the gather's root");
    let nation = index.iter().find(|(w, _)| w == "nation").unwrap();
    println!(
        "inverted index: 'nation' appears in documents {:?}",
        nation.1
    );
}
