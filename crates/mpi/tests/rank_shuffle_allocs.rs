//! Allocation budget of the rank form's shuffle.
//!
//! `mapreduce::run_ranks` folds every emitted pair into one table per
//! rank before anything moves, so its allocations should grow with the
//! distinct keys, not with the tokens. A counting global allocator
//! measures whole in-process worlds: thread spawns, the combiner's and
//! the reducer's tables, the partitions, the alltoall and the gather.
//! The map step here emits `u64` pairs from a range, so it allocates
//! nothing per token itself.
//!
//! This file is its own test binary with exactly one test, so no other
//! test allocates while it counts.

use pdc_mpi::mapreduce::run_ranks;
use pdc_mpi::{Rank, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting every `alloc` and `realloc` call.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Hot keys of the token-scaling check.
const HOT_KEYS: u64 = 24;
/// Allocations a 10x larger token count over the same keys may add.
const TOKEN_SLACK: u64 = 8;
/// Allocations per distinct key, all ranks together.
const PER_KEY_BUDGET: f64 = 0.03;

/// Heap allocations of one world of `p` ranks counting `tokens` tokens
/// over `keys` distinct keys; rank 0 must return every key once, in
/// key order, with the counts summing to `tokens`.
fn allocs(p: usize, tokens: u64, keys: u64) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let (mut out, _) = World::run(p, |rank: &mut Rank<Vec<(u64, u64)>>| {
        // Rank r's one split: tokens r, r + p, …
        let split = (rank.id() as u64..tokens).step_by(p);
        let pairs = |split: std::iter::StepBy<std::ops::Range<u64>>| split.map(|t| (t % keys, 1));
        run_ranks(rank, [split], pairs, |n, m| *n += m)
    });
    let counted = ALLOCS.load(Ordering::Relaxed) - before;
    let counts = out.swap_remove(0).expect("rank 0 is the gather's root");
    assert!(counts.iter().map(|&(k, _)| k).eq(0..keys), "p={p}");
    assert_eq!(counts.iter().map(|&(_, n)| n).sum::<u64>(), tokens);
    counted
}

#[test]
fn rank_shuffle_allocates_per_key_not_per_token() {
    // A first world pays one-time costs (thread-local set-up); no
    // measured world should.
    allocs(2, 1_000, HOT_KEYS);
    for p in [2, 3] {
        let small = allocs(p, 20_000, HOT_KEYS);
        let large = allocs(p, 200_000, HOT_KEYS);
        println!("p={p}, {HOT_KEYS} keys: {small} allocations at 20k tokens, {large} at 200k");
        assert!(
            large <= small + TOKEN_SLACK,
            "p={p}: {large} allocations at 200k tokens vs {small} at 20k (slack {TOKEN_SLACK})"
        );
        let distinct = allocs(p, 20_000, 20_000);
        let per_key = distinct as f64 / 20_000.0;
        println!("p={p}, 20k distinct keys: {distinct} allocations, {per_key:.4} per key");
        assert!(
            per_key <= PER_KEY_BUDGET,
            "p={p}: {per_key:.4} allocations per distinct key (budget {PER_KEY_BUDGET})"
        );
    }
}
