//! Allocation budget of the in-process KV shuffle.
//!
//! Wordcount pushes one PUT per token through
//! `sharded::run_local_traced`, so every heap allocation the router,
//! the coalescer or a shard makes per op is paid once per token. A counting global allocator measures the whole
//! traced run — thread spawns, batches, reports and the final merge
//! included — and divides by the op count.
//!
//! This file is its own test binary with exactly one test, so no other
//! test allocates while it counts.

use pdc_core::trace::TraceSession;
use pdc_db::sharded::{apply_script, run_local_traced, KvState, ShardOp};
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

const OPS: usize = 20_000;
const SHARDS: usize = 2;

/// Heap allocations per op across one traced, batched run of `ops`;
/// the run's state must equal `want`.
fn allocs_per_op(ops: Vec<ShardOp>, want: &KvState) -> f64 {
    let n = ops.len();
    let session = TraceSession::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    let (state, _) = run_local_traced(SHARDS, ops, true, &session);
    let counted = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        &state, want,
        "the shuffle must land on apply_script's state"
    );
    counted as f64 / n as f64
}

#[test]
fn shuffled_ops_stay_within_their_allocation_budget() {
    // Both scripts and their reference states are built before any
    // counting starts.
    let distinct: Vec<ShardOp> = (0..OPS)
        .map(|i| ShardOp::Put {
            key: format!("key{i:06}"),
            val: format!("v{i}"),
        })
        .collect();
    let hot: Vec<ShardOp> = (0..OPS)
        .map(|i| ShardOp::Put {
            key: format!("w{}", i % 24),
            val: "1".to_string(),
        })
        .collect();
    let distinct_state = apply_script(&distinct);
    let hot_state = apply_script(&hot);

    // A new key costs its key and value copies in the shard's map plus
    // B-tree nodes, batch buffers and the report; nothing else may
    // allocate per op.
    let per_op = allocs_per_op(distinct, &distinct_state);
    println!("distinct keys: {per_op:.3} allocations per op");
    assert!(
        per_op <= 2.5,
        "{per_op:.3} allocations per PUT to a distinct key (budget 2.5)"
    );
    // A PUT to a bound key overwrites in place: only batch buffers and
    // per-run setup remain.
    let per_op = allocs_per_op(hot, &hot_state);
    println!("24 hot keys: {per_op:.3} allocations per op");
    assert!(
        per_op <= 0.1,
        "{per_op:.3} allocations per PUT to one of 24 hot keys (budget 0.1)"
    );
}
