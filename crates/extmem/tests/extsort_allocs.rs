//! Allocation budget of the external merge sort.
//!
//! A sort should allocate per run and per merged file, not per block
//! or per record: a block fetch hands out records from the file's own
//! storage, run formation copies whole blocks into a chunk sized once,
//! and every writer is sized from the length it will hold. A counting
//! global allocator measures whole scenario runs (input file, sort and
//! digest) at two sizes with the same run count, so the larger sort may
//! allocate a little more but must not scale with the records.
//!
//! This file is its own test binary with exactly one test, so no other
//! test allocates while it counts.

use pdc_core::scenario::{Backend, Scenario, ScenarioCtx};
use pdc_core::trace::TraceSession;
use pdc_extmem::ExtsortScenario;
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

/// How many times the allocations of the smaller sort the 10x larger
/// one may make.
const GROWTH_BUDGET: u64 = 8;

/// Heap allocations of one sequential scenario run of `n` records
/// (M = n/8, B = 16: eight runs, one merge pass), and its I/O count.
fn allocs(n: usize) -> (u64, String) {
    let session = TraceSession::new();
    let ctx = ScenarioCtx {
        seed: 1,
        size: n,
        session: &session,
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let outcome = ExtsortScenario.run(&Backend::Sequential, &ctx);
    (ALLOCS.load(Ordering::Relaxed) - before, outcome.detail)
}

#[test]
fn sort_allocates_per_run_not_per_block() {
    // A first run pays one-time costs (trace registry set-up); no
    // measured run should.
    allocs(4_000);
    let (small, small_ios) = allocs(50_000);
    let (large, large_ios) = allocs(500_000);
    println!("{small} allocations at 50k records ({small_ios}), {large} at 500k ({large_ios})");
    assert!(
        large <= GROWTH_BUDGET * small,
        "{large} allocations at 500k records vs {small} at 50k (budget {GROWTH_BUDGET}x)"
    );
}
