//! Allocation budgets of word count.
//!
//! The corpus, the sequential count and the rank form should allocate
//! per document or per distinct word, not per word drawn or per token
//! counted: `gen_docs` writes each document into one presized string,
//! and the counts fold tokens borrowed from the documents, owning one
//! only when lowercasing changes it. A counting global allocator
//! measures each step.
//!
//! This file is its own test binary with exactly one test, so no other
//! test allocates while it counts.

use pdc_core::scenario::{Backend, Scenario, ScenarioCtx};
use pdc_core::trace::TraceSession;
use pdc_db::wordcount::{count_sequential, gen_docs, tokenize, WordCountScenario};
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

const SEED: u64 = 1;
/// Documents of the measured corpus and of the rank count.
const DOCS: usize = 2_000;
/// How many times the allocations of counting `DOCS / 10` documents
/// counting `DOCS` may make.
const COUNT_GROWTH_BUDGET: u64 = 16;
/// Tokens per allocation the rank count must stay above.
const TOKENS_PER_ALLOC: u64 = 5;

/// `f`'s result and the heap allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// One `mpi-local(2)` scenario run over `size` documents: the corpus,
/// the world and the count.
fn rank_count(size: usize) -> u64 {
    let session = TraceSession::new();
    let ctx = ScenarioCtx {
        seed: SEED,
        size,
        session: &session,
    };
    let backend = Backend::Mpi {
        ranks: 2,
        wire: false,
    };
    WordCountScenario::new().run(&backend, &ctx).items
}

#[test]
fn word_count_allocates_per_document_and_distinct_word() {
    // A first world pays one-time costs (thread-local set-up); no
    // measured run should.
    rank_count(20);

    let (docs, corpus) = counted(|| gen_docs(SEED, DOCS));
    println!("gen_docs: {corpus} allocations for {DOCS} documents");
    assert!(
        corpus <= DOCS as u64 + 1,
        "gen_docs made {corpus} allocations for {DOCS} documents"
    );

    let (_, small) = counted(|| count_sequential(&docs[..DOCS / 10]));
    let (_, large) = counted(|| count_sequential(&docs));
    println!(
        "count_sequential: {small} allocations at {} docs, {large} at {DOCS}",
        DOCS / 10
    );
    assert!(
        large <= COUNT_GROWTH_BUDGET * small,
        "count_sequential: {large} allocations at {DOCS} docs vs {small} at {} (budget {COUNT_GROWTH_BUDGET}x)",
        DOCS / 10
    );

    let tokens: u64 = docs.iter().map(|d| tokenize(d).len() as u64).sum();
    let (items, ranks) = counted(|| rank_count(DOCS));
    assert_eq!(items, tokens, "the rank count counts every token");
    println!("mpi-local(2): {ranks} allocations for {tokens} tokens");
    assert!(
        ranks * TOKENS_PER_ALLOC < tokens,
        "mpi-local(2) made {ranks} allocations for {tokens} tokens (budget: under one per {TOKENS_PER_ALLOC})"
    );
}
