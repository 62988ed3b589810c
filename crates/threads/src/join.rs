//! Structured fork-join: `join(a, b)` and depth-limited parallel
//! recursion.
//!
//! `join` is the primitive of the fork-join model (Cilk's `spawn`/`sync`,
//! Rayon's `join`): run two closures, potentially in parallel, and return
//! both results. Built on `std::thread::scope`, so the closures may borrow
//! from the caller — the same ergonomics Rayon provides, with the
//! guarantee that both complete before `join` returns.
//!
//! Unbounded parallel recursion would create one thread per node; the
//! [`join_depth`] helper caps the fork depth (2^depth leaves) and runs
//! sequentially below the cutoff — exactly the granularity-control lesson
//! of the parallel merge sort lab.

use pdc_core::trace::{self, EventKind};
use pdc_sync::hooks::{self, AbortSchedule};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Run `a` and `b`, potentially in parallel, returning both results.
///
/// `b` runs on a freshly scoped thread while `a` runs on the caller; if
/// thread creation is unavailable this would panic (std behaviour), which
/// is acceptable for the teaching library.
///
/// When the calling thread has a sync trace installed (see
/// [`trace::install_sync_trace`]), the split records the fork-join
/// happens-before diamond: the parent publishes its history under a
/// `fork` handle that the child adopts, and the child publishes under a
/// second handle that the parent adopts after the scope ends — so
/// `pdc-analyze` orders the child's work between the split and the join.
///
/// When the calling thread is additionally a *checked task* under a
/// `pdc-check` exploration, the scoped child registers as a checked
/// task of its own, so fork-join bodies participate in schedule
/// exploration like any `pdc_check::spawn` task.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    match hooks::checked_spawn() {
        None => join_plain(a, b),
        Some(token) => join_checked(token, a, b),
    }
}

/// The uninstrumented path (no checker on this thread): exactly the
/// pre-checker behaviour, trace diamond included.
fn join_plain<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    let parent = trace::current_sync_trace();
    let Some(parent) = parent else {
        return std::thread::scope(|s| {
            let hb = s.spawn(b);
            let ra = a();
            let rb = hb.join().expect("join: task b panicked");
            (ra, rb)
        });
    };
    let h_fork = trace::next_site_id();
    let h_join = trace::next_site_id();
    parent.record(EventKind::Fork, h_fork, 0);
    let child = parent.sibling_auto();
    let result = std::thread::scope(|s| {
        let hb = s.spawn(move || {
            trace::install_sync_trace(child.clone());
            child.record(EventKind::Join, h_fork, 0);
            let rb = b();
            child.record(EventKind::Fork, h_join, 0);
            trace::clear_sync_trace();
            rb
        });
        let ra = a();
        let rb = hb.join().expect("join: task b panicked");
        (ra, rb)
    });
    parent.record(EventKind::Join, h_join, 0);
    result
}

/// The checked path: the scoped child runs as its own checked task.
///
/// Teardown discipline matters here because `std::thread::scope` joins
/// the child even while the parent unwinds: every panic out of `a` or
/// `b` must first make sure the *other* side can finish (by reporting
/// the panic to the checker, which aborts the schedule and wakes every
/// blocked task) before the unwind reaches the scope's implicit join.
fn join_checked<RA, RB>(
    token: hooks::SpawnToken,
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    let parent = trace::current_sync_trace();
    let handles = parent.as_ref().map(|pt| {
        let h_fork = trace::next_site_id();
        let h_join = trace::next_site_id();
        pt.record(EventKind::Fork, h_fork, 0);
        (h_fork, h_join)
    });
    let child = parent.as_ref().map(|pt| pt.sibling_auto());
    let result = std::thread::scope(|s| {
        let hb = s.spawn(move || {
            let out = catch_unwind(AssertUnwindSafe(|| {
                hooks::begin_task(&token);
                if let (Some(ct), Some((h_fork, _))) = (&child, handles) {
                    trace::install_sync_trace(ct.clone());
                    ct.record(EventKind::Join, h_fork, 0);
                }
                let rb = b();
                if let (Some(ct), Some((_, h_join))) = (&child, handles) {
                    ct.record(EventKind::Fork, h_join, 0);
                }
                rb
            }));
            trace::clear_sync_trace();
            if let Err(payload) = &out {
                if payload.downcast_ref::<AbortSchedule>().is_none() {
                    hooks::task_panicked(&token, &hooks::panic_text(payload.as_ref()));
                }
            }
            // Unconditional: the task must reach Finished even when
            // unwinding, or teardown would wait on it forever.
            hooks::end_task(&token);
            match out {
                Ok(rb) => rb,
                Err(payload) => resume_unwind(payload),
            }
        });
        // First decision point where the child is a candidate (the OS
        // thread exists now, per the hooks contract).
        hooks::yield_point();
        let ra = match catch_unwind(AssertUnwindSafe(a)) {
            Ok(ra) => ra,
            Err(payload) => {
                if payload.downcast_ref::<AbortSchedule>().is_none() {
                    // Abort the schedule so the child (possibly blocked
                    // in the checker) unwinds and the scope join below
                    // this frame can complete.
                    hooks::task_panicked(&token, &hooks::panic_text(payload.as_ref()));
                }
                resume_unwind(payload);
            }
        };
        // Wait through the checker (the exploration keeps scheduling
        // other tasks), then do the now-immediate OS join.
        hooks::join_task(&token);
        let rb = match hb.join() {
            Ok(rb) => rb,
            Err(payload) if payload.downcast_ref::<AbortSchedule>().is_some() => {
                resume_unwind(payload)
            }
            Err(_) => panic!("join: task b panicked"),
        };
        (ra, rb)
    });
    if let (Some(pt), Some((_, h_join))) = (&parent, handles) {
        pt.record(EventKind::Join, h_join, 0);
    }
    result
}

/// Like [`join`], but only forks while `depth > 0`; at depth 0 both
/// closures run sequentially on the caller. Pass the decremented depth to
/// recursive calls to get a bounded fork tree.
pub fn join_depth<RA, RB>(
    depth: u32,
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if depth == 0 {
        (a(), b())
    } else {
        join(a, b)
    }
}

/// Parallel divide-and-conquer over a mutable slice: split at the
/// midpoint recursively while `depth > 0`, calling `leaf` on each base
/// chunk. The scaffolding for in-place parallel algorithms (sort,
/// stencil).
pub fn divide_conquer_mut<T: Send>(data: &mut [T], depth: u32, leaf: &(impl Fn(&mut [T]) + Sync)) {
    if depth == 0 || data.len() < 2 {
        leaf(data);
        return;
    }
    let mid = data.len() / 2;
    let (lo, hi) = data.split_at_mut(mid);
    join(
        || divide_conquer_mut(lo, depth - 1, leaf),
        || divide_conquer_mut(hi, depth - 1, leaf),
    );
}

/// Choose a fork depth so that `2^depth ≈ workers` (and each leaf gets at
/// least `min_leaf` elements of an `n`-element problem).
pub fn depth_for(workers: usize, n: usize, min_leaf: usize) -> u32 {
    assert!(workers > 0);
    let by_workers = usize::BITS - workers.next_power_of_two().leading_zeros() - 1;
    let max_by_size = if min_leaf == 0 || n == 0 {
        by_workers
    } else {
        let leaves = (n / min_leaf).max(1);
        usize::BITS - leaves.next_power_of_two().leading_zeros() - 1
    };
    by_workers.min(max_by_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 1 + 1, || "hi".len());
        assert_eq!(a, 2);
        assert_eq!(b, 2);
    }

    #[test]
    fn join_allows_borrows() {
        let data = [1, 2, 3, 4, 5, 6];
        let (lo, hi) = data.split_at(3);
        let (s1, s2) = join(|| lo.iter().sum::<i32>(), || hi.iter().sum::<i32>());
        assert_eq!(s1 + s2, 21);
    }

    #[test]
    fn join_allows_mutable_split_borrows() {
        let mut data = [0u32; 10];
        let (lo, hi) = data.split_at_mut(5);
        join(
            || lo.iter_mut().for_each(|x| *x = 1),
            || hi.iter_mut().for_each(|x| *x = 2),
        );
        assert_eq!(data.iter().sum::<u32>(), 5 + 10);
    }

    #[test]
    #[should_panic(expected = "task b panicked")]
    fn panic_in_b_propagates() {
        join(|| (), || panic!("boom"));
    }

    #[test]
    fn join_depth_zero_is_sequential() {
        // At depth 0 both run on the calling thread.
        let tid = std::thread::current().id();
        let (ta, tb) = join_depth(
            0,
            || std::thread::current().id(),
            || std::thread::current().id(),
        );
        assert_eq!(ta, tid);
        assert_eq!(tb, tid);
    }

    #[test]
    fn recursive_parallel_sum_matches_sequential() {
        fn psum(xs: &[u64], depth: u32) -> u64 {
            if depth == 0 || xs.len() < 4 {
                return xs.iter().sum();
            }
            let (lo, hi) = xs.split_at(xs.len() / 2);
            let (a, b) = join(|| psum(lo, depth - 1), || psum(hi, depth - 1));
            a + b
        }
        let xs: Vec<u64> = (0..10_000).collect();
        assert_eq!(psum(&xs, 4), xs.iter().sum::<u64>());
    }

    #[test]
    fn divide_conquer_mut_touches_every_element() {
        let mut data = vec![0u8; 1000];
        divide_conquer_mut(&mut data, 3, &|chunk: &mut [u8]| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1), "each element exactly once");
    }

    #[test]
    fn traced_join_records_fork_join_diamond() {
        use pdc_core::trace::TraceSession;
        let session = TraceSession::new();
        trace::install_sync_trace(session.thread(0));
        let (a, b) = join(|| 1, || 2);
        trace::clear_sync_trace();
        assert_eq!((a, b), (1, 2));
        let evs = session.events();
        let forks: Vec<_> = evs.iter().filter(|e| e.kind == EventKind::Fork).collect();
        let joins: Vec<_> = evs.iter().filter(|e| e.kind == EventKind::Join).collect();
        assert_eq!(forks.len(), 2, "parent split + child finish");
        assert_eq!(joins.len(), 2, "child adopt + parent adopt");
        // The child's adoption of the parent's handle comes after the
        // parent's fork; the parent's join after the child's fork.
        assert_eq!(forks[0].actor, 0);
        assert_eq!(joins[0].a, forks[0].a, "child joins the parent's handle");
        assert_ne!(joins[0].actor, 0, "child records under an auto actor");
        assert_eq!(joins[1].actor, 0);
        assert_eq!(joins[1].a, forks[1].a, "parent joins the child's handle");
        assert!(forks[0].ts < joins[0].ts && forks[1].ts < joins[1].ts);
    }

    #[test]
    fn untraced_join_records_nothing() {
        use pdc_core::trace::TraceSession;
        let session = TraceSession::new();
        let (a, b) = join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
        assert!(session.events().is_empty());
    }

    #[test]
    fn depth_for_matches_worker_count() {
        assert_eq!(depth_for(1, 1000, 1), 0);
        assert_eq!(depth_for(2, 1000, 1), 1);
        assert_eq!(depth_for(4, 1000, 1), 2);
        assert_eq!(depth_for(8, 1000, 1), 3);
        // Tiny problems cap the depth.
        assert_eq!(depth_for(8, 4, 2), 1);
        assert_eq!(depth_for(8, 1, 1), 0);
    }
}
