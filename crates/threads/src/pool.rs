//! A work-stealing thread pool.
//!
//! Each worker owns a LIFO deque of tasks; when empty it steals from the
//! global injector or from siblings (FIFO side). This is the scheduling
//! architecture Rayon/Cilk use, built here from `crossbeam-deque` so the
//! steal behaviour is observable: the pool publishes its counters
//! (`pool.executed`, `pool.steals`, `pool.panicked`, `pool.submitted`,
//! `pool.completed`) through a pdc-trace [`TraceSession`] and records
//! spawn/steal events, which the load-imbalance bench reports.
//! Idle workers and [`WorkStealingPool::wait_idle`] poll, then sleep
//! ([`hooks::wait`]) until a submit, a completion or the shutdown wakes
//! them, so an idle pool costs no CPU.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use pdc_core::metrics::Counter;
use pdc_core::trace::{self, EventKind, SiteId, ThreadTrace, TraceSession};
use pdc_sync::hooks::{self, AbortSchedule, SpawnToken};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A task plus the fork handle its submitter's causal history was
/// published under (see [`EventKind::Fork`]/[`EventKind::Join`]).
struct QueuedTask {
    handle: u64,
    seq: u64,
    run: Task,
}

struct Shared {
    injector: Injector<QueuedTask>,
    stealers: Vec<Stealer<QueuedTask>>,
    /// Tasks submitted but not yet finished. This stays a plain atomic
    /// (not a pair of trace counters) because `wait_idle` relies on its
    /// SeqCst ordering for the happens-before edge between a task's
    /// writes and the waiter's reads.
    pending: AtomicUsize,
    shutdown: AtomicBool,
    /// `pool.executed`: tasks run to completion (panicking ones included).
    executed: Counter,
    /// `pool.panicked`: tasks that panicked (caught; the worker survives).
    panicked: Counter,
    /// `pool.steals`: successful steals (from injector or siblings).
    steals: Counter,
    /// `pool.submitted`: monotone submission count.
    submitted: Counter,
    /// `pool.completed`: monotone completion count.
    completed: Counter,
    /// Event stream for submissions; workers get their own handles.
    submit_trace: ThreadTrace,
    /// Completion fork handles published by workers and not yet adopted
    /// by a waiter: each finished task records a `Fork` under a fresh
    /// handle *before* decrementing `pending`, and `wait_idle` records
    /// the matching `Join`s after observing zero — the trace edge that
    /// makes "task body happens-before the code after wait_idle"
    /// visible to the span/HB analyses.
    done_handles: std::sync::Mutex<Vec<u64>>,
    /// The site idle workers and `wait_idle` wait on; submits,
    /// completions and shutdown announce changes to it. Its id is
    /// allocated only under a checker.
    idle_site: SiteId,
}

impl Shared {
    fn submit(&self, task: Task) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let seq = self.submitted.get();
        self.submitted.inc();
        // Publish the submitter's happens-before history under a fresh
        // fork handle: through the submitting thread's own sync trace if
        // it has one (a worker spawning recursively, or a caller that
        // installed one), else through the shared submit actor.
        let handle = trace::next_site_id();
        if !trace::record_sync(EventKind::Fork, handle, seq) {
            self.submit_trace.record(EventKind::Fork, handle, seq);
        }
        self.submit_trace.record(
            EventKind::Spawn,
            seq,
            self.pending.load(Ordering::Relaxed) as u64,
        );
        self.injector.push(QueuedTask {
            handle,
            seq,
            run: task,
        });
        // Wake idle workers.
        hooks::site_changed(&self.idle_site);
    }

    /// The queues worker `idx` could steal from, in preference order:
    /// the injector (`None`), then its non-empty siblings.
    fn victims(&self, idx: usize) -> impl Iterator<Item = Option<usize>> + '_ {
        let injector = (!self.injector.is_empty()).then_some(None);
        let siblings = (0..self.stealers.len())
            .filter(move |&s| s != idx && !self.stealers[s].is_empty())
            .map(Some);
        injector.into_iter().chain(siblings)
    }

    /// Steal for worker `idx` from the victim [`hooks::steal_victim`]
    /// picks: every victim under a checker, which holds the queues still
    /// meanwhile; unchecked the first, and `None` if it emptied.
    fn steal(
        &self,
        idx: usize,
        local: &Worker<QueuedTask>,
        trace: &ThreadTrace,
    ) -> Option<QueuedTask> {
        let pick = self
            .victims(idx)
            .nth(hooks::steal_victim(self.victims(idx).count()))?;
        let task = loop {
            let stolen = match pick {
                None => self.injector.steal_batch_and_pop(local),
                Some(s) => self.stealers[s].steal(),
            };
            match stolen {
                Steal::Success(t) => break t,
                Steal::Retry => continue,
                Steal::Empty => return None,
            }
        };
        self.steals.inc();
        // `victim` is the sibling's index, or the worker count (== the
        // submit actor id) for the global injector.
        match pick {
            None => trace.record(
                EventKind::Steal,
                self.stealers.len() as u64,
                1 + local.len() as u64,
            ),
            Some(s) => trace.record(EventKind::Steal, s as u64, 1),
        }
        Some(task)
    }
}

/// A fixed-size work-stealing thread pool for `'static` tasks.
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Checker task tokens for the workers, when the pool was built
    /// inside a `pdc-check` exploration (empty otherwise). Drop joins
    /// these through the checker *before* the OS joins, so the baton
    /// can keep moving while workers drain.
    tokens: Vec<SpawnToken>,
    trace: TraceSession,
}

impl WorkStealingPool {
    /// Spawn a pool with `workers` worker threads and a private
    /// [`TraceSession`].
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        WorkStealingPool::with_trace(workers, TraceSession::new())
    }

    /// Spawn a pool publishing counters and events into a shared
    /// `session`, so one snapshot covers the pool alongside a
    /// `SimMachine` or MPI world.
    ///
    /// Workers record as actors `0..workers`; submissions record as
    /// actor `workers`.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn with_trace(workers: usize, session: TraceSession) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        let locals: Vec<Worker<QueuedTask>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(Worker::stealer).collect();
        // Built inside a pdc-check exploration? Then the workers become
        // checked tasks, and their events must land in the exploration's
        // session (via sibling traces of the constructing task's thread
        // trace), not in the pool's private one — otherwise the checker
        // could neither schedule the workers nor see what they did.
        let checked_parent = trace::current_sync_trace().filter(|_| hooks::is_checked());
        let submit_trace = match &checked_parent {
            Some(parent) => parent.sibling_auto(),
            None => session.thread(workers as u32),
        };
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            executed: session.counter("pool.executed"),
            panicked: session.counter("pool.panicked"),
            steals: session.counter("pool.steals"),
            submitted: session.counter("pool.submitted"),
            completed: session.counter("pool.completed"),
            submit_trace,
            done_handles: std::sync::Mutex::new(Vec::new()),
            idle_site: SiteId::new(),
        });
        let mut tokens = Vec::new();
        let handles = locals
            .into_iter()
            .enumerate()
            .map(|(idx, local)| {
                let shared = Arc::clone(&shared);
                let token = hooks::checked_spawn();
                if let Some(t) = token {
                    tokens.push(t);
                }
                let trace = match &checked_parent {
                    Some(parent) => parent.sibling_auto(),
                    None => session.thread(idx as u32),
                };
                std::thread::Builder::new()
                    .name(format!("pdc-worker-{idx}"))
                    .spawn(move || worker_loop(idx, local, shared, trace, token))
                    .expect("failed to spawn worker")
            })
            .collect();
        // Give the checker a chance to run the freshly spawned workers
        // (the hooks contract: yield once the OS threads exist).
        if !tokens.is_empty() {
            hooks::yield_point();
        }
        WorkStealingPool {
            shared,
            handles,
            tokens,
            trace: session,
        }
    }

    /// Submit a task for execution.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.shared.submit(Box::new(task));
    }

    /// Block until every submitted task (including tasks spawned *by*
    /// tasks, when submitted through a clone of [`WorkStealingPool::handle`])
    /// has finished.
    pub fn wait_idle(&self) {
        let idle = || self.shared.pending.load(Ordering::SeqCst) == 0;
        while !idle() {
            hooks::wait(&self.shared.idle_site, idle);
        }
        // Adopt every finished task's completion fork. Each worker
        // published its handle *before* decrementing `pending`, so at
        // pending == 0 the list is complete and these `Join`s give the
        // trace a path from every task body to the caller's next event
        // — the edge the span pass walks when the critical path runs
        // through a task. Recorded against the caller's own sync trace
        // when it has one, else under the shared submit actor.
        let done: Vec<u64> = std::mem::take(
            &mut *self
                .shared
                .done_handles
                .lock()
                .expect("done handles poisoned"),
        );
        for handle in done {
            if !trace::record_sync(EventKind::Join, handle, 0) {
                self.shared.submit_trace.record(EventKind::Join, handle, 0);
            }
        }
    }

    /// A cloneable submission handle usable from inside tasks.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Total tasks executed (`pool.executed`).
    pub fn executed(&self) -> u64 {
        self.shared.executed.get()
    }

    /// Total successful steals (`pool.steals`, load-balancing events).
    pub fn steals(&self) -> u64 {
        self.shared.steals.get()
    }

    /// Tasks that panicked (`pool.panicked`). A panicking task does not
    /// kill its worker or hang `wait_idle`; the panic is contained and
    /// counted here.
    pub fn panicked(&self) -> u64 {
        self.shared.panicked.get()
    }

    /// The trace session this pool publishes counters and events into.
    pub fn trace(&self) -> &TraceSession {
        &self.trace
    }
}

/// A cheap cloneable handle for submitting tasks from within tasks.
#[derive(Clone)]
pub struct PoolHandle {
    shared: Arc<Shared>,
}

impl PoolHandle {
    /// Submit a task.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.shared.submit(Box::new(task));
    }
}

/// Map `f` over `items` on the pool, preserving order: the scenario
/// seam's threads-backend primitive. Each item becomes one pool task;
/// results land in per-item lock slots and are collected after
/// [`WorkStealingPool::wait_idle`], so the output is index-for-index
/// with the input regardless of which worker ran what (or in what
/// stolen order).
///
/// Blocks until the pool is idle, so callers should hand this a pool
/// with no unrelated in-flight tasks.
pub fn pool_map<T, R>(
    pool: &WorkStealingPool,
    items: Vec<T>,
    f: impl Fn(T) -> R + Send + Sync + 'static,
) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
{
    type Slot<T, R> = pdc_sync::SpinLock<(Option<T>, Option<R>)>;
    let slots: Arc<Vec<Slot<T, R>>> = Arc::new(
        items
            .into_iter()
            .map(|t| pdc_sync::SpinLock::new((Some(t), None)))
            .collect(),
    );
    let f = Arc::new(f);
    for i in 0..slots.len() {
        let slots = Arc::clone(&slots);
        let f = Arc::clone(&f);
        pool.spawn(move || {
            let input = slots[i].lock().0.take().expect("each item is taken once");
            let output = f(input);
            slots[i].lock().1 = Some(output);
        });
    }
    pool.wait_idle();
    slots
        .iter()
        .map(|s| s.lock().1.take().expect("task completed before wait_idle"))
        .collect()
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake idle workers so they can observe the shutdown, then join
        // checked ones through the checker *before* the blocking OS
        // joins: a checked task stuck in an OS join would hold the
        // baton and deadlock the whole exploration.
        hooks::site_changed(&self.shared.idle_site);
        for token in self.tokens.drain(..) {
            hooks::join_task(&token);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    idx: usize,
    local: Worker<QueuedTask>,
    shared: Arc<Shared>,
    trace: ThreadTrace,
    token: Option<SpawnToken>,
) {
    // Workers record acquire/release events from pdc-sync primitives
    // used inside tasks under their own actor id.
    trace::install_sync_trace(trace.clone());
    let Some(token) = token else {
        return run_worker(idx, &local, &shared, &trace);
    };
    // Checked mode: the worker is a schedulable task. Teardown unwinds
    // (AbortSchedule) and real panics both end in end_task, so the
    // checker never waits on a dead worker.
    let result = catch_unwind(AssertUnwindSafe(|| {
        hooks::begin_task(&token);
        run_worker(idx, &local, &shared, &trace)
    }));
    if let Err(payload) = &result {
        if !payload.is::<AbortSchedule>() {
            hooks::task_panicked(&token, &hooks::panic_text(payload));
        }
    }
    hooks::end_task(&token);
}

/// The worker body. Each dequeue attempt is a yield point (grabbing
/// the next task is a schedulable step under a checker), and so is the
/// steal's victim choice ([`Shared::steal`]). An idle worker waits on
/// the idle site until there is something to steal or the pool shuts
/// down; checked, it returns to the yield point after each change to
/// the site.
fn run_worker(idx: usize, local: &Worker<QueuedTask>, shared: &Shared, trace: &ThreadTrace) {
    let stealable =
        || shared.shutdown.load(Ordering::SeqCst) || shared.victims(idx).next().is_some();
    loop {
        hooks::yield_point();
        // Local LIFO pop first (cache-friendly depth-first), then steal.
        let Some(t) = local.pop().or_else(|| shared.steal(idx, local, trace)) else {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            hooks::wait(&shared.idle_site, stealable);
            continue;
        };
        // Adopt the submitter's history before running the task:
        // everything the submitter did before spawn() now
        // happens-before the task body.
        trace.record(EventKind::Join, t.handle, t.seq);
        // Contain panics: a dying worker would strand wait_idle (the
        // pending count would never reach zero). Schedule teardown is
        // not a task failure: keep unwinding so the worker exits.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(t.run)) {
            if payload.is::<AbortSchedule>() {
                resume_unwind(payload);
            }
            shared.panicked.inc();
        }
        publish_completion(shared, trace, t.seq);
        shared.executed.inc();
        shared.completed.inc();
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        hooks::site_changed(&shared.idle_site);
    }
}

/// Record a finished task's completion `Fork` under a fresh handle and
/// queue the handle for [`WorkStealingPool::wait_idle`] to `Join`. Must
/// run *before* the `pending` decrement so a waiter that observes zero
/// is guaranteed to see the handle.
fn publish_completion(shared: &Shared, trace: &ThreadTrace, seq: u64) {
    let handle = trace::next_site_id();
    trace.record(EventKind::Fork, handle, seq);
    shared
        .done_handles
        .lock()
        .expect("done handles poisoned")
        .push(handle);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    #[test]
    fn executes_all_tasks() {
        let pool = WorkStealingPool::new(3);
        let counter = Arc::new(Counter::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
        assert_eq!(pool.executed(), 1000);
    }

    #[test]
    fn recursive_spawning_through_handle() {
        let pool = WorkStealingPool::new(2);
        let counter = Arc::new(Counter::new(0));
        let handle = pool.handle();
        // A task tree: each task spawns two children down to depth 6.
        fn grow(h: PoolHandle, c: Arc<Counter>, depth: u32) {
            c.fetch_add(1, Ordering::SeqCst);
            if depth > 0 {
                let (h2, c2) = (h.clone(), Arc::clone(&c));
                h.spawn(move || grow(h2.clone(), c2, depth - 1));
                let (h3, c3) = (h.clone(), Arc::clone(&c));
                h.spawn(move || grow(h3.clone(), c3, depth - 1));
            }
        }
        let (h, c) = (handle.clone(), Arc::clone(&counter));
        handle.spawn(move || grow(h, c, 6));
        pool.wait_idle();
        // Full binary tree of depth 6: 2^7 - 1 nodes.
        assert_eq!(counter.load(Ordering::SeqCst), 127);
    }

    #[test]
    fn wait_idle_on_empty_pool_returns() {
        let pool = WorkStealingPool::new(1);
        pool.wait_idle();
        assert_eq!(pool.executed(), 0);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let counter = Arc::new(Counter::new(0));
        {
            let pool = WorkStealingPool::new(2);
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            pool.wait_idle();
        } // drop joins
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn tasks_run_on_worker_threads() {
        let pool = WorkStealingPool::new(2);
        let name = Arc::new(pdc_sync::SpinLock::new(String::new()));
        let n2 = Arc::clone(&name);
        pool.spawn(move || {
            *n2.lock() = std::thread::current().name().unwrap_or("").to_string();
        });
        pool.wait_idle();
        assert!(name.lock().starts_with("pdc-worker-"));
    }

    #[test]
    fn steals_happen_under_imbalance() {
        // Many tasks injected at once on a multi-worker pool: someone
        // must steal from the injector at minimum.
        let pool = WorkStealingPool::new(4);
        let counter = Arc::new(Counter::new(0));
        for _ in 0..500 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now();
            });
        }
        pool.wait_idle();
        assert!(pool.steals() > 0, "expected injector steals");
        assert_eq!(counter.load(Ordering::SeqCst), 500);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        WorkStealingPool::new(0);
    }

    #[test]
    fn panicking_task_does_not_hang_the_pool() {
        let pool = WorkStealingPool::new(2);
        let counter = Arc::new(Counter::new(0));
        for i in 0..100 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                if i % 10 == 0 {
                    panic!("task {i} dies");
                }
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle(); // must return despite 10 panicking tasks
        assert_eq!(counter.load(Ordering::SeqCst), 90);
        assert_eq!(pool.panicked(), 10);
        assert_eq!(pool.executed(), 100);
        // The pool still works afterwards.
        let c = Arc::clone(&counter);
        pool.spawn(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 91);
    }

    #[test]
    fn pool_drains_when_spawner_task_panics_after_spawning() {
        // Regression guard for panic accounting: a task that panics
        // *after* submitting children must still decrement its own
        // pending slot, and the children must still run. If the panic
        // path skipped the decrement, wait_idle would hang here.
        let pool = WorkStealingPool::new(3);
        let counter = Arc::new(Counter::new(0));
        let handle = pool.handle();
        for _ in 0..20 {
            let (h, c) = (handle.clone(), Arc::clone(&counter));
            pool.spawn(move || {
                for _ in 0..5 {
                    let c2 = Arc::clone(&c);
                    h.spawn(move || {
                        c2.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("parent dies after spawning");
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.panicked(), 20);
        assert_eq!(pool.executed(), 120);
        // The monotone submitted/completed pair agrees with the drain.
        let snap = pool.trace().snapshot();
        assert_eq!(snap.get("pool.submitted"), 120);
        assert_eq!(snap.get("pool.completed"), 120);
    }

    #[test]
    fn trace_publishes_counters_and_steal_events() {
        let pool = WorkStealingPool::new(4);
        let counter = Arc::new(Counter::new(0));
        for _ in 0..300 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now();
            });
        }
        pool.wait_idle();
        let snap = pool.trace().snapshot();
        assert_eq!(snap.get("pool.executed"), 300);
        assert_eq!(snap.get("pool.executed"), pool.executed());
        assert!(snap.get("pool.steals") > 0);
        let events = pool.trace().events();
        assert!(
            events
                .iter()
                .any(|e| e.kind == pdc_core::trace::EventKind::Steal),
            "expected steal events in the trace"
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == pdc_core::trace::EventKind::Spawn
                    && e.actor == pool.workers() as u32),
            "expected spawn events from the submit actor"
        );
    }

    #[test]
    fn every_task_gets_submit_and_completion_fork_join_pairs() {
        let pool = WorkStealingPool::new(2);
        for _ in 0..40 {
            pool.spawn(|| {});
        }
        pool.wait_idle();
        let workers = pool.workers() as u32;
        let events = pool.trace().events();
        let forks: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Fork)
            .collect();
        let joins: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Join)
            .collect();
        // Two pairs per task: submit fork (submit actor) adopted by the
        // running worker, and completion fork (worker) adopted by
        // wait_idle (recorded under the submit actor — no caller trace
        // is installed here).
        assert_eq!(forks.len(), 80);
        assert_eq!(joins.len(), 80);
        assert_eq!(forks.iter().filter(|f| f.actor == workers).count(), 40);
        assert_eq!(forks.iter().filter(|f| f.actor < workers).count(), 40);
        assert_eq!(joins.iter().filter(|j| j.actor < workers).count(), 40);
        assert_eq!(joins.iter().filter(|j| j.actor == workers).count(), 40);
        for j in &joins {
            let f = forks
                .iter()
                .find(|f| f.a == j.a)
                .unwrap_or_else(|| panic!("join of unknown handle {}", j.a));
            assert!(f.ts < j.ts, "fork must precede its join in trace order");
            // Pairs cross the submit/worker boundary in both directions.
            if f.actor == workers {
                assert!((j.actor as usize) < pool.workers());
            } else {
                assert_eq!(j.actor, workers);
            }
        }
    }

    #[test]
    fn worker_sync_ops_record_under_worker_actor() {
        // A pdc-sync lock used inside a task records acquire/release
        // under the executing worker's actor, via the installed
        // thread-local sync trace.
        let pool = WorkStealingPool::new(2);
        let lock = Arc::new(pdc_sync::SpinLock::new(0u64));
        for _ in 0..10 {
            let l = Arc::clone(&lock);
            pool.spawn(move || {
                *l.lock() += 1;
            });
        }
        pool.wait_idle();
        let events = pool.trace().events();
        let acquires: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Acquire)
            .collect();
        assert_eq!(acquires.len(), 10);
        assert!(acquires.iter().all(|e| (e.actor as usize) < pool.workers()));
        let releases = events
            .iter()
            .filter(|e| e.kind == EventKind::Release)
            .count();
        assert_eq!(releases, 10);
    }

    #[test]
    fn pool_map_preserves_order_and_matches_sequential() {
        let pool = WorkStealingPool::new(4);
        let items: Vec<u64> = (0..500).collect();
        let expected: Vec<u64> = items.iter().map(|v| v * v + 1).collect();
        let got = pool_map(&pool, items, |v| v * v + 1);
        assert_eq!(got, expected);
        assert_eq!(pool.executed(), 500);
    }

    #[test]
    fn pool_map_handles_empty_and_single_item() {
        let pool = WorkStealingPool::new(2);
        let empty: Vec<u32> = Vec::new();
        assert_eq!(pool_map(&pool, empty, |v| v + 1), Vec::<u32>::new());
        assert_eq!(pool_map(&pool, vec![41u32], |v| v + 1), vec![42]);
    }

    #[test]
    fn shared_session_sees_pool_counters() {
        let session = TraceSession::new();
        let before = session.snapshot();
        let pool = WorkStealingPool::with_trace(2, session.clone());
        for _ in 0..50 {
            pool.spawn(|| {});
        }
        pool.wait_idle();
        let delta = session.snapshot().diff(&before);
        assert_eq!(delta.get("pool.executed"), 50);
    }
}
