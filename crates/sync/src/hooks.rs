//! The one wait of `pdc-sync`, and the seam controlled schedulers
//! (`pdc-check`) install into.
//!
//! Lock/acquire entries call [`yield_point`], release-style changes call
//! [`site_changed`], and a thread that must wait calls [`wait`] (barrier,
//! rwlock, once-cell, channel `recv`, the `pdc-threads` pool) or
//! [`wait_one`]/[`queue`] (mutex, semaphore, condvar, woken one at a time
//! by [`wake_one`] in [`Fairness`] order). Only `SpinLock` and
//! `TicketLock` call [`spin_wait`], which never parks: spinning is what
//! they teach.
//!
//! Unchecked, a wait polls its condition [`POLL_ROUNDS`] times with a
//! `yield_now` between polls, then queues in a process-wide parking lot
//! under its site's address, re-checks and parks. The enqueue and both
//! wakers issue a `SeqCst` fence before looking at the other side, so
//! either the waker sees the entry or the re-check sees the change: no
//! wake-up is lost, and a release with nobody asleep pays the fence and
//! one load. A lot entry never outlives its waiter: [`Queued`] removes
//! it when dropped, whether the waiter won its re-check, was woken by a
//! stale token, or unwinds with [`AbortSchedule`]. [`wait_until`] is the
//! same wait without a checker; with no site, the waker unparks the
//! thread itself (`pdc-check`'s own waits).
//!
//! With a [`Checker`] installed (by `pdc-check` during schedule
//! exploration), checked tasks hand control to it at every one of these
//! points, which serializes the test body onto one runnable task at a
//! time and makes the interleaving a deterministic function of the
//! checker's decisions. A checked task never polls: [`wait`] and
//! [`spin_wait`] block until the site changes, [`wait_one`] tries once,
//! then queues and parks in the checker, and [`park`]/[`unpark`] keep
//! `thread::park` token semantics inside it (an unpark of a thread the
//! checker does not know is a real one).

use crate::fairness::Fairness;
use pdc_core::trace::SiteId;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::Instant;

/// Identity of a checked task within one exploration (dense, task 0 is
/// the schedule's root body).
pub type TaskId = u32;

/// What a recorded decision chose between. Task scheduling picks the
/// next runnable task; *data* choice points ([`Checker::choice_point`])
/// resolve a nondeterministic value inside the currently running task —
/// a steal victim, a wake order — without moving the baton. Checkers
/// record the kind alongside each decision so replay, DFS backtracking
/// and partial-order reduction can tell the two apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceKind {
    /// Which runnable task runs next.
    Task,
    /// Which non-empty queue a work-stealing thief steals from.
    StealVictim,
    /// Which queued waiter a semaphore release / condvar notify wakes.
    WakeOrder,
}

/// Panic payload a [`Checker`] uses to unwind checked tasks during
/// schedule teardown. Lives here (not in the checker crate) so every
/// layer that catches panics around checked code — `pdc-check`'s own
/// spawn wrapper, `pdc_threads::join` — can tell teardown from a real
/// failure and re-raise instead of reporting it.
#[derive(Debug)]
pub struct AbortSchedule;

/// The controlled-scheduler interface `pdc-check` implements.
///
/// Methods are called from the checked threads themselves; every call
/// may block the calling thread until the checker grants it the next
/// step, and may panic (with the checker's private abort payload) to
/// tear a schedule down.
pub trait Checker: Send + Sync {
    /// A possible preemption point on `task` (no condition involved).
    fn yield_point(&self, task: TaskId);
    /// `task` observed an unavailable resource guarded by `site`; block
    /// it until [`Checker::site_changed`] is called for that site (or
    /// for any site when `None`), then return for a re-check.
    fn spin_wait(&self, task: TaskId, site: Option<u64>);
    /// A release-style state change happened on `site`.
    fn site_changed(&self, site: u64);
    /// Replaces `thread::park` for `task` (token semantics).
    fn park(&self, task: TaskId);
    /// Try to unpark the checked task running on `thread`; `false`
    /// means the checker does not manage that thread and the caller
    /// must fall back to a real unpark.
    fn unpark(&self, thread: &std::thread::Thread) -> bool;
    /// Register a child task about to be spawned by `parent`. The
    /// parent must call [`Checker::yield_point`] once the OS thread
    /// exists (never before, or the grant could precede the thread).
    fn spawn_task(&self, parent: TaskId) -> TaskId;
    /// First call on the child's own thread: binds the thread to
    /// `task` and blocks until the task is granted its first step.
    fn start_task(&self, task: TaskId);
    /// Last call on the child's own thread: marks `task` finished and
    /// passes the baton on. Never blocks.
    fn exit_task(&self, task: TaskId);
    /// Block `waiter` until `child` has exited.
    fn join_wait(&self, waiter: TaskId, child: TaskId);
    /// `task`'s body panicked with a *real* (non-teardown) panic. Must
    /// not block or panic: the caller is already unwinding and will
    /// still call [`Checker::exit_task`] afterwards.
    fn task_panicked(&self, task: TaskId, message: &str);
    /// Resolve a data nondeterminism inside `task`: pick one of `n`
    /// alternatives (`n >= 1`). The baton stays with `task`; the
    /// decision is recorded so exploration can backtrack over it. The
    /// default keeps old checkers compiling: always alternative 0.
    fn choice_point(&self, task: TaskId, kind: ChoiceKind, n: usize) -> usize {
        let _ = (task, kind, n);
        0
    }
}

// Fast global gate, mirroring trace::SYNC_TRACING_EVER: stays false
// until the first checker install anywhere in the process, so the
// uninstrumented hot path pays one relaxed load per hook.
static CHECKER_EVER: AtomicBool = AtomicBool::new(false);

static CHECKER: Mutex<Option<Arc<dyn Checker>>> = Mutex::new(None);

thread_local! {
    static CURRENT_TASK: std::cell::Cell<Option<TaskId>> = const { std::cell::Cell::new(None) };
}

fn installed_checker() -> Option<Arc<dyn Checker>> {
    if !CHECKER_EVER.load(Ordering::Acquire) {
        return None;
    }
    CHECKER
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Install `checker` process-wide, returning the previous one. Checked
/// threads are those that additionally bind a task id via
/// [`SpawnToken`]/[`bind_root_task`]; unrelated threads keep the
/// uninstrumented fast path (minus one atomic load).
pub fn install_checker(checker: Arc<dyn Checker>) -> Option<Arc<dyn Checker>> {
    CHECKER_EVER.store(true, Ordering::Release);
    CHECKER
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .replace(checker)
}

/// Remove the installed checker, if any.
pub fn uninstall_checker() -> Option<Arc<dyn Checker>> {
    if !CHECKER_EVER.load(Ordering::Acquire) {
        return None;
    }
    CHECKER
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
}

/// The checked task bound to this thread, if any.
pub fn current_task() -> Option<TaskId> {
    if !CHECKER_EVER.load(Ordering::Acquire) {
        return None;
    }
    CURRENT_TASK.with(|c| c.get())
}

/// Whether this thread is a checked task under an installed checker.
pub fn is_checked() -> bool {
    current_task().is_some()
        && CHECKER
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
}

fn checked() -> Option<(Arc<dyn Checker>, TaskId)> {
    let task = current_task()?;
    installed_checker().map(|c| (c, task))
}

/// A possible preemption point; no-op unless this thread is checked.
#[inline]
pub fn yield_point() {
    if let Some((c, task)) = checked() {
        c.yield_point(task);
    }
}

/// Checked: block until `site` changes, then return true for the
/// caller's re-check. False, at once, on an unchecked thread.
fn checked_site_wait(site: &SiteId) -> bool {
    if !CHECKER_EVER.load(Ordering::Acquire) {
        return false;
    }
    let Some((c, task)) = checked() else {
        return false;
    };
    c.spin_wait(task, site.get());
    true
}

/// One iteration of a spinlock's wait loop on `site`: the canonical
/// polite spin, `spin_loop()`, count, and a `yield_now()` every 64
/// iterations (on one core, yielding is what lets the holder run). It
/// never parks; only `SpinLock` and `TicketLock` use it. Checked, as
/// [`wait`]; `spins` is not advanced, so spin metrics read 0.
#[inline]
pub fn spin_wait(spins: &mut u32, site: &SiteId) {
    if checked_site_wait(site) {
        return;
    }
    std::hint::spin_loop();
    *spins = spins.wrapping_add(1);
    if spins.is_multiple_of(64) {
        std::thread::yield_now();
    }
}

/// Announce a release-style change to `site` (unlock, sense flip,
/// READY publish): wake the site's [`wait`] sleepers and re-enable the
/// checker's waiters on it.
#[inline]
pub fn site_changed(site: &SiteId) {
    if CHECKER_EVER.load(Ordering::Acquire) {
        if let Some((c, _)) = checked() {
            if let Some(id) = site.get() {
                c.site_changed(id);
            }
        }
    }
    wake(key(site), None);
}

/// Checks of a waiter's condition, each followed by `yield_now`, before
/// it parks. Not a tuning knob: with 100, 300 and 1000 rounds the
/// `check` benchmark read overlapping ranges on a 2-vCPU VM. Where
/// waiters outnumber the CPUs, a waiter that spins holds a CPU the
/// thread it waits for needs: polling with `spin_loop` and a yield only
/// every 64 iterations measured slower there.
pub const POLL_ROUNDS: u32 = 300;

fn poll(ready: impl Fn() -> bool) -> bool {
    for _ in 0..POLL_ROUNDS {
        if ready() {
            return true;
        }
        std::thread::yield_now();
    }
    false
}

/// Wait on `site` until `ready()` may hold; the caller has just seen it
/// false and re-checks when this returns. Unchecked, that is once
/// `ready()` held ([`wait_until`] on the site, woken by
/// [`site_changed`]); checked, after one change to the site.
pub fn wait(site: &SiteId, ready: impl Fn() -> bool) {
    if !checked_site_wait(site) {
        wait_until(Some(site), ready, None);
    }
}

/// Wait until `ready()` holds or `deadline` passes; returns whether it
/// held. Polls, then parks: in `site`'s queue, where [`site_changed`]
/// wakes it, or with no site until whoever makes `ready()` true unparks
/// this thread. Never consults a checker: `pdc-check`'s scheduler waits
/// here.
pub fn wait_until(
    site: Option<&SiteId>,
    ready: impl Fn() -> bool,
    deadline: Option<Instant>,
) -> bool {
    if poll(&ready) {
        return true;
    }
    loop {
        let _queued = site.map(|site| Queued::new(key(site)));
        if ready() {
            return true;
        }
        match deadline {
            None => std::thread::park(),
            Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => std::thread::park_timeout(left),
                _ => return false,
            },
        }
    }
}

/// Wait until `acquire()` succeeds, in `site`'s wake-one queue: a lock's
/// or a semaphore's, whose release calls [`site_changed`], then
/// [`wake_one`]. Polls `acquire()` (a checked task tries once), then
/// queues, re-checks and sleeps until woken, counting sleeps in `parks`.
pub fn wait_one(site: &SiteId, fairness: Fairness, parks: &AtomicU64, acquire: impl Fn() -> bool) {
    let acquired = if is_checked() {
        acquire()
    } else {
        poll(&acquire)
    };
    if acquired {
        return;
    }
    loop {
        let queued = queue(site);
        if acquire() {
            return queued.leave(fairness);
        }
        parks.fetch_add(1, Ordering::Relaxed);
        queued.sleep();
        if acquire() {
            return;
        }
    }
}

/// Queue the calling thread in `site`'s wake-one queue (a condition
/// variable's waiter does so before it releases the mutex).
pub fn queue(site: &SiteId) -> Queued {
    Queued::new(key(site) + 1)
}

/// Wake the one of `site`'s queued waiters, oldest first, that
/// `fairness` picks; false if none is queued.
pub fn wake_one(site: &SiteId, fairness: Fairness) -> bool {
    wake(key(site) + 1, Some(fairness))
}

/// Wake every waiter queued on `site`, oldest first.
pub fn wake_all(site: &SiteId) {
    wake(key(site) + 1, None);
}

/// A thread's entry in the parking lot. Dropping it takes the entry off
/// its queue unless a waker already has.
pub struct Queued {
    key: usize,
    /// Set, under the bucket's lock, once the entry is off its queue.
    off: Arc<AtomicBool>,
}

impl Queued {
    fn new(key: usize) -> Queued {
        let off = Arc::new(AtomicBool::new(false));
        let (thread, bucket) = (std::thread::current(), bucket(key));
        let mut sleepers = bucket.lock();
        sleepers.push((key, thread, Arc::clone(&off)));
        bucket.len.store(sleepers.len(), Ordering::Relaxed);
        drop(sleepers);
        // Pairs with the fence in `wake`: either the waker sees this
        // entry, or the caller's re-check sees the waker's change.
        fence(Ordering::SeqCst);
        Queued { key, off }
    }

    /// Park until a waker takes this entry (a checked task parks in the
    /// checker).
    pub fn sleep(&self) {
        while !self.off.load(Ordering::Acquire) {
            park();
        }
    }

    /// Leave the queue after winning a re-check instead of sleeping. A
    /// [`wake_one`] that already took this entry was meant for a
    /// sleeper: pass it on to the next one.
    pub fn leave(self, fairness: Fairness) {
        if !self.take() {
            wake(self.key, Some(fairness));
        }
    }

    /// Take the entry off its queue; false if a waker already had.
    fn take(&self) -> bool {
        if self.off.load(Ordering::Acquire) {
            return false;
        }
        let bucket = bucket(self.key);
        let mut sleepers = bucket.lock();
        let Some(i) = sleepers.iter().position(|s| Arc::ptr_eq(&s.2, &self.off)) else {
            return false;
        };
        sleepers.remove(i);
        bucket.len.store(sleepers.len(), Ordering::Relaxed);
        self.off.store(true, Ordering::Relaxed);
        true
    }
}

impl Drop for Queued {
    fn drop(&mut self) {
        self.take();
    }
}

/// The lot's entries for every key that hashes here, oldest first: the
/// key (a site's address, plus 1 in its wake-one queue), the thread and
/// its `off` flag. `len` mirrors the length, stored under the lock, so
/// that a waker that reads 0 takes no lock.
struct Bucket {
    len: AtomicUsize,
    sleepers: Mutex<Vec<(usize, Thread, Arc<AtomicBool>)>>,
}

impl Bucket {
    fn lock(&self) -> MutexGuard<'_, Vec<(usize, Thread, Arc<AtomicBool>)>> {
        self.sleepers.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

static LOT: [Bucket; 64] = [const {
    Bucket {
        len: AtomicUsize::new(0),
        sleepers: Mutex::new(Vec::new()),
    }
}; 64];

fn key(site: &SiteId) -> usize {
    std::ptr::from_ref(site) as usize
}

fn bucket(key: usize) -> &'static Bucket {
    // Fibonacci hashing: the top six bits of the key times 2^64/phi.
    &LOT[((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize]
}

/// Take `key`'s waiters off the lot, the one `fairness` picks or all of
/// them, and unpark them; returns whether there were any.
fn wake(key: usize, fairness: Option<Fairness>) -> bool {
    let bucket = bucket(key);
    fence(Ordering::SeqCst);
    if bucket.len.load(Ordering::Relaxed) == 0 {
        return false;
    }
    let mut sleepers = bucket.lock();
    let n = sleepers.iter().filter(|s| s.0 == key).count();
    let (skip, take) = match fairness {
        _ if n == 0 => return false,
        Some(fairness) => (fairness.pick(n), 1),
        None => (0, n),
    };
    let mut seen = 0;
    let mut woken = Vec::new();
    sleepers.retain(|(k, thread, off)| {
        seen += usize::from(*k == key);
        let hit = *k == key && seen > skip && seen <= skip + take;
        if hit {
            off.store(true, Ordering::Release);
            woken.push(thread.clone());
        }
        !hit
    });
    bucket.len.store(sleepers.len(), Ordering::Relaxed);
    drop(sleepers);
    for thread in &woken {
        // A wake-one queue may hold checked tasks, whose unpark the
        // checker takes; a site's `wait` sleepers never are.
        if key % 2 == 1 {
            unpark(thread);
        } else {
            thread.unpark();
        }
    }
    true
}

/// `thread::park`, routed through the checker for checked tasks.
#[inline]
pub fn park() {
    match checked() {
        Some((c, task)) => c.park(task),
        None => std::thread::park(),
    }
}

/// `Thread::unpark`, routed through the checker when it manages the
/// target thread; real unpark otherwise.
#[inline]
pub fn unpark(thread: &std::thread::Thread) {
    if CHECKER_EVER.load(Ordering::Acquire) {
        if let Some(c) = installed_checker() {
            if c.unpark(thread) {
                return;
            }
        }
    }
    thread.unpark();
}

/// Ask the checker which of `n` non-empty victims a work-stealing
/// thief should steal from. Unchecked (or with `n < 2`) this is always
/// 0 — the caller's existing preference order — so production pools
/// pay one relaxed load and keep their policy.
#[inline]
pub fn steal_victim(n: usize) -> usize {
    if n >= 2 {
        if let Some((c, task)) = checked() {
            return c.choice_point(task, ChoiceKind::StealVictim, n).min(n - 1);
        }
    }
    0
}

/// Ask the checker which of `n` queued waiters an adversarial-fairness
/// wake should pick. Unchecked this is 0 (FIFO: the oldest waiter).
#[inline]
pub fn wake_order(n: usize) -> usize {
    if n >= 2 {
        if let Some((c, task)) = checked() {
            return c.choice_point(task, ChoiceKind::WakeOrder, n).min(n - 1);
        }
    }
    0
}

/// Capability to run a child closure as a checked task; obtained by the
/// parent via [`checked_spawn`]. `Copy` so the parent can keep one for
/// [`join_task`] while moving another into the child closure.
#[derive(Debug, Clone, Copy)]
pub struct SpawnToken {
    task: TaskId,
}

impl SpawnToken {
    /// The child's task id.
    pub fn task(&self) -> TaskId {
        self.task
    }
}

/// Parent side of a checked spawn: registers a child task with the
/// checker. Returns `None` when this thread is not checked (the normal
/// path). After the OS thread has been created, the parent should call
/// [`yield_point`] to give the checker a chance to run the child.
pub fn checked_spawn() -> Option<SpawnToken> {
    let (c, parent) = checked()?;
    Some(SpawnToken {
        task: c.spawn_task(parent),
    })
}

/// Child side: bind this thread to the token's task and block until the
/// checker grants the first step. Call before any other work.
pub fn begin_task(token: &SpawnToken) {
    if let Some(c) = installed_checker() {
        CURRENT_TASK.with(|t| t.set(Some(token.task)));
        c.start_task(token.task);
    }
}

/// Child side: mark the task finished and hand the baton on. Must be
/// the thread's last interaction with the checker.
pub fn end_task(token: &SpawnToken) {
    if let Some(c) = installed_checker() {
        c.exit_task(token.task);
        CURRENT_TASK.with(|t| t.set(None));
    }
}

/// Parent side: block until the token's task has exited (replaces a
/// blocking OS join, which would stall the whole exploration).
pub fn join_task(token: &SpawnToken) {
    if let Some((c, me)) = checked() {
        c.join_wait(me, token.task);
    }
}

/// Child side: report a *real* (non-teardown) panic in the task's body
/// so the checker can abort the schedule and record the message. Safe
/// to call while unwinding; never blocks or panics.
pub fn task_panicked(token: &SpawnToken, message: &str) {
    if let Some(c) = installed_checker() {
        c.task_panicked(token.task, message);
    }
}

/// The message a panic payload carries, for [`task_panicked`].
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string()),
    }
}

/// Bind the calling thread to `task` without a parent (the exploration
/// root). Used by `pdc-check` for task 0; pairs with
/// [`unbind_root_task`].
pub fn bind_root_task(task: TaskId) {
    CURRENT_TASK.with(|t| t.set(Some(task)));
}

/// Remove this thread's task binding (exploration root teardown).
pub fn unbind_root_task() {
    CURRENT_TASK.with(|t| t.set(None));
}

#[cfg(test)]
mod tests {
    use super::*;

    // The install/uninstall paths themselves are exercised end-to-end by
    // pdc-check; here we pin the uninstrumented defaults.

    #[test]
    fn unchecked_helpers_are_noops() {
        assert!(!is_checked());
        assert_eq!(current_task(), None);
        yield_point();
        let site = SiteId::new();
        site_changed(&site);
        let mut spins = 0u32;
        spin_wait(&mut spins, &site);
        assert_eq!(spins, 1, "unchecked spin_wait counts iterations");
        assert!(checked_spawn().is_none());
        assert_eq!(steal_victim(4), 0, "unchecked steals keep policy order");
        assert_eq!(wake_order(3), 0, "unchecked wakes stay FIFO");
    }

    #[test]
    fn a_wait_gives_up_at_its_deadline_and_leaves_no_entry() {
        let site = SiteId::new();
        let start = Instant::now();
        let deadline = start + std::time::Duration::from_millis(20);
        assert!(!wait_until(Some(&site), || false, Some(deadline)));
        assert!(Instant::now() >= deadline);
        let key = key(&site);
        assert!(bucket(key).lock().iter().all(|s| s.0 != key));
        assert!(!wake_one(&site, Fairness::Fifo), "nobody is queued");
    }

    #[test]
    fn unchecked_park_respects_token() {
        // unpark-then-park must not block (std token semantics).
        unpark(&std::thread::current());
        park();
    }
}
