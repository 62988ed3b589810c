//! The process-wide pool of parked threads that checked tasks run on.
//!
//! A schedule's tasks are short: a `fixed_counter_body(4, 2)` schedule
//! makes 21 decisions over 5 tasks. Spawning and joining one OS thread
//! per task cost more than the decisions themselves, so every checked
//! task — each [`crate::spawn`] under a controller, and each schedule's
//! root body — runs as a *job* on a reused worker instead.
//!
//! A job receives a [`Checkin`]: its claim on the worker. Dropping it
//! puts the worker back on the idle stack. Jobs drop it just before
//! their final, never-blocking hand-off to the controller
//! (`exit_task`), while the task still holds the baton, so no other
//! task of the schedule can observe the worker idle before it is. Two
//! things follow:
//!
//! * the pool never holds more workers than the largest number of
//!   tasks one schedule had alive at once, because the next schedule
//!   starts only after every task of this one has exited;
//! * a job queued on a worker that has not yet left its previous job
//!   simply waits in the worker's one-job slot: the previous job's
//!   remaining work never blocks.
//!
//! Workers are never torn down. Between jobs a worker waits on its
//! "job queued" flag the way a checked task waits for its grant: it
//! polls with `yield_now`, then parks until the next job's hand-over
//! unparks it. A job queued within the polling window reaches it
//! without a kernel wake-up.

use crate::wait;
use pdc_core::trace;
use pdc_sync::hooks;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

type Job = Box<dyn FnOnce(Checkin) + Send>;

struct Worker {
    slot: Mutex<Option<Job>>,
    /// Set once `slot` holds a job the worker has not taken yet:
    /// Release-stored by [`Worker::give`] after it fills the slot,
    /// Acquire-loaded by the worker before it empties it.
    queued: AtomicBool,
    /// The worker's own thread, unparked by [`Worker::give`].
    thread: Thread,
}

static IDLE: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());

fn idle() -> MutexGuard<'static, Vec<Arc<Worker>>> {
    IDLE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running job's claim on its worker; dropping it returns the worker
/// to the idle stack.
pub(crate) struct Checkin(Arc<Worker>);

impl Drop for Checkin {
    fn drop(&mut self) {
        idle().push(Arc::clone(&self.0));
    }
}

/// Run `job` on an idle worker, starting a new one if none is idle.
/// Returns at once; the job reports back through whatever it captured.
pub(crate) fn run(job: impl FnOnce(Checkin) + Send + 'static) {
    let job: Job = Box::new(job);
    let idle_worker = idle().pop();
    match idle_worker {
        Some(worker) => worker.give(job),
        None => start_worker(job),
    }
}

impl Worker {
    fn give(&self, job: Job) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(job);
        self.queued.store(true, Ordering::Release);
        self.thread.unpark();
    }

    /// Wait for the next [`Worker::give`] and take its job.
    fn next_job(&self) -> Job {
        wait::wait_until(|| self.queued.load(Ordering::Acquire), None);
        self.queued.store(false, Ordering::Relaxed);
        self.slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("a queued job is in the slot")
    }
}

/// Start a worker thread whose first job is `first`.
fn start_worker(first: Job) {
    std::thread::Builder::new()
        .name("pdc-check-worker".into())
        .spawn(move || {
            let me = Arc::new(Worker {
                slot: Mutex::new(None),
                queued: AtomicBool::new(false),
                thread: std::thread::current(),
            });
            let mut job = first;
            loop {
                // Task jobs catch their bodies' panics themselves; this
                // only keeps the worker serving if a job's own plumbing
                // unwinds.
                let _ = catch_unwind(AssertUnwindSafe(|| job(Checkin(Arc::clone(&me)))));
                job = me.next_job();
            }
        })
        .expect("spawn pdc-check worker");
}

/// What [`audit`] found on the idle workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Audit {
    /// Idle workers in the pool.
    pub idle: usize,
    /// Idle workers whose thread still has a checked-task binding or a
    /// sync trace installed from a past job. A correct pool reports 0.
    pub dirty: usize,
}

/// Visit every idle worker with a probe job and report how many still
/// carry per-task thread state. Waits for any running exploration to
/// finish first, so every worker is idle while it is probed.
pub fn audit() -> Audit {
    let _lock = crate::explore::exploration_lock();
    let workers = std::mem::take(&mut *idle());
    let (tx, rx) = mpsc::channel();
    for worker in &workers {
        let tx = tx.clone();
        worker.give(Box::new(move |checkin| {
            let clean = hooks::current_task().is_none() && trace::current_sync_trace().is_none();
            drop(checkin);
            let _ = tx.send(clean);
        }));
    }
    drop(tx);
    let dirty = rx.iter().filter(|clean| !clean).count();
    Audit {
        idle: workers.len(),
        dirty,
    }
}
