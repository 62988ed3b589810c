//! A condition variable over [`crate::mutex::PdcMutex`].
//!
//! The third pillar of the CS31/CS45 synchronization toolkit (after
//! locks and semaphores): wait atomically releases the mutex and sleeps;
//! notify wakes waiters. As with POSIX condition variables, **spurious
//! wakeups are permitted** — callers must re-check their predicate in a
//! loop, and the tests demonstrate exactly that discipline.
//!
//! The atomicity argument for "release + sleep": the waiter queues
//! itself in the condvar's wake-one queue of the [`crate::hooks`]
//! parking lot *before* releasing the mutex, so any notifier that
//! observes the released state also observes the queue entry, and a
//! notify that takes the entry before the waiter parks just means the
//! waiter does not park. The wait parks at once, with no polling: a
//! condition has no holder about to release it, and the re-acquire of
//! the mutex polls.

use crate::fairness::Fairness;
use crate::hooks;
use crate::mutex::{MutexGuard, PdcMutex};
use pdc_core::trace::{self, EventKind, SiteId};
use std::sync::atomic::{AtomicU64, Ordering};

/// A condition variable.
pub struct PdcCondvar {
    notifications: AtomicU64,
    /// Which queued waiter `notify_one` wakes.
    fairness: Fairness,
    /// Stable analysis site id (lazily allocated; see `pdc-analyze`).
    site: SiteId,
}

impl PdcCondvar {
    /// A new condition variable with FIFO wake order.
    pub fn new() -> Self {
        PdcCondvar::with_fairness(Fairness::Fifo)
    }

    /// A condition variable with an explicit wake-order policy for
    /// `notify_one` (`notify_all` wakes everyone regardless).
    pub fn with_fairness(fairness: Fairness) -> Self {
        PdcCondvar {
            notifications: AtomicU64::new(0),
            fairness,
            site: SiteId::new(),
        }
    }

    /// Record a [`EventKind::Wait`]/[`EventKind::Signal`] on this
    /// condvar's site, carrying the current notification count.
    fn record_cond(&self, kind: EventKind) {
        if let Some(t) = trace::current_sync_trace() {
            if let Some(id) = self.site.get() {
                t.record(kind, id, self.notifications.load(Ordering::Relaxed));
            }
        }
    }

    /// Atomically release `guard`'s mutex and sleep; re-acquire before
    /// returning. May wake spuriously: loop on the predicate.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mutex: &'a PdcMutex<T> = guard.mutex();
        // Queue before releasing: a notify between release and sleep
        // will find us and take our entry.
        let queued = hooks::queue(&self.site);
        drop(guard); // release the mutex
        queued.sleep();
        let guard = mutex.lock();
        // A wakeup adopts the notifier's history: a `wait` edge (pulse
        // acquire) recorded after the mutex is re-held, so its timestamp
        // follows the notify's `signal` edge.
        self.record_cond(EventKind::Wait);
        guard
    }

    /// Wait until `pred` holds (the loop callers should always write).
    pub fn wait_while<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut pred: impl FnMut(&T) -> bool,
    ) -> MutexGuard<'a, T> {
        while pred(&guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wake one waiter (if any).
    pub fn notify_one(&self) {
        hooks::yield_point();
        self.notifications.fetch_add(1, Ordering::Relaxed);
        // Publish the notifier's history (`signal` = pulse release)
        // before any waiter can wake.
        self.record_cond(EventKind::Signal);
        hooks::wake_one(&self.site, self.fairness);
    }

    /// Wake every current waiter.
    pub fn notify_all(&self) {
        hooks::yield_point();
        self.notifications.fetch_add(1, Ordering::Relaxed);
        self.record_cond(EventKind::Signal);
        hooks::wake_all(&self.site);
    }

    /// Number of notify calls (diagnostics).
    pub fn notify_count(&self) -> u64 {
        self.notifications.load(Ordering::Relaxed)
    }
}

impl Default for PdcCondvar {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn wait_blocks_until_notify() {
        let m = Arc::new(PdcMutex::new(false));
        let cv = Arc::new(PdcCondvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let h = thread::spawn(move || {
            let g = m2.lock();
            let g = cv2.wait_while(g, |&ready| !ready);
            assert!(*g);
        });
        thread::sleep(Duration::from_millis(50));
        *m.lock() = true;
        cv.notify_one();
        h.join().unwrap();
    }

    #[test]
    fn notify_all_wakes_every_waiter() {
        let m = Arc::new(PdcMutex::new(0u32));
        let cv = Arc::new(PdcCondvar::new());
        let n = 4;
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let (m, cv) = (Arc::clone(&m), Arc::clone(&cv));
                thread::spawn(move || {
                    let g = m.lock();
                    let mut g = cv.wait_while(g, |&v| v == 0);
                    *g += 100; // count the wakeup
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(50));
        *m.lock() = 1;
        cv.notify_all();
        // Some waiters may need extra notifies if they re-sleep between
        // our store and their predicate check — keep nudging.
        for h in handles {
            while !h.is_finished() {
                cv.notify_all();
                thread::yield_now();
            }
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 1 + 100 * n);
    }

    #[test]
    fn predicate_loop_survives_spurious_wakeups() {
        let m = Arc::new(PdcMutex::new(0u32));
        let cv = Arc::new(PdcCondvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let h = thread::spawn(move || {
            let g = m2.lock();
            let g = cv2.wait_while(g, |&v| v < 3);
            *g
        });
        // Notify without satisfying the predicate twice (spurious-like),
        // then satisfy it.
        for step in 1..=3 {
            thread::sleep(Duration::from_millis(20));
            *m.lock() = step;
            cv.notify_one();
        }
        assert_eq!(h.join().unwrap(), 3);
    }

    #[test]
    fn bounded_buffer_via_condvar() {
        // The classic two-condvar bounded buffer, as an end-to-end check.
        struct Q {
            items: PdcMutex<VecDeque<u64>>,
            not_full: PdcCondvar,
            not_empty: PdcCondvar,
            cap: usize,
        }
        let q = Arc::new(Q {
            items: PdcMutex::new(VecDeque::new()),
            not_full: PdcCondvar::new(),
            not_empty: PdcCondvar::new(),
            cap: 4,
        });
        let n = 2_000u64;
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || {
            for i in 0..n {
                let g = q2.items.lock();
                let mut g = q2.not_full.wait_while(g, |items| items.len() >= q2.cap);
                g.push_back(i);
                drop(g);
                q2.not_empty.notify_one();
            }
        });
        let q3 = Arc::clone(&q);
        let consumer = thread::spawn(move || {
            let mut sum = 0u64;
            for _ in 0..n {
                let g = q3.items.lock();
                let mut g = q3.not_empty.wait_while(g, |items| items.is_empty());
                sum += g.pop_front().unwrap();
                drop(g);
                q3.not_full.notify_one();
            }
            sum
        });
        producer.join().unwrap();
        let sum = consumer.join().unwrap();
        assert_eq!(sum, n * (n - 1) / 2);
        assert!(q.items.lock().is_empty());
    }

    #[test]
    fn notify_with_no_waiters_is_noop() {
        let cv = PdcCondvar::new();
        cv.notify_one();
        cv.notify_all();
        assert_eq!(cv.notify_count(), 2);
    }
}
