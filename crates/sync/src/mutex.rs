//! A parking mutex: poll briefly, then sleep.
//!
//! Pure spinlocks burn CPU while waiting; the OS-backed mutex of the
//! lecture parks the waiting thread instead. Real implementations use
//! futexes; our portable stand-in is the parking lot in
//! [`crate::hooks`]. A contended `lock` polls the lock, yielding between
//! polls, then queues in the lot under the mutex's site, re-checks and
//! parks ([`hooks::wait_one`]); `unlock` wakes the oldest queued waiter.
//! A newly arriving thread may grab the lock ahead of queued waiters
//! (barging — the throughput-friendly policy).

use crate::fairness::Fairness;
use crate::hooks;
use pdc_core::trace::{self, EventKind, SiteId};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A blocking mutex protecting `T`.
pub struct PdcMutex<T> {
    locked: AtomicBool,
    parks: AtomicU64,
    /// Stable analysis site id (lazily allocated; see `pdc-analyze`).
    site: SiteId,
    value: UnsafeCell<T>,
}

// SAFETY: mutual exclusion via the `locked` flag; only the CAS winner
// accesses `value`, scoped by the guard (see SpinLock).
unsafe impl<T: Send> Sync for PdcMutex<T> {}
// SAFETY: moving the mutex moves the T.
unsafe impl<T: Send> Send for PdcMutex<T> {}

/// RAII guard for [`PdcMutex`].
pub struct MutexGuard<'a, T> {
    lock: &'a PdcMutex<T>,
}

impl<'a, T> MutexGuard<'a, T> {
    /// The mutex this guard locks (used by [`crate::condvar::PdcCondvar`]
    /// to re-acquire after waiting).
    pub fn mutex(&self) -> &'a PdcMutex<T> {
        self.lock
    }
}

impl<T> PdcMutex<T> {
    /// Create an unlocked mutex.
    pub fn new(value: T) -> Self {
        PdcMutex {
            locked: AtomicBool::new(false),
            parks: AtomicU64::new(0),
            site: SiteId::new(),
            value: UnsafeCell::new(value),
        }
    }

    fn acquired(&self) -> MutexGuard<'_, T> {
        trace::record_sync_site(EventKind::Acquire, &self.site, trace::SYNC_EXCLUSIVE);
        MutexGuard { lock: self }
    }

    fn try_acquire(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Acquire the mutex, parking the thread if it stays contended.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        hooks::yield_point();
        hooks::wait_one(&self.site, Fairness::Fifo, &self.parks, || {
            self.try_acquire()
        });
        self.acquired()
    }

    /// Try to acquire without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.try_acquire().then(|| self.acquired())
    }

    /// Number of times a waiter queued to sleep on this mutex after its
    /// polls failed (the contention metric students compare against the
    /// spinlock's spin counts).
    pub fn park_count(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: guard implies the lock is held by this thread.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above; &mut self prevents guard aliasing.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // The trace event precedes the releasing store so that in
        // logical-timestamp order no acquire can observe this release
        // before it was recorded.
        trace::record_sync_site(EventKind::Release, &self.lock.site, trace::SYNC_EXCLUSIVE);
        // Release the lock first (Release pairs with acquirers' Acquire),
        // then wake the oldest queued waiter, if any. Waking after
        // releasing guarantees the woken thread can succeed immediately.
        self.lock.locked.store(false, Ordering::Release);
        hooks::site_changed(&self.lock.site);
        hooks::wake_one(&self.lock.site, Fairness::Fifo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn uncontended_lock() {
        let m = PdcMutex::new(10);
        *m.lock() += 5;
        assert_eq!(*m.lock(), 15);
    }

    #[test]
    fn try_lock_contention() {
        let m = PdcMutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn concurrent_increments() {
        let m = Arc::new(PdcMutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..25_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 100_000);
    }

    #[test]
    fn parked_waiter_gets_woken() {
        let m = Arc::new(PdcMutex::new(0));
        let g = m.lock();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || {
            *m2.lock() = 99; // must park until main drops the guard
        });
        // Give the thread time to reach the parked state.
        thread::sleep(Duration::from_millis(50));
        drop(g);
        h.join().unwrap();
        assert_eq!(*m.lock(), 99);
    }

    #[test]
    fn long_hold_causes_parks_not_spins() {
        let m = Arc::new(PdcMutex::new(()));
        let g = m.lock();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    let _g = m.lock();
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(100));
        assert!(m.park_count() >= 1, "waiters should have parked");
        drop(g);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn a_wake_spent_on_a_stale_entry_reaches_the_sleeper_behind_it() {
        // The holder queues itself, as a waiter that then wins its
        // re-check does; a second thread sleeps behind it; the unlock's
        // wake takes the holder's entry. When the holder leaves the
        // queue it passes that wake on, or the sleeper would sleep on
        // with the lock free.
        let m = Arc::new(PdcMutex::new(0));
        let g = m.lock();
        let stale = hooks::queue(&m.site);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let m2 = Arc::clone(&m);
        thread::spawn(move || {
            *m2.lock() += 1;
            done_tx.send(()).unwrap();
        });
        while m.park_count() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(Duration::from_millis(20));
        drop(g);
        stale.leave(Fairness::Fifo);
        done_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the sleeper never woke");
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn guard_released_on_panic_is_not_poisoned() {
        // Our teaching mutex has no poisoning: a panicking holder simply
        // releases (the Drop runs during unwinding).
        let m = Arc::new(PdcMutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("die while holding");
        })
        .join();
        // Must still be acquirable.
        assert_eq!(*m.lock(), 1);
    }
}
