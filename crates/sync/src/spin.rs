//! A test-and-test-and-set spinlock with exponential backoff.
//!
//! The first lock students build: one atomic flag, `compare_exchange` to
//! acquire, a plain store to release. This version adds the standard
//! refinement covered in lecture: *test-and-test-and-set* (spin on a
//! load, not on the RMW, to avoid cache-line ping-pong). The polite spin
//! (pause hint + periodic yield) is [`crate::hooks::spin_wait`]; this
//! lock and the ticket lock are the only primitives that never park.

use crate::hooks;
use pdc_core::trace::{self, EventKind, SiteId};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A spinlock protecting a value of type `T`.
pub struct SpinLock<T> {
    locked: AtomicBool,
    /// Total acquisitions (for contention experiments).
    acquisitions: AtomicU64,
    /// Total spin iterations observed while waiting.
    spins: AtomicU64,
    /// Stable analysis site id (lazily allocated; see `pdc-analyze`).
    site: SiteId,
    value: UnsafeCell<T>,
}

// SAFETY: SpinLock provides mutual exclusion: only the thread that
// successfully set `locked` may touch `value`, and the guard's lifetime
// confines that access. T must be Send because the value moves between
// threads; no &T escapes without the lock, so T: Send suffices for Sync.
unsafe impl<T: Send> Sync for SpinLock<T> {}
// SAFETY: sending the whole lock between threads moves the T with it.
unsafe impl<T: Send> Send for SpinLock<T> {}

/// RAII guard: the lock is held while this exists.
pub struct SpinGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> SpinLock<T> {
    /// Create an unlocked spinlock around `value`.
    pub const fn new(value: T) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            acquisitions: AtomicU64::new(0),
            spins: AtomicU64::new(0),
            site: SiteId::new(),
            value: UnsafeCell::new(value),
        }
    }

    /// An unlocked spinlock that never records acquire/release events —
    /// for implementation-internal locks (waiter queues) whose traffic
    /// would pollute race/deadlock analysis.
    pub const fn untraced(value: T) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            acquisitions: AtomicU64::new(0),
            spins: AtomicU64::new(0),
            site: SiteId::disabled(),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquire the lock, spinning until available.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        // Untraced locks guard implementation-internal queues; they are
        // not user-visible synchronization steps, so they are not
        // preemption points either (they never block under a checker:
        // no yield point ever splits their critical sections).
        if !self.site.is_disabled() {
            hooks::yield_point();
        }
        loop {
            // Acquire ordering: pairs with the Release store in unlock so
            // everything the previous holder wrote is visible to us.
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
            // Test-and-test-and-set: spin read-only until it looks free.
            let mut local_spins = 0u32;
            while self.locked.load(Ordering::Relaxed) {
                hooks::spin_wait(&mut local_spins, &self.site);
            }
            self.spins.fetch_add(local_spins as u64, Ordering::Relaxed);
        }
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        trace::record_sync_site(EventKind::Acquire, &self.site, trace::SYNC_EXCLUSIVE);
        SpinGuard { lock: self }
    }

    /// Try to acquire without spinning.
    pub fn try_lock(&self) -> Option<SpinGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            self.acquisitions.fetch_add(1, Ordering::Relaxed);
            trace::record_sync_site(EventKind::Acquire, &self.site, trace::SYNC_EXCLUSIVE);
            Some(SpinGuard { lock: self })
        } else {
            None
        }
    }

    /// Total successful acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Total observed waiting iterations (a contention proxy).
    pub fn contention_spins(&self) -> u64 {
        self.spins.load(Ordering::Relaxed)
    }

    /// Consume the lock and return the value (no synchronization needed:
    /// `self` by value proves exclusive ownership).
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }

    /// Exclusive access through `&mut self` (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T> Deref for SpinGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only while the lock is held, so no
        // other thread can be accessing the value.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above, plus &mut self gives unique access to the
        // guard, so no aliasing mutable references exist.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        // The trace event goes first so in logical-timestamp order this
        // release precedes any acquire it enables.
        trace::record_sync_site(EventKind::Release, &self.lock.site, trace::SYNC_EXCLUSIVE);
        // Release ordering: publishes our writes to the next acquirer.
        self.lock.locked.store(false, Ordering::Release);
        hooks::site_changed(&self.lock.site);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SpinLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("SpinLock").field("value", &*g).finish(),
            None => f.write_str("SpinLock { <locked> }"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn single_thread_lock_unlock() {
        let l = SpinLock::new(5);
        {
            let mut g = l.lock();
            *g += 1;
        }
        assert_eq!(*l.lock(), 6);
        assert_eq!(l.acquisitions(), 2);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let l = SpinLock::new(());
        let g = l.lock();
        assert!(l.try_lock().is_none());
        drop(g);
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn counter_is_race_free_across_threads() {
        let l = Arc::new(SpinLock::new(0u64));
        let threads = 4;
        let iters = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let l = Arc::clone(&l);
                thread::spawn(move || {
                    for _ in 0..iters {
                        *l.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.lock(), threads * iters);
    }

    #[test]
    fn guard_protects_compound_invariant() {
        // Two fields that must stay equal; without mutual exclusion the
        // check inside the lock would trip.
        let l = Arc::new(SpinLock::new((0u64, 0u64)));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                thread::spawn(move || {
                    for _ in 0..5_000 {
                        let mut g = l.lock();
                        g.0 += 1;
                        // A context switch here must not be observable.
                        g.1 += 1;
                        assert_eq!(g.0, g.1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let g = l.lock();
        assert_eq!(g.0, 20_000);
        assert_eq!(g.1, 20_000);
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut l = SpinLock::new(7);
        *l.get_mut() = 8;
        assert_eq!(l.into_inner(), 8);
    }

    #[test]
    fn debug_formatting() {
        let l = SpinLock::new(3);
        assert!(format!("{l:?}").contains('3'));
        let g = l.lock();
        assert!(format!("{l:?}").contains("locked"));
        drop(g);
    }
}
