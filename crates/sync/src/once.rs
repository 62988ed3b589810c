//! One-shot lazy initialization (`OnceCell`) from a three-state atomic.
//!
//! The "lazy one-time initialization" example from *Rust Atomics and
//! Locks* ch. 2: many threads race to initialize; exactly one runs the
//! initializer, the rest wait and then share the result.

use crate::hooks;
use pdc_core::trace::{self, EventKind, SiteId};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU8, Ordering};

const EMPTY: u8 = 0;
const RUNNING: u8 = 1;
const READY: u8 = 2;

/// A cell initialized at most once, usable from many threads.
pub struct OnceCell<T> {
    state: AtomicU8,
    /// Stable analysis site id (lazily allocated; see `pdc-analyze`).
    site: SiteId,
    value: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: `value` is written exactly once, by the thread that wins the
// EMPTY -> RUNNING CAS, before the Release store of READY; all readers
// check READY with Acquire first. After READY the value is immutable, so
// shared references are sound. T: Send + Sync because readers on other
// threads get &T and drop may happen on another thread.
unsafe impl<T: Send + Sync> Sync for OnceCell<T> {}
// SAFETY: moving the cell moves the T.
unsafe impl<T: Send> Send for OnceCell<T> {}

impl<T> OnceCell<T> {
    /// An empty cell.
    pub const fn new() -> Self {
        OnceCell {
            state: AtomicU8::new(EMPTY),
            site: SiteId::new(),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// Get the value if initialized.
    pub fn get(&self) -> Option<&T> {
        if self.state.load(Ordering::Acquire) == READY {
            // Observing READY adopts the initializer's history.
            trace::record_sync_site(EventKind::Acquire, &self.site, trace::SYNC_PULSE);
            // SAFETY: READY (Acquire) implies the write of `value`
            // happened-before this read, and the value is never written
            // again.
            Some(unsafe { (*self.value.get()).assume_init_ref() })
        } else {
            None
        }
    }

    /// Get the value, initializing it with `init` if empty. If several
    /// threads race, exactly one runs `init`; the others wait.
    ///
    /// # Panics
    /// If `init` panics, the panic propagates to this caller and the cell
    /// goes back to empty (std's `OnceLock` rule): a caller waiting on
    /// it, or any later one, retries and runs its own initializer.
    pub fn get_or_init(&self, init: impl FnOnce() -> T) -> &T {
        hooks::yield_point();
        while let Err(mut s) =
            self.state
                .compare_exchange(EMPTY, RUNNING, Ordering::Acquire, Ordering::Acquire)
        {
            // Lost the race (or already initialized): wait for READY,
            // or for EMPTY if the initializer panicked, and then retry.
            let mut spins = 0u32;
            while s == RUNNING {
                hooks::spin_wait(&mut spins, &self.site);
                s = self.state.load(Ordering::Acquire);
            }
            if s == READY {
                trace::record_sync_site(EventKind::Acquire, &self.site, trace::SYNC_PULSE);
                // SAFETY: READY (Acquire) implies the value is written.
                return unsafe { (*self.value.get()).assume_init_ref() };
            }
        }
        // We won: initialize. If `init` unwinds, `reset` hands the
        // RUNNING token back.
        let reset = ResetOnUnwind(self);
        let v = init();
        std::mem::forget(reset);
        // SAFETY: we hold the unique RUNNING token; no other thread
        // reads until READY nor writes ever.
        unsafe { (*self.value.get()).write(v) };
        // Trace event first, then the publishing store, so the pulse's
        // timestamp precedes any reader's acquire.
        trace::record_sync_site(EventKind::Release, &self.site, trace::SYNC_PULSE);
        // Release publishes the value to Acquire readers.
        self.state.store(READY, Ordering::Release);
        hooks::site_changed(&self.site);
        // SAFETY: state is READY and the value written.
        unsafe { (*self.value.get()).assume_init_ref() }
    }

    /// Set the value if empty; returns `Err(value)` if already set or
    /// being set.
    pub fn set(&self, value: T) -> Result<(), T> {
        if self
            .state
            .compare_exchange(EMPTY, RUNNING, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: unique RUNNING token, as in get_or_init.
            unsafe { (*self.value.get()).write(value) };
            trace::record_sync_site(EventKind::Release, &self.site, trace::SYNC_PULSE);
            self.state.store(READY, Ordering::Release);
            hooks::site_changed(&self.site);
            Ok(())
        } else {
            Err(value)
        }
    }
}

/// Puts a cell whose initializer panicked back to EMPTY and wakes its
/// waiters; forgotten once the initializer returns.
struct ResetOnUnwind<'a, T>(&'a OnceCell<T>);

impl<T> Drop for ResetOnUnwind<'_, T> {
    fn drop(&mut self) {
        self.0.state.store(EMPTY, Ordering::Release);
        hooks::site_changed(&self.0.site);
    }
}

impl<T> Default for OnceCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for OnceCell<T> {
    fn drop(&mut self) {
        if *self.state.get_mut() == READY {
            // SAFETY: READY implies initialized; &mut self implies no
            // other references exist.
            unsafe { self.value.get_mut().assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn get_before_init_is_none() {
        let c: OnceCell<u32> = OnceCell::new();
        assert!(c.get().is_none());
        assert_eq!(*c.get_or_init(|| 42), 42);
        assert_eq!(c.get(), Some(&42));
    }

    #[test]
    fn second_init_ignored() {
        let c = OnceCell::new();
        assert_eq!(*c.get_or_init(|| 1), 1);
        assert_eq!(*c.get_or_init(|| 2), 1, "initializer must run once");
    }

    #[test]
    fn set_semantics() {
        let c = OnceCell::new();
        assert!(c.set(5).is_ok());
        assert_eq!(c.set(6), Err(6));
        assert_eq!(c.get(), Some(&5));
    }

    #[test]
    fn racing_initializers_run_once() {
        let cell = Arc::new(OnceCell::new());
        let runs = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let cell = Arc::clone(&cell);
                let runs = Arc::clone(&runs);
                thread::spawn(move || {
                    let v = cell.get_or_init(|| {
                        runs.fetch_add(1, Ordering::SeqCst);
                        i * 100
                    });
                    *v
                })
            })
            .collect();
        let values: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one init");
        assert!(
            values.windows(2).all(|w| w[0] == w[1]),
            "all see same value"
        );
    }

    #[test]
    fn a_panicking_initializer_lets_waiting_and_later_callers_retry() {
        use std::sync::mpsc;
        use std::time::Duration;
        let cell = Arc::new(OnceCell::new());
        let (entered_tx, entered_rx) = mpsc::channel();
        let (fail_tx, fail_rx) = mpsc::channel::<()>();
        let initializer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                cell.get_or_init(|| -> u32 {
                    entered_tx.send(()).unwrap();
                    fail_rx.recv().unwrap();
                    panic!("initializer fails");
                });
            })
        };
        entered_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let caller = |init: u32, fail: Option<mpsc::Sender<()>>| {
            let cell = Arc::clone(&cell);
            let done_tx = done_tx.clone();
            thread::spawn(move || {
                if let Some(fail) = fail {
                    fail.send(()).unwrap();
                }
                done_tx.send(*cell.get_or_init(|| init)).unwrap()
            })
        };
        // The waiter lets the initializer fail and calls at once, so it
        // almost always finds the cell RUNNING and waits; the later
        // caller comes after the panic has returned. Either way both
        // must return.
        let waiter = caller(1, Some(fail_tx));
        assert!(initializer.join().is_err(), "the panic reaches its caller");
        let later = caller(2, None);
        let timeout = Duration::from_secs(5);
        let first = done_rx.recv_timeout(timeout).expect("a caller hangs");
        let second = done_rx.recv_timeout(timeout).expect("a caller hangs");
        waiter.join().unwrap();
        later.join().unwrap();
        assert_eq!(first, second, "both callers see the one value");
        assert!([1, 2].contains(&first));
        assert_eq!(cell.get(), Some(&first));
    }

    #[test]
    fn drops_contained_value() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let c = OnceCell::new();
            c.get_or_init(|| Canary(Arc::clone(&drops)));
            assert_eq!(drops.load(Ordering::SeqCst), 0);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1, "value dropped with cell");
        // An empty cell drops nothing.
        {
            let _c: OnceCell<Canary> = OnceCell::new();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
