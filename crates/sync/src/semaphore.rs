//! A counting semaphore built from an atomic counter and parking.
//!
//! The semaphore is the CS31/CS45 workhorse primitive: `acquire` (P/wait)
//! decrements if positive, else blocks; `release` (V/post) increments and
//! wakes a waiter. Implemented with a CAS loop on the count plus the
//! wake-one wait of [`crate::hooks`] that [`crate::mutex::PdcMutex`]
//! uses; `release` wakes the queued waiter its [`Fairness`] picks.

use crate::fairness::Fairness;
use crate::hooks;
use pdc_core::trace::{self, EventKind, SiteId};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A counting semaphore.
pub struct Semaphore {
    count: AtomicI64,
    parks: AtomicU64,
    /// Which queued waiter a release wakes.
    fairness: Fairness,
    /// Stable analysis site id (lazily allocated; see `pdc-analyze`).
    site: SiteId,
}

impl Semaphore {
    /// Create a semaphore with `permits` initial permits and FIFO wake
    /// order.
    pub fn new(permits: i64) -> Self {
        Semaphore::with_fairness(permits, Fairness::Fifo)
    }

    /// Create a semaphore with an explicit wake-order policy.
    pub fn with_fairness(permits: i64, fairness: Fairness) -> Self {
        assert!(permits >= 0, "initial permits must be non-negative");
        Semaphore {
            count: AtomicI64::new(permits),
            parks: AtomicU64::new(0),
            fairness,
            site: SiteId::new(),
        }
    }

    /// Try to take a permit without blocking.
    pub fn try_acquire(&self) -> bool {
        let mut cur = self.count.load(Ordering::Relaxed);
        while cur > 0 {
            match self.count.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // A permit hand-off is a sync *pulse*: it carries a
                    // happens-before edge from a releaser but is not a
                    // held lock for lockset/lock-order purposes.
                    trace::record_sync_site(EventKind::Acquire, &self.site, trace::SYNC_PULSE);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
        false
    }

    /// Take a permit, blocking (parking) until one is available.
    pub fn acquire(&self) {
        hooks::yield_point();
        hooks::wait_one(&self.site, self.fairness, &self.parks, || {
            self.try_acquire()
        });
    }

    /// Return one permit and wake one waiter.
    pub fn release(&self) {
        // Event before the count bump: timestamp order must show this
        // release ahead of the acquire it enables.
        trace::record_sync_site(EventKind::Release, &self.site, trace::SYNC_PULSE);
        // Release ordering pairs with acquirers' Acquire CAS.
        self.count.fetch_add(1, Ordering::Release);
        hooks::site_changed(&self.site);
        hooks::wake_one(&self.site, self.fairness);
    }

    /// Return `n` permits.
    pub fn release_n(&self, n: i64) {
        assert!(n >= 0);
        if n == 0 {
            return;
        }
        trace::record_sync_site(EventKind::Release, &self.site, trace::SYNC_PULSE);
        self.count.fetch_add(n, Ordering::Release);
        hooks::site_changed(&self.site);
        for _ in 0..n {
            if !hooks::wake_one(&self.site, self.fairness) {
                break;
            }
        }
    }

    /// Current permit count (racy; diagnostics only).
    pub fn available(&self) -> i64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Number of times a waiter queued to sleep after its polls failed
    /// (contention metric).
    pub fn park_count(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn permits_count_down_and_up() {
        let s = Semaphore::new(2);
        assert!(s.try_acquire());
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
        s.release();
        assert!(s.try_acquire());
        assert_eq!(s.available(), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_initial_rejected() {
        Semaphore::new(-1);
    }

    #[test]
    fn acquire_blocks_until_release() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = Arc::clone(&done);
        let h = thread::spawn(move || {
            s2.acquire();
            done2.store(1, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(50));
        assert_eq!(done.load(Ordering::SeqCst), 0, "must still be blocked");
        s.release();
        h.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn semaphore_as_mutex() {
        // A binary semaphore provides mutual exclusion.
        let s = Arc::new(Semaphore::new(1));
        let counter = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                let counter = Arc::clone(&counter);
                let peak = Arc::clone(&peak);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        s.acquire();
                        let inside = counter.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(inside, Ordering::SeqCst);
                        counter.fetch_sub(1, Ordering::SeqCst);
                        s.release();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "never two inside");
    }

    #[test]
    fn bounded_concurrency_with_n_permits() {
        let s = Arc::new(Semaphore::new(3));
        let inside = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                let inside = Arc::clone(&inside);
                let peak = Arc::clone(&peak);
                thread::spawn(move || {
                    for _ in 0..200 {
                        s.acquire();
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        inside.fetch_sub(1, Ordering::SeqCst);
                        s.release();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3, "permit cap respected");
    }

    #[test]
    fn a_wake_spent_on_a_stale_entry_reaches_the_sleeper_behind_it() {
        // As the mutex's test: the permit holder queues itself, a second
        // thread sleeps behind it, and the release's wake takes the
        // holder's entry; leaving the queue passes it on.
        let s = Arc::new(Semaphore::new(1));
        s.acquire();
        let stale = hooks::queue(&s.site);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let s2 = Arc::clone(&s);
        thread::spawn(move || {
            s2.acquire();
            done_tx.send(()).unwrap();
        });
        while s.park_count() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(Duration::from_millis(20));
        s.release();
        stale.leave(s.fairness);
        done_rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the sleeper never woke");
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn release_n_wakes_many() {
        let s = Arc::new(Semaphore::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                thread::spawn(move || s.acquire())
            })
            .collect();
        thread::sleep(Duration::from_millis(50));
        s.release_n(4);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn rendezvous_pattern() {
        // Two semaphores implement the classic two-thread rendezvous:
        // neither proceeds to step B before the other finished step A.
        let sa = Arc::new(Semaphore::new(0));
        let sb = Arc::new(Semaphore::new(0));
        let log = Arc::new(crate::spin::SpinLock::new(Vec::<&'static str>::new()));
        let (sa2, sb2, log2) = (Arc::clone(&sa), Arc::clone(&sb), Arc::clone(&log));
        let t1 = thread::spawn(move || {
            log2.lock().push("a1");
            sa2.release();
            sb2.acquire();
            log2.lock().push("a2");
        });
        let (sa3, sb3, log3) = (Arc::clone(&sa), Arc::clone(&sb), Arc::clone(&log));
        let t2 = thread::spawn(move || {
            log3.lock().push("b1");
            sb3.release();
            sa3.acquire();
            log3.lock().push("b2");
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let log = log.lock();
        let pos = |s| log.iter().position(|&x| x == s).unwrap();
        assert!(pos("a1") < pos("b2"));
        assert!(pos("b1") < pos("a2"));
    }
}
