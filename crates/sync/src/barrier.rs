//! A sense-reversing barrier.
//!
//! The barrier is the synchronization backbone of the parallel
//! Game-of-Life lab: all workers must finish generation `g` before any
//! starts `g+1`. The naive counter barrier cannot be reused (a fast
//! thread can lap a slow one); the *sense-reversing* barrier fixes this
//! by flipping a phase flag each episode, which is the version built here.

use crate::hooks;
use pdc_core::trace::{self, EventKind, SiteId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// A reusable sense-reversing barrier for a fixed set of threads.
pub struct SenseBarrier {
    parties: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    episodes: AtomicU64,
    /// Stable analysis site id (lazily allocated; see `pdc-analyze`).
    site: SiteId,
}

/// What a thread learns from [`SenseBarrier::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierOutcome {
    /// True for exactly one thread per episode (the last arriver) —
    /// mirrors `PTHREAD_BARRIER_SERIAL_THREAD`.
    pub is_leader: bool,
    /// The barrier episode that completed (0-based).
    pub episode: u64,
}

impl SenseBarrier {
    /// Create a barrier for `parties` threads.
    ///
    /// # Panics
    /// Panics if `parties == 0`.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        SenseBarrier {
            parties,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            episodes: AtomicU64::new(0),
            site: SiteId::new(),
        }
    }

    /// Number of participating threads.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Completed episodes so far.
    pub fn episodes(&self) -> u64 {
        self.episodes.load(Ordering::Relaxed)
    }

    /// Block until all `parties` threads have called `wait` this episode.
    pub fn wait(&self) -> BarrierOutcome {
        hooks::yield_point();
        // Entering the barrier publishes this thread's history (a sync
        // pulse released before the arrival increment); leaving adopts
        // everyone's (a pulse acquired after the sense flip is seen), so
        // the analyzer sees the all-to-all happens-before edge.
        trace::record_sync_site(EventKind::Release, &self.site, trace::SYNC_PULSE);
        // My sense for this episode is the flag value at entry.
        let my_sense = self.sense.load(Ordering::Relaxed);
        let arrival = self.count.fetch_add(1, Ordering::AcqRel);
        if arrival + 1 == self.parties {
            // Leader: reset the counter, then flip the sense to release.
            let episode = self.episodes.fetch_add(1, Ordering::Relaxed);
            self.count.store(0, Ordering::Relaxed);
            // Release: every write done by any party before the barrier
            // happens-before every read after it (parties synchronized
            // via their Acquire loads of `sense`).
            self.sense.store(!my_sense, Ordering::Release);
            hooks::site_changed(&self.site);
            trace::record_sync_site(EventKind::Acquire, &self.site, trace::SYNC_PULSE);
            BarrierOutcome {
                is_leader: true,
                episode,
            }
        } else {
            let flipped = || self.sense.load(Ordering::Acquire) != my_sense;
            while !flipped() {
                hooks::wait(&self.site, flipped);
            }
            trace::record_sync_site(EventKind::Acquire, &self.site, trace::SYNC_PULSE);
            BarrierOutcome {
                is_leader: false,
                episode: self.episodes.load(Ordering::Relaxed) - 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn single_party_never_blocks() {
        let b = SenseBarrier::new(1);
        for ep in 0..5 {
            let o = b.wait();
            assert!(o.is_leader);
            assert_eq!(o.episode, ep);
        }
        assert_eq!(b.episodes(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_rejected() {
        SenseBarrier::new(0);
    }

    #[test]
    fn exactly_one_leader_per_episode() {
        let parties = 4;
        let episodes = 50;
        let b = Arc::new(SenseBarrier::new(parties));
        let leaders = Arc::new(TestCounter::new(0));
        let handles: Vec<_> = (0..parties)
            .map(|_| {
                let b = Arc::clone(&b);
                let leaders = Arc::clone(&leaders);
                thread::spawn(move || {
                    for _ in 0..episodes {
                        if b.wait().is_leader {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), episodes as u64);
        assert_eq!(b.episodes(), episodes as u64);
    }

    #[test]
    fn no_thread_laps_the_barrier() {
        // Phase counters: after every episode all threads have identical
        // phase; a reuse bug would let one thread run ahead.
        let parties = 4;
        let rounds = 100;
        let b = Arc::new(SenseBarrier::new(parties));
        let phases: Arc<Vec<TestCounter>> =
            Arc::new((0..parties).map(|_| TestCounter::new(0)).collect());
        let handles: Vec<_> = (0..parties)
            .map(|i| {
                let b = Arc::clone(&b);
                let phases = Arc::clone(&phases);
                thread::spawn(move || {
                    for round in 0..rounds {
                        phases[i].store(round, Ordering::SeqCst);
                        b.wait();
                        // After the barrier, everyone must be at >= round.
                        for p in phases.iter() {
                            assert!(
                                p.load(Ordering::SeqCst) >= round,
                                "thread lagging behind a completed barrier"
                            );
                        }
                        b.wait(); // second barrier before next round's store
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn barrier_publishes_writes() {
        // Data written before the barrier must be visible after it.
        let parties = 3;
        let b = Arc::new(SenseBarrier::new(parties));
        let slots: Arc<Vec<TestCounter>> =
            Arc::new((0..parties).map(|_| TestCounter::new(0)).collect());
        let handles: Vec<_> = (0..parties)
            .map(|i| {
                let b = Arc::clone(&b);
                let slots = Arc::clone(&slots);
                thread::spawn(move || {
                    slots[i].store(i as u64 + 1, Ordering::Relaxed);
                    b.wait();
                    let total: u64 = slots.iter().map(|s| s.load(Ordering::Relaxed)).sum();
                    assert_eq!(total, (1..=parties as u64).sum::<u64>());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
