//! A writer-preferring readers-writer lock.
//!
//! The readers-writers problem from CS45: many readers may share the
//! lock, writers need exclusivity, and naive "readers first" policies
//! starve writers. This implementation packs the state into one atomic
//! word and gives *waiting writers* preference: once a writer announces
//! itself, new readers hold back, so writers cannot starve (readers can,
//! under a continuous writer stream — the documented trade-off).
//!
//! State word layout: bit 63 = writer active; bits 32..63 = writers
//! waiting; bits 0..32 = active readers.

use crate::hooks;
use pdc_core::trace::{self, EventKind, SiteId};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

const WRITER_ACTIVE: u64 = 1 << 63;
const WAITING_ONE: u64 = 1 << 32;
const WAITING_MASK: u64 = ((1u64 << 31) - 1) << 32;
const READERS_MASK: u64 = (1u64 << 32) - 1;

/// A readers-writer lock protecting `T`.
pub struct PdcRwLock<T> {
    state: AtomicU64,
    /// Stable analysis site id (lazily allocated; see `pdc-analyze`).
    site: SiteId,
    value: UnsafeCell<T>,
}

// SAFETY: the state machine guarantees either one writer (unique access)
// or N readers (shared access); guards scope the references. Readers get
// &T so T: Send + Sync is required for Sync.
unsafe impl<T: Send + Sync> Sync for PdcRwLock<T> {}
// SAFETY: moving the lock moves the T.
unsafe impl<T: Send> Send for PdcRwLock<T> {}

/// Shared (read) guard.
pub struct ReadGuard<'a, T> {
    lock: &'a PdcRwLock<T>,
}

/// Exclusive (write) guard.
pub struct WriteGuard<'a, T> {
    lock: &'a PdcRwLock<T>,
}

impl<T> PdcRwLock<T> {
    /// Create an unlocked lock.
    pub const fn new(value: T) -> Self {
        PdcRwLock {
            state: AtomicU64::new(0),
            site: SiteId::new(),
            value: UnsafeCell::new(value),
        }
    }

    fn read_acquired(&self) -> ReadGuard<'_, T> {
        trace::record_sync_site(EventKind::Acquire, &self.site, trace::SYNC_SHARED);
        ReadGuard { lock: self }
    }

    fn write_acquired(&self) -> WriteGuard<'_, T> {
        trace::record_sync_site(EventKind::Acquire, &self.site, trace::SYNC_EXCLUSIVE);
        WriteGuard { lock: self }
    }

    /// Acquire shared access. Blocks (polls, then sleeps) while a writer
    /// is active **or waiting** — the writer-preference rule.
    pub fn read(&self) -> ReadGuard<'_, T> {
        hooks::yield_point();
        let open = || self.state.load(Ordering::Relaxed) & (WRITER_ACTIVE | WAITING_MASK) == 0;
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if s & (WRITER_ACTIVE | WAITING_MASK) == 0 {
                // No writer active or waiting: try to join the readers.
                if self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return self.read_acquired();
                }
                continue;
            }
            hooks::wait(&self.site, open);
        }
    }

    /// Try to acquire shared access without blocking.
    pub fn try_read(&self) -> Option<ReadGuard<'_, T>> {
        let s = self.state.load(Ordering::Relaxed);
        if s & (WRITER_ACTIVE | WAITING_MASK) != 0 {
            return None;
        }
        self.state
            .compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| self.read_acquired())
    }

    /// Acquire exclusive access.
    pub fn write(&self) -> WriteGuard<'_, T> {
        hooks::yield_point();
        // Announce intent: bump the waiting-writers count.
        self.state.fetch_add(WAITING_ONE, Ordering::Relaxed);
        let free = || self.state.load(Ordering::Relaxed) & (WRITER_ACTIVE | READERS_MASK) == 0;
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if s & (WRITER_ACTIVE | READERS_MASK) == 0 {
                // No writer, no readers: claim; move one waiting count to
                // active in a single CAS.
                let target = (s - WAITING_ONE) | WRITER_ACTIVE;
                if self
                    .state
                    .compare_exchange_weak(s, target, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return self.write_acquired();
                }
                continue;
            }
            hooks::wait(&self.site, free);
        }
    }

    /// Try to acquire exclusive access without blocking (does not announce
    /// as waiting).
    pub fn try_write(&self) -> Option<WriteGuard<'_, T>> {
        let s = self.state.load(Ordering::Relaxed);
        if s & (WRITER_ACTIVE | READERS_MASK) != 0 {
            return None;
        }
        self.state
            .compare_exchange(s, s | WRITER_ACTIVE, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| self.write_acquired())
    }

    /// `(active_readers, waiting_writers, writer_active)` — diagnostics.
    pub fn state_snapshot(&self) -> (u64, u64, bool) {
        let s = self.state.load(Ordering::Relaxed);
        (
            s & READERS_MASK,
            (s & WAITING_MASK) >> 32,
            s & WRITER_ACTIVE != 0,
        )
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T> Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: readers hold a positive reader count; no writer can be
        // active simultaneously, so shared access is sound.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        // Event before the state change: timestamp order must show this
        // release ahead of any acquire it enables.
        trace::record_sync_site(EventKind::Release, &self.lock.site, trace::SYNC_SHARED);
        // Release pairs with the next writer's Acquire.
        self.lock.state.fetch_sub(1, Ordering::Release);
        hooks::site_changed(&self.lock.site);
    }
}

impl<T> Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: WRITER_ACTIVE grants exclusive access.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above; &mut self prevents guard aliasing.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    fn drop(&mut self) {
        trace::record_sync_site(EventKind::Release, &self.lock.site, trace::SYNC_EXCLUSIVE);
        self.lock.state.fetch_and(!WRITER_ACTIVE, Ordering::Release);
        hooks::site_changed(&self.lock.site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64 as Cnt, Ordering as O};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn multiple_readers_coexist() {
        let l = PdcRwLock::new(7);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 14);
        let (readers, _, active) = l.state_snapshot();
        assert_eq!(readers, 2);
        assert!(!active);
    }

    #[test]
    fn writer_excludes_readers_and_writers() {
        let l = PdcRwLock::new(0);
        let w = l.write();
        assert!(l.try_read().is_none());
        assert!(l.try_write().is_none());
        drop(w);
        assert!(l.try_read().is_some());
    }

    #[test]
    fn readers_block_writers() {
        let l = PdcRwLock::new(0);
        let r = l.read();
        assert!(l.try_write().is_none());
        drop(r);
        assert!(l.try_write().is_some());
    }

    #[test]
    fn waiting_writer_blocks_new_readers() {
        let l = Arc::new(PdcRwLock::new(0u64));
        let r = l.read();
        let l2 = Arc::clone(&l);
        let writer = thread::spawn(move || {
            let mut g = l2.write();
            *g += 1;
        });
        // Wait until the writer has announced itself.
        while l.state_snapshot().1 == 0 {
            thread::yield_now();
        }
        // Writer preference: a new reader must not get in now.
        assert!(l.try_read().is_none(), "reader barged past waiting writer");
        drop(r);
        writer.join().unwrap();
        assert_eq!(*l.read(), 1);
    }

    #[test]
    fn concurrent_reads_and_writes_consistent() {
        let l = Arc::new(PdcRwLock::new((0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let l = Arc::clone(&l);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut checks = 0u64;
                    while !stop.load(O::Relaxed) {
                        let g = l.read();
                        assert_eq!(g.0, g.1, "torn read");
                        checks += 1;
                    }
                    checks
                })
            })
            .collect();
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                thread::spawn(move || {
                    for _ in 0..2_000 {
                        let mut g = l.write();
                        g.0 += 1;
                        std::hint::black_box(&mut g);
                        g.1 += 1;
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, O::Relaxed);
        let total_checks: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total_checks > 0);
        let g = l.read();
        assert_eq!(g.0, 4_000);
    }

    #[test]
    fn writers_do_not_starve_under_reader_stream() {
        let l = Arc::new(PdcRwLock::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let read_ops = Arc::new(Cnt::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let l = Arc::clone(&l);
                let stop = Arc::clone(&stop);
                let read_ops = Arc::clone(&read_ops);
                thread::spawn(move || {
                    while !stop.load(O::Relaxed) {
                        let _g = l.read();
                        read_ops.fetch_add(1, O::Relaxed);
                    }
                })
            })
            .collect();
        // The writer must complete quickly despite constant readers.
        let l2 = Arc::clone(&l);
        let w = thread::spawn(move || {
            for _ in 0..100 {
                *l2.write() += 1;
            }
        });
        w.join().unwrap();
        stop.store(true, O::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*l.read(), 100);
    }

    #[test]
    fn blocked_writer_eventually_proceeds() {
        let l = Arc::new(PdcRwLock::new(false));
        let r = l.read();
        let l2 = Arc::clone(&l);
        let w = thread::spawn(move || {
            *l2.write() = true;
        });
        thread::sleep(Duration::from_millis(20));
        drop(r);
        w.join().unwrap();
        assert!(*l.read());
    }
}
