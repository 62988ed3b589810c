//! A checked in-process MPSC channel with the crossbeam-shim surface.
//!
//! `vendor/crossbeam`'s `channel` module re-exports `std::sync::mpsc`,
//! which is invisible to both the tracer and the checker: sends and
//! receives carry no happens-before edges in `pdc-analyze` and no
//! choice points in `pdc-check`. This channel closes that gap:
//!
//! * every `send` records a [`EventKind::ChanSend`] *before* the
//!   message is enqueued, every successful `recv` records a
//!   [`EventKind::ChanRecv`] *after* it is dequeued, both keyed by the
//!   channel's site id with a per-channel FIFO sequence number —
//!   exactly the pairing rule `pdc_analyze::deps::Edges` applies, so a
//!   value handed through the channel is proven ordered;
//! * a blocking `recv` waits through [`hooks::wait`] and every `send`
//!   announces [`hooks::site_changed`], so under a `pdc-check`
//!   exploration the send/recv interleaving is a first-class
//!   schedulable decision rather than wall-clock luck.
//!
//! Unchecked, the hot path is an uncontended spinlock push/pop plus
//! one relaxed load per hook — the same cost profile as the other
//! `pdc-sync` primitives.

use crate::hooks;
use crate::spin::SpinLock;
use pdc_core::trace::{self, EventKind, SiteId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Error returned by [`PdcSender::send`] when the receiver is gone;
/// carries the unsent value back.
#[derive(Debug, PartialEq, Eq)]
pub struct ChanSendError<T>(pub T);

/// Error returned by [`PdcReceiver::recv`] when the channel is empty
/// and every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChanRecvError;

/// Error returned by [`PdcReceiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChanTryRecvError {
    /// No message is currently queued.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

struct Inner<T> {
    // Implementation-internal lock: the channel's own events are the
    // trace story, the queue lock would only pollute it.
    queue: SpinLock<VecDeque<T>>,
    senders: AtomicUsize,
    receiver_alive: AtomicUsize,
    sent: AtomicU64,
    received: AtomicU64,
    site: SiteId,
}

impl<T> Inner<T> {
    fn record(&self, kind: EventKind, seq: u64) {
        if let Some(t) = trace::current_sync_trace() {
            if let Some(id) = self.site.get() {
                t.record(kind, id, seq);
            }
        }
    }
}

/// The sending half; clone for multiple producers.
pub struct PdcSender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half (single consumer).
pub struct PdcReceiver<T> {
    inner: Arc<Inner<T>>,
}

/// Create an unbounded MPSC channel whose operations are traced and
/// checkable.
pub fn channel<T>() -> (PdcSender<T>, PdcReceiver<T>) {
    let inner = Arc::new(Inner {
        queue: SpinLock::untraced(VecDeque::new()),
        senders: AtomicUsize::new(1),
        receiver_alive: AtomicUsize::new(1),
        sent: AtomicU64::new(0),
        received: AtomicU64::new(0),
        site: SiteId::new(),
    });
    (
        PdcSender {
            inner: Arc::clone(&inner),
        },
        PdcReceiver { inner },
    )
}

impl<T> Clone for PdcSender<T> {
    fn clone(&self) -> Self {
        self.inner.senders.fetch_add(1, Ordering::Relaxed);
        PdcSender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for PdcSender<T> {
    fn drop(&mut self) {
        if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender gone: wake a blocked recv so it can observe
            // the disconnect instead of spinning forever.
            hooks::site_changed(&self.inner.site);
        }
    }
}

impl<T> Drop for PdcReceiver<T> {
    fn drop(&mut self) {
        self.inner.receiver_alive.store(0, Ordering::Release);
    }
}

impl<T> PdcSender<T> {
    /// Enqueue `value`, waking a blocked receiver. Fails (returning the
    /// value) when the receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), ChanSendError<T>> {
        hooks::yield_point();
        if self.inner.receiver_alive.load(Ordering::Acquire) == 0 {
            return Err(ChanSendError(value));
        }
        // Event before the enqueue: in logical-timestamp order no recv
        // may observe this message before its send was recorded.
        let seq = self.inner.sent.fetch_add(1, Ordering::Relaxed);
        self.inner.record(EventKind::ChanSend, seq);
        self.inner.queue.lock().push_back(value);
        hooks::site_changed(&self.inner.site);
        Ok(())
    }
}

impl<T> PdcReceiver<T> {
    /// Dequeue the oldest message without blocking.
    pub fn try_recv(&self) -> Result<T, ChanTryRecvError> {
        hooks::yield_point();
        match self.inner.queue.lock().pop_front() {
            Some(v) => {
                let seq = self.inner.received.fetch_add(1, Ordering::Relaxed);
                self.inner.record(EventKind::ChanRecv, seq);
                Ok(v)
            }
            None => {
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    Err(ChanTryRecvError::Disconnected)
                } else {
                    Err(ChanTryRecvError::Empty)
                }
            }
        }
    }

    /// Dequeue the oldest message, blocking until one arrives. Fails
    /// once the channel is empty and every sender is gone.
    pub fn recv(&self) -> Result<T, ChanRecvError> {
        hooks::yield_point();
        let inner = &self.inner;
        let ready = || !inner.queue.lock().is_empty() || inner.senders.load(Ordering::Acquire) == 0;
        loop {
            if let Some(v) = self.inner.queue.lock().pop_front() {
                let seq = self.inner.received.fetch_add(1, Ordering::Relaxed);
                self.inner.record(EventKind::ChanRecv, seq);
                return Ok(v);
            }
            if self.inner.senders.load(Ordering::Acquire) == 0 {
                return Err(ChanRecvError);
            }
            hooks::wait(&self.inner.site, ready);
        }
    }

    /// Messages sent so far (diagnostics).
    pub fn sent_count(&self) -> u64 {
        self.inner.sent.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn values_arrive_in_order() {
        let (tx, rx) = channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(ChanTryRecvError::Empty));
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = channel();
        let h = thread::spawn(move || rx.recv().unwrap());
        thread::sleep(std::time::Duration::from_millis(20));
        tx.send(42u32).unwrap();
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn dropping_all_senders_disconnects() {
        let (tx, rx) = channel::<u8>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1), "queued values drain first");
        assert_eq!(rx.recv(), Err(ChanRecvError));
        assert_eq!(rx.try_recv(), Err(ChanTryRecvError::Disconnected));
    }

    #[test]
    fn dropping_receiver_fails_send() {
        let (tx, rx) = channel();
        drop(rx);
        assert_eq!(tx.send(7u8), Err(ChanSendError(7)));
    }

    #[test]
    fn multi_producer_totals_add_up() {
        let (tx, rx) = channel();
        let handles: Vec<_> = (0..4u64)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..100u64 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 400);
    }
}
