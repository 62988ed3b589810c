//! # pdc-sync — synchronization primitives built from atomics
//!
//! CS31/CS45 teach synchronization by *building* it: locks, semaphores,
//! barriers, condition-style waiting, and the classic concurrency problems
//! (producer-consumer, dining philosophers, readers-writers). This crate
//! implements each primitive from `std::sync::atomic` plus a parking lot
//! of `thread::park`/`unpark` queues (our stand-in for futexes, in
//! [`hooks`]), in the style of Mara Bos's *Rust Atomics and Locks*.
//!
//! Every unsafe block carries a safety argument; the public APIs are all
//! safe and data-race free by construction (guards tie access to lock
//! ownership through the borrow checker).
//!
//! * [`spin::SpinLock`] — test-and-set spinlock with exponential backoff.
//! * [`ticket::TicketLock`] — FIFO-fair ticket lock.
//! * [`mutex::PdcMutex`] — a parking mutex (poll, then park).
//! * [`semaphore::Semaphore`] — counting semaphore.
//! * [`barrier::SenseBarrier`] — sense-reversing reusable barrier.
//! * [`rwlock::PdcRwLock`] — writer-preferring readers-writer lock.
//! * [`once::OnceCell`] — one-shot lazy initialization.
//! * [`buffer::BoundedBuffer`] — the producer-consumer bounded buffer.
//! * [`condvar::PdcCondvar`] — a condition variable over [`mutex::PdcMutex`].
//! * [`channel::channel`] — a traced, checkable MPSC channel whose
//!   send/recv carry per-channel FIFO happens-before edges.
//! * [`fairness::Fairness`] — wake-order policies (FIFO / adversarial)
//!   for the semaphore and condvar.
//! * [`hooks`] — the one wait every blocking primitive goes through, and
//!   the yield-point seam controlled schedulers (`pdc-check`) install
//!   into.
//! * [`waitgraph`] — wait-for-graph deadlock detection.
//! * [`problems`] — dining philosophers (deadlock demo + two fixes) and
//!   readers-writers scenarios.

#![warn(missing_docs)]
// Unsafe is required to hand-build lock primitives (UnsafeCell access
// guarded by atomics); every use site carries a SAFETY comment.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod barrier;
pub mod buffer;
pub mod channel;
pub mod condvar;
pub mod fairness;
pub mod hooks;
pub mod mutex;
pub mod once;
pub mod problems;
pub mod rwlock;
pub mod semaphore;
pub mod spin;
pub mod ticket;
pub mod waitgraph;

pub use barrier::SenseBarrier;
pub use buffer::BoundedBuffer;
pub use channel::{channel, PdcReceiver, PdcSender};
pub use condvar::PdcCondvar;
pub use fairness::Fairness;
pub use mutex::PdcMutex;
pub use once::OnceCell;
pub use rwlock::PdcRwLock;
pub use semaphore::Semaphore;
pub use spin::SpinLock;
pub use ticket::TicketLock;
