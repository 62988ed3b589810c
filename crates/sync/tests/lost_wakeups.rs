//! Lost wake-up stress. Three threads share a `PdcMutex`, a
//! `Semaphore`, a `SenseBarrier` or a channel, with critical sections
//! and gaps drawn from nothing, a spin shorter than a waiter's polling
//! window, and sleeps longer than it, so waiters both catch the change
//! while polling and park for it. Every trial has a deadline: a lost
//! wake-up shows as a hang, and the test names the trial.
//!
//! Release only (debug builds are too slow for enough trials). Run it
//! on one CPU too, `taskset -c 0 cargo test --release -p pdc-sync`,
//! where a waiter that burns the holder's CPU or misses its wake-up
//! shows first.

use pdc_sync::{channel, PdcMutex, PdcReceiver, PdcSender, Semaphore, SenseBarrier};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

const TRIALS: u64 = 30;
const OPS: u64 = 40;
const DEADLINE: Duration = Duration::from_secs(10);

/// A small xorshift generator, one per thread and trial.
struct Rng(u64);

impl Rng {
    fn new(trial: u64, thread: u64) -> Rng {
        Rng((trial + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (thread + 1) << 32)
    }

    /// Pause for nothing (half the time), a 20 µs spin, or a 0.2 or
    /// 2 ms sleep.
    fn pause(&mut self) {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        match self.0 % 8 {
            0..=3 => {}
            4 | 5 => {
                let start = Instant::now();
                while start.elapsed() < Duration::from_micros(20) {}
            }
            6 => thread::sleep(Duration::from_micros(200)),
            _ => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Run `trial` on three threads (`trial(t, thread)` for thread 0..3)
/// `TRIALS` times, each within `DEADLINE`, then `check(t)`.
fn run<S: Send + Sync + 'static>(
    what: &str,
    make: impl Fn() -> S,
    trial: fn(&S, &mut Rng, u64),
    check: fn(&S),
) {
    for t in 0..TRIALS {
        let shared = Arc::new(make());
        let (done_tx, done_rx) = mpsc::channel();
        for i in 0..3 {
            let (shared, done_tx) = (Arc::clone(&shared), done_tx.clone());
            thread::spawn(move || {
                trial(&shared, &mut Rng::new(t, i), i);
                done_tx.send(()).unwrap();
            });
        }
        for _ in 0..3 {
            done_rx
                .recv_timeout(DEADLINE)
                .unwrap_or_else(|_| panic!("{what}: trial {t} hung past {DEADLINE:?}"));
        }
        check(&shared);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn mutex_waiters_always_wake() {
    run(
        "PdcMutex",
        || PdcMutex::new(0u64),
        |m, rng, _| {
            for _ in 0..OPS {
                let mut g = m.lock();
                *g += 1;
                rng.pause();
                drop(g);
                rng.pause();
            }
        },
        |m| assert_eq!(*m.lock(), 3 * OPS),
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn semaphore_waiters_always_wake() {
    // Thread 0 posts every permit, two at a time; threads 1 and 2 each
    // take half.
    run(
        "Semaphore",
        || Semaphore::new(0),
        |s, rng, i| {
            for _ in 0..OPS {
                if i == 0 {
                    s.release();
                    rng.pause();
                    s.release();
                } else {
                    s.acquire();
                }
                rng.pause();
            }
        },
        |s| assert_eq!(s.available(), 0),
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn barrier_waiters_always_wake() {
    run(
        "SenseBarrier",
        || SenseBarrier::new(3),
        |b, rng, _| {
            for _ in 0..OPS {
                rng.pause();
                b.wait();
            }
        },
        |b| assert_eq!(b.episodes(), OPS),
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn channel_receiver_always_wakes() {
    // Threads 0 and 1 each take a sender and send; thread 2 receives
    // all of it, then sees the channel close.
    type Chan = (PdcMutex<[Option<PdcSender<u64>>; 2]>, PdcReceiver<u64>);
    run(
        "channel",
        || -> Chan {
            let (tx, rx) = channel();
            (PdcMutex::new([Some(tx.clone()), Some(tx)]), rx)
        },
        |(senders, rx), rng, i| {
            if i == 2 {
                for _ in 0..2 * OPS {
                    rx.recv().expect("a sender is still alive");
                    rng.pause();
                }
                assert!(rx.recv().is_err(), "both senders are gone");
                return;
            }
            let tx = senders.lock()[i as usize].take().unwrap();
            for v in 0..OPS {
                tx.send(v).unwrap();
                rng.pause();
            }
        },
        |(_, rx)| assert_eq!(rx.sent_count(), 2 * OPS),
    );
}
