//! The one way a thread of a checked schedule waits.
//!
//! A checked task waiting for its grant, an idle pool worker waiting
//! for its next job, and the exploring thread waiting at the teardown
//! barrier all call [`wait_until`]. The waiter polls its condition,
//! calling `yield_now` between polls, for [`POLL_ROUNDS`] rounds; only
//! then does it park. The waker's side is to make the condition true
//! and then call `Thread::unpark` on the waiter. That call makes a
//! system call only when the waiter has actually parked. A
//! schedule's hand-offs are a few microseconds apart, so a waiter is
//! usually still polling when its grant arrives, and no kernel wake-up
//! is paid on it.
//!
//! No wake-up is lost: the waker sets the condition before it unparks,
//! and the waiter checks the condition before every park. An unpark
//! that lands between that check and the park leaves the thread's
//! token set, so the park returns at once. A spurious or stale unpark
//! costs one more check.

use std::thread;
use std::time::Instant;

/// `yield_now` polls before a waiter parks. Not a tuning knob: with
/// 100, 300 and 1000 rounds the `check` benchmark read overlapping
/// ranges on a 2-vCPU VM. A schedule's waiters outnumber the CPUs, and
/// a waiter that spins holds a CPU the baton holder needs: polling with
/// `spin_loop` and a yield only every 64 iterations measured slower
/// there.
const POLL_ROUNDS: u32 = 300;

/// Wait until `ready()` holds, polling and then parking. With a
/// `deadline`, give up once it passes. Returns whether `ready()` held.
///
/// Whoever makes `ready()` true must unpark this thread afterwards;
/// `ready()` must stay true until this thread has seen it.
pub(crate) fn wait_until(ready: impl Fn() -> bool, deadline: Option<Instant>) -> bool {
    for _ in 0..POLL_ROUNDS {
        if ready() {
            return true;
        }
        thread::yield_now();
    }
    loop {
        if ready() {
            return true;
        }
        match deadline {
            None => thread::park(),
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    return false;
                }
                thread::park_timeout(deadline - now);
            }
        }
    }
}
