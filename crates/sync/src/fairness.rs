//! Wake-order policies for the wake-one queues of [`crate::hooks`].
//!
//! POSIX leaves *which* waiter a release/notify wakes unspecified;
//! student code that accidentally depends on FIFO hand-off is correct
//! on Linux and broken on a different allocator of wakeups. Making the
//! policy explicit turns that nondeterminism into something a course
//! (and the `pdc-check` explorer) can vary on purpose:
//!
//! * [`Fairness::Fifo`] — wake the longest waiter (starvation-free,
//!   the default);
//! * [`Fairness::Adversarial`] — under a `pdc-check` exploration the
//!   wake target becomes a first-class choice point
//!   ([`crate::hooks::wake_order`]), so the checker explores *every*
//!   wake order; outside a checker it behaves like FIFO.

use crate::hooks;

/// Which queued waiter a release-style wake picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fairness {
    /// Wake the oldest waiter (starvation-free).
    #[default]
    Fifo,
    /// Let the checker choose among all waiters (FIFO unchecked).
    Adversarial,
}

impl Fairness {
    /// Which of `n >= 1` queued waiters, oldest first, this policy wakes.
    pub(crate) fn pick(self, n: usize) -> usize {
        match self {
            Fairness::Fifo => 0,
            Fairness::Adversarial => hooks::wake_order(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_pick_the_oldest_waiter_unchecked() {
        assert_eq!(Fairness::Fifo.pick(4), 0);
        // Unchecked adversarial degrades to FIFO (wake_order returns 0).
        assert_eq!(Fairness::Adversarial.pick(4), 0);
    }
}
