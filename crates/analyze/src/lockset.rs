//! Eraser-style lockset checking — the second, independent verdict on
//! shared-variable discipline.
//!
//! Where the happens-before detector asks "were these two accesses
//! ordered?", the lockset checker asks the stronger *policy* question:
//! "is there one lock that protects every access to this variable?".
//! Each variable moves through the Eraser state machine — virgin →
//! exclusive (single owner) → shared / shared-modified — and once
//! shared, its *candidate set* is intersected with the locks the
//! accessing thread holds. An empty candidate set in shared-modified
//! state is a violation: no consistent lock discipline exists, even if
//! this particular schedule never raced.
//!
//! Only real lock modes participate in the candidate sets
//! ([`SYNC_SHARED`] / [`SYNC_EXCLUSIVE`]); pulse-style synchronisation
//! (semaphores, barriers, condvars) establishes ordering, not
//! ownership. Pure Eraser, however, flags the classic false positive:
//! an ad-hoc hand-off protocol ("I write, *then* release a semaphore;
//! you acquire it, *then* write") is perfectly disciplined yet holds no
//! common lock. So this checker keeps its own vector clocks
//! (`vc::Clocks`) that follow every [`crate::deps::Edges`] hand-off edge
//! *except* real lock traffic, and when a variable in the exclusive
//! state is touched by a new thread whose clock already dominates the
//! old owner's last access, *ownership transfers* instead of degrading
//! to shared. Real lock edges deliberately do not feed the clocks:
//! they are the very discipline under test, and using them would
//! launder ordinary unlocked sharing whenever a schedule happened to
//! serialise it.
//!
//! [`SYNC_SHARED`]: pdc_core::trace::SYNC_SHARED
//! [`SYNC_EXCLUSIVE`]: pdc_core::trace::SYNC_EXCLUSIVE

use crate::report::{Defect, DefectKind};
use crate::vc::{Clocks, Epoch};
use pdc_core::trace::{Event, EventKind, SYNC_PULSE};
use std::collections::HashMap;

/// A set of lock sites as a small sorted `Vec`: a thread holds a
/// handful of locks at most, so a search beats a tree, and a candidate
/// set shrinks in place.
type Locks = Vec<u64>;

#[derive(Debug, Clone, PartialEq)]
enum VarPhase {
    Virgin,
    /// Single owner so far; the epoch is the owner's clock at its most
    /// recent access (for hand-off checks), and the candidate set is
    /// already being refined from the first access (Eraser initialises
    /// C(v) to the locks held then), but emptiness is not yet a
    /// violation.
    Exclusive(Epoch, Locks),
    Shared(Locks),
    SharedModified(Locks),
}

#[derive(Debug)]
struct VarState {
    phase: VarPhase,
    reported: bool,
}

/// The checker: feed ts-sorted events, then take the violations.
#[derive(Debug, Default)]
pub struct Lockset {
    /// Locks currently held per actor, sorted (a set, not a multiset:
    /// the pdc primitives are non-reentrant).
    held: HashMap<u32, Locks>,
    /// Hand-off clocks: advanced by every edge except real lock
    /// traffic.
    clocks: Clocks,
    vars: HashMap<u64, VarState>,
    violations: Vec<Defect>,
}

impl Lockset {
    /// Fresh checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Process one event.
    pub fn step(&mut self, e: &Event) {
        match e.kind {
            EventKind::Acquire if e.b != SYNC_PULSE => {
                let held = self.held.entry(e.actor).or_default();
                if let Err(i) = held.binary_search(&e.a) {
                    held.insert(i, e.a);
                }
            }
            EventKind::Release if e.b != SYNC_PULSE => {
                if let Some(held) = self.held.get_mut(&e.actor) {
                    if let Ok(i) = held.binary_search(&e.a) {
                        held.remove(i);
                    }
                }
            }
            EventKind::Read => self.access(e.actor, e.a, false),
            EventKind::Write => self.access(e.actor, e.a, true),
            _ => self.clocks.sync(e),
        }
    }

    fn access(&mut self, actor: u32, var: u64, is_write: bool) {
        let held: &[u64] = self.held.get(&actor).map_or(&[], Vec::as_slice);
        let clock = self.clocks.of(actor);
        let epoch = Epoch::of(actor, clock);
        let vs = self.vars.entry(var).or_insert(VarState {
            phase: VarPhase::Virgin,
            reported: false,
        });
        // Eraser's refinement C(v) := C(v) ∩ held, in place.
        let refine = |c: &mut Locks| c.retain(|l| held.binary_search(l).is_ok());
        match &mut vs.phase {
            VarPhase::Virgin => vs.phase = VarPhase::Exclusive(epoch, held.to_vec()),
            VarPhase::Exclusive(e, c) if e.actor == actor || e.happens_before(clock) => {
                // The owner again, or a hand-off: the previous owner's
                // last access is already ordered before us through a
                // pulse / condvar / fork / channel / message edge, so
                // this is a clean ownership transfer, not sharing.
                // Candidate refinement continues.
                *e = epoch;
                refine(c);
            }
            VarPhase::Exclusive(_, c) => {
                // Second thread arrives concurrently: refinement
                // continues from the first owner's candidates.
                let mut c = std::mem::take(c);
                refine(&mut c);
                vs.phase = if is_write {
                    VarPhase::SharedModified(c)
                } else {
                    VarPhase::Shared(c)
                };
            }
            VarPhase::Shared(c) => {
                refine(c);
                if is_write {
                    vs.phase = VarPhase::SharedModified(std::mem::take(c));
                }
            }
            VarPhase::SharedModified(c) => refine(c),
        }
        let violation = matches!(&vs.phase, VarPhase::SharedModified(c) if c.is_empty());
        if violation && !vs.reported {
            vs.reported = true;
            self.violations.push(Defect {
                kind: DefectKind::LocksetViolation,
                sites: held.to_vec(),
                var: Some(var),
                actors: vec![actor],
                detail: format!(
                    "var {var} is written by multiple threads with no common lock \
                     (candidate lockset became empty at actor {actor})"
                ),
            });
        }
    }

    /// All violations found, in detection order.
    pub fn into_violations(self) -> Vec<Defect> {
        self.violations
    }
}

/// Run the checker over a full event stream (assumed ts-sorted).
pub fn detect_lockset_violations(events: &[Event]) -> Vec<Defect> {
    let mut l = Lockset::new();
    for e in events {
        l.step(e);
    }
    l.into_violations()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_core::trace::{SYNC_EXCLUSIVE, SYNC_SHARED};

    fn ev(ts: u64, actor: u32, kind: EventKind, a: u64, b: u64) -> Event {
        Event {
            ts,
            actor,
            kind,
            a,
            b,
        }
    }

    const L: u64 = 100;
    const V: u64 = 7;

    #[test]
    fn single_owner_never_violates() {
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Read, V, 0),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unlocked_multi_writer_violates_once() {
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 1, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Write, V, 0),
        ]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].var, Some(V));
        assert_eq!(v[0].kind, DefectKind::LocksetViolation);
    }

    #[test]
    fn consistent_lock_keeps_candidates() {
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Acquire, L, SYNC_EXCLUSIVE),
            ev(2, 0, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Release, L, SYNC_EXCLUSIVE),
            ev(4, 1, EventKind::Acquire, L, SYNC_EXCLUSIVE),
            ev(5, 1, EventKind::Write, V, 0),
            ev(6, 1, EventKind::Release, L, SYNC_EXCLUSIVE),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn inconsistent_locks_violate() {
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Acquire, L, SYNC_EXCLUSIVE),
            ev(2, 0, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Release, L, SYNC_EXCLUSIVE),
            ev(4, 1, EventKind::Acquire, L + 1, SYNC_EXCLUSIVE),
            ev(5, 1, EventKind::Write, V, 0),
            ev(6, 1, EventKind::Release, L + 1, SYNC_EXCLUSIVE),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn read_shared_data_behind_rwlock_is_clean() {
        // Two readers under the shared side, writer under exclusive:
        // the rwlock site is in every access's held set.
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Acquire, L, SYNC_EXCLUSIVE),
            ev(2, 0, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Release, L, SYNC_EXCLUSIVE),
            ev(4, 1, EventKind::Acquire, L, SYNC_SHARED),
            ev(5, 1, EventKind::Read, V, 0),
            ev(6, 1, EventKind::Release, L, SYNC_SHARED),
            ev(7, 2, EventKind::Acquire, L, SYNC_SHARED),
            ev(8, 2, EventKind::Read, V, 0),
            ev(9, 2, EventKind::Release, L, SYNC_SHARED),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn read_only_sharing_never_violates() {
        // Initialise then read everywhere — Shared, never SharedModified.
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 1, EventKind::Read, V, 0),
            ev(3, 2, EventKind::Read, V, 0),
            ev(4, 3, EventKind::Read, V, 0),
        ]);
        assert!(
            v.is_empty(),
            "read-only sharing after init is the Eraser exemption"
        );
    }

    #[test]
    fn pulse_sites_do_not_count_as_protection() {
        // Both threads wrap their writes in pulse traffic on the same
        // site, but the writes are concurrent (thread 1 writes before
        // thread 0's release publishes anything): pulses must not land
        // in the held set, so the candidate set still empties.
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Acquire, L, SYNC_PULSE),
            ev(2, 0, EventKind::Write, V, 0),
            ev(3, 1, EventKind::Acquire, L, SYNC_PULSE),
            ev(4, 1, EventKind::Write, V, 0),
            ev(5, 0, EventKind::Release, L, SYNC_PULSE),
            ev(6, 1, EventKind::Release, L, SYNC_PULSE),
        ]);
        assert_eq!(v.len(), 1, "semaphores are not ownership: {v:?}");
    }

    #[test]
    fn semaphore_handoff_transfers_ownership() {
        // The ad-hoc hand-off protocol: write, release the semaphore;
        // the other side acquires, then writes. No common lock, but the
        // accesses are fully ordered through the pulse edge — clean.
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::Release, L, SYNC_PULSE),
            ev(3, 1, EventKind::Acquire, L, SYNC_PULSE),
            ev(4, 1, EventKind::Write, V, 0),
            ev(5, 1, EventKind::Write, V, 0),
        ]);
        assert!(v.is_empty(), "hand-off is ownership transfer: {v:?}");
    }

    #[test]
    fn condvar_handoff_transfers_ownership() {
        // Same shape through a condition variable's signal/wait edge.
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::Signal, L, 1),
            ev(3, 1, EventKind::Wait, L, 2),
            ev(4, 1, EventKind::Write, V, 0),
        ]);
        assert!(v.is_empty(), "signal/wait is ownership transfer: {v:?}");
    }

    #[test]
    fn channel_handoff_transfers_ownership() {
        // Same shape through a channel: the k-th chan_recv adopts the
        // k-th chan_send.
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::ChanSend, L, 0),
            ev(3, 1, EventKind::ChanRecv, L, 0),
            ev(4, 1, EventKind::Read, V, 0),
            ev(5, 1, EventKind::Write, V, 0),
        ]);
        assert!(v.is_empty(), "send/recv is ownership transfer: {v:?}");
    }

    #[test]
    fn fork_join_transfers_ownership() {
        const H: u64 = 200;
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::Fork, H, 0),
            ev(3, 1, EventKind::Join, H, 0),
            ev(4, 1, EventKind::Write, V, 0),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn handoff_does_not_launder_concurrent_access() {
        // Thread 1 already wrote concurrently *before* adopting the
        // hand-off edge: the variable is shared-modified for real, and
        // the late acquire must not undo that.
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 1, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Release, L, SYNC_PULSE),
            ev(4, 1, EventKind::Acquire, L, SYNC_PULSE),
            ev(5, 1, EventKind::Write, V, 0),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn real_lock_edges_do_not_transfer_ownership() {
        // Thread 1 cycles the lock (creating a schedule-order edge in
        // happens-before terms) but writes *outside* it. Lock traffic is
        // the discipline under test, so it must not feed the hand-off
        // tracker: this still violates.
        let v = detect_lockset_violations(&[
            ev(1, 0, EventKind::Acquire, L, SYNC_EXCLUSIVE),
            ev(2, 0, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Release, L, SYNC_EXCLUSIVE),
            ev(4, 1, EventKind::Acquire, L, SYNC_EXCLUSIVE),
            ev(5, 1, EventKind::Release, L, SYNC_EXCLUSIVE),
            ev(6, 1, EventKind::Write, V, 0),
        ]);
        assert_eq!(v.len(), 1, "lock edges are not hand-offs: {v:?}");
    }
}
