//! Known-defect and known-clean executions used to validate the
//! analyzers against themselves — the detector's own unit of trust.
//!
//! Each fixture runs *real* code (real threads, real pdc-sync
//! primitives, the deterministic philosophers simulator) under a
//! [`TraceSession`] and returns the session for analysis. CI asserts
//! soundness in both directions: the racy/deadlocky fixtures MUST be
//! flagged, and the correctly synchronised variants MUST come back
//! clean.

use pdc_core::trace::{self, TraceSession};
use pdc_sync::problems::{lucky_sequential_schedule, simulate_traced, Strategy, TracedSim};
use pdc_sync::{channel, PdcCondvar, PdcMutex, Semaphore};
use std::sync::atomic::{AtomicU64, Ordering};

/// How many increments each fixture thread performs.
pub const FIXTURE_ITERS: u64 = 100;

/// A counter incremented by two threads with NO synchronisation: the
/// canonical data race. The atomic is only there so the Rust program
/// itself is defined; the *trace* records plain reads and writes with
/// no lock held and no happens-before edge, which is exactly the bug a
/// `static mut` counter would have.
pub fn racy_counter_session() -> TraceSession {
    let session = TraceSession::new();
    let counter = AtomicU64::new(0);
    let var = trace::next_site_id();
    std::thread::scope(|s| {
        for t in 0..2u32 {
            let session = &session;
            let counter = &counter;
            s.spawn(move || {
                trace::install_sync_trace(session.thread(t));
                for _ in 0..FIXTURE_ITERS {
                    trace::record_var_read(var);
                    let v = counter.load(Ordering::Relaxed);
                    trace::record_var_write(var);
                    counter.store(v + 1, Ordering::Relaxed);
                }
                trace::clear_sync_trace();
            });
        }
    });
    session
}

/// The same two-thread counter, fixed the way the sync unit teaches:
/// every access inside a [`PdcMutex`] critical section. Both detectors
/// must report this clean — the mutex site orders the accesses (HB)
/// and is the common candidate lock (lockset).
pub fn fixed_counter_session() -> TraceSession {
    let session = TraceSession::new();
    let counter = PdcMutex::new(0u64);
    let var = trace::next_site_id();
    std::thread::scope(|s| {
        for t in 0..2u32 {
            let session = &session;
            let counter = &counter;
            s.spawn(move || {
                trace::install_sync_trace(session.thread(t));
                for _ in 0..FIXTURE_ITERS {
                    let mut g = counter.lock();
                    trace::record_var_read(var);
                    let v = *g;
                    trace::record_var_write(var);
                    *g = v + 1;
                }
                trace::clear_sync_trace();
            });
        }
    });
    session
}

/// The ad-hoc semaphore hand-off protocol: the producer writes the
/// slot and releases a semaphore; the consumer acquires the semaphore
/// and then reads and rewrites the slot. No lock is ever held, yet the
/// accesses are fully ordered through the permit's pulse edge — both
/// detectors must report this clean (the lockset checker via ownership
/// transfer along the hand-off edge, not via any candidate lock).
pub fn semaphore_handoff_session() -> TraceSession {
    let session = TraceSession::new();
    let slot = AtomicU64::new(0);
    let handoff = Semaphore::new(0);
    let var = trace::next_site_id();
    std::thread::scope(|s| {
        let (session, slot, handoff) = (&session, &slot, &handoff);
        s.spawn(move || {
            trace::install_sync_trace(session.thread(0));
            trace::record_var_write(var);
            slot.store(41, Ordering::Relaxed);
            handoff.release();
            trace::clear_sync_trace();
        });
        s.spawn(move || {
            trace::install_sync_trace(session.thread(1));
            handoff.acquire();
            trace::record_var_read(var);
            let v = slot.load(Ordering::Relaxed);
            trace::record_var_write(var);
            slot.store(v + 1, Ordering::Relaxed);
            trace::clear_sync_trace();
        });
    });
    session
}

/// The same hand-off over a [`channel()`]: the producer writes the slot
/// and sends; the consumer receives and then reads and rewrites the
/// slot. The channel's send → receive edge orders the accesses, so both
/// detectors must report this clean, like the semaphore hand-off.
pub fn channel_handoff_session() -> TraceSession {
    let session = TraceSession::new();
    let slot = AtomicU64::new(0);
    let (tx, rx) = channel::<()>();
    let var = trace::next_site_id();
    std::thread::scope(|s| {
        let (session, slot) = (&session, &slot);
        s.spawn(move || {
            trace::install_sync_trace(session.thread(0));
            trace::record_var_write(var);
            slot.store(41, Ordering::Relaxed);
            tx.send(()).expect("the receiver outlives the send");
            trace::clear_sync_trace();
        });
        s.spawn(move || {
            trace::install_sync_trace(session.thread(1));
            rx.recv().expect("the sender sends before hanging up");
            trace::record_var_read(var);
            let v = slot.load(Ordering::Relaxed);
            trace::record_var_write(var);
            slot.store(v + 1, Ordering::Relaxed);
            trace::clear_sync_trace();
        });
    });
    session
}

/// A misused condition variable: the consumer *peeks* at the shared
/// slot before taking the mutex and waiting, so that first read has no
/// incoming happens-before edge from the producer's write — a true
/// data race the HB detector must flag in every schedule (whichever of
/// the peek and the write lands first in the trace, the pair is
/// unordered). The post-wait read is correctly synchronised via the
/// signal/wait edge.
pub fn misused_condvar_session() -> TraceSession {
    let session = TraceSession::new();
    let ready = PdcMutex::new(false);
    let cv = PdcCondvar::new();
    let slot = AtomicU64::new(0);
    let var = trace::next_site_id();
    std::thread::scope(|s| {
        let (session, ready, cv, slot) = (&session, &ready, &cv, &slot);
        s.spawn(move || {
            trace::install_sync_trace(session.thread(0));
            trace::record_var_write(var);
            slot.store(42, Ordering::Relaxed);
            *ready.lock() = true;
            cv.notify_one();
            trace::clear_sync_trace();
        });
        s.spawn(move || {
            trace::install_sync_trace(session.thread(1));
            // BUG: check the slot before synchronising.
            trace::record_var_read(var);
            let _peek = slot.load(Ordering::Relaxed);
            let g = ready.lock();
            let g = cv.wait_while(g, |&r| !r);
            drop(g);
            trace::record_var_read(var);
            let _v = slot.load(Ordering::Relaxed);
            trace::clear_sync_trace();
        });
    });
    session
}

/// Dining philosophers, naive left-then-right strategy, run under a
/// *lucky* sequential schedule so the simulation completes — yet the
/// cyclic fork-acquisition order is fully present in the trace, and
/// the lock-order analysis must still predict the deadlock. This is
/// the "strictly stronger than runtime detection" demonstration.
pub fn deadlocky_philosophers_session(n: usize) -> (TraceSession, TracedSim) {
    let session = TraceSession::new();
    let schedule = lucky_sequential_schedule(n, 1);
    let sim = simulate_traced(Strategy::Naive, n, 1, &schedule, 10_000, &session);
    (session, sim)
}

/// Philosophers with global resource ordering (lower fork first): the
/// acquisition graph is acyclic, so the analysis must report clean.
pub fn ordered_philosophers_session(n: usize) -> (TraceSession, TracedSim) {
    let session = TraceSession::new();
    let schedule = lucky_sequential_schedule(n, 1);
    let sim = simulate_traced(Strategy::Ordered, n, 1, &schedule, 10_000, &session);
    (session, sim)
}

/// Philosophers with an arbitrator (room semaphore admitting n-1): the
/// raw fork order is still cyclic, but every nested acquisition
/// happens inside the room pulse — the cycle must be gate-suppressed
/// into `gated_cycles`, not reported as a defect.
pub fn arbitrator_philosophers_session(n: usize) -> (TraceSession, TracedSim) {
    let session = TraceSession::new();
    let schedule = lucky_sequential_schedule(n, 1);
    let sim = simulate_traced(Strategy::Arbitrator, n, 1, &schedule, 10_000, &session);
    (session, sim)
}

/// A synthetic two-rank MPI trace with three classic bugs: rank 0
/// sends a message nobody receives, the ranks enter their collectives
/// in different orders, and rank 1 never leaves its last collective.
/// (Synthetic rather than a live `pdc_mpi::World` run because a real
/// collective-order mismatch would deadlock the fixture.)
pub fn mpi_mismatch_session() -> TraceSession {
    use pdc_core::trace::EventKind;
    let session = TraceSession::new();
    let r0 = session.thread(0);
    let r1 = session.thread(1);
    // Rank 0: lost message, then barrier (coll 0) before reduce (coll 2).
    r0.record(EventKind::Send, 1, 64);
    r0.record(EventKind::CollBegin, 0, 0);
    r0.record(EventKind::CollEnd, 0, 0);
    r0.record(EventKind::CollBegin, 2, 1);
    r0.record(EventKind::CollEnd, 2, 1);
    // Rank 1: reduce before barrier, and the barrier never completes.
    r1.record(EventKind::CollBegin, 2, 0);
    r1.record(EventKind::CollEnd, 2, 0);
    r1.record(EventKind::CollBegin, 0, 1);
    session
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_core::trace::EventKind;

    #[test]
    fn racy_fixture_records_unsynchronized_accesses() {
        let s = racy_counter_session();
        let evs = s.events();
        let reads = evs.iter().filter(|e| e.kind == EventKind::Read).count();
        let writes = evs.iter().filter(|e| e.kind == EventKind::Write).count();
        assert_eq!(reads as u64, 2 * FIXTURE_ITERS);
        assert_eq!(writes as u64, 2 * FIXTURE_ITERS);
        assert!(
            !evs.iter()
                .any(|e| matches!(e.kind, EventKind::Acquire | EventKind::Release)),
            "the racy fixture must hold no locks"
        );
    }

    #[test]
    fn fixed_fixture_brackets_every_access_with_the_mutex() {
        let s = fixed_counter_session();
        let evs = s.events();
        let acquires = evs.iter().filter(|e| e.kind == EventKind::Acquire).count();
        assert_eq!(acquires as u64, 2 * FIXTURE_ITERS);
        assert_eq!(s.dropped(), 0, "fixture must fit the trace buffers");
    }

    #[test]
    fn deadlocky_fixture_completes_yet_is_cyclic() {
        let (s, sim) = deadlocky_philosophers_session(5);
        assert!(
            !sim.outcome.deadlocked,
            "the lucky schedule must complete — prediction, not observation"
        );
        assert!(sim.outcome.meals.iter().all(|&m| m == 1));
        assert_eq!(sim.fork_sites.len(), 5);
        assert!(!s.events().is_empty());
    }

    #[test]
    fn mpi_fixture_contains_all_three_bugs() {
        let evs = mpi_mismatch_session().events();
        assert_eq!(evs.iter().filter(|e| e.kind == EventKind::Send).count(), 1);
        assert_eq!(evs.iter().filter(|e| e.kind == EventKind::Recv).count(), 0);
        let begins = evs
            .iter()
            .filter(|e| e.kind == EventKind::CollBegin)
            .count();
        let ends = evs.iter().filter(|e| e.kind == EventKind::CollEnd).count();
        assert_eq!(begins, 4);
        assert_eq!(ends, 3);
    }
}
