//! Happens-before data-race detection in the FastTrack style.
//!
//! Replays a `pdc-trace/2` event stream, keeping one vector clock per
//! actor (`vc::Clocks`) and advancing it along every happens-before edge
//! of [`crate::deps::Edges`]: release → acquire on a site in any mode
//! (locks, rwlock sides, pulses), signal → wait, fork → join, and FIFO
//! channel and message pairing.
//!
//! Variable accesses (`read`/`write`) are then checked against the
//! clocks: a `write` must dominate the previous write epoch *and* all
//! reads since; a `read` must dominate the previous write epoch. Like
//! FastTrack, the same-actor total order makes these O(1) epoch
//! comparisons in the common case, with the full read vector kept only
//! after genuinely concurrent readers appear.

use crate::report::{Defect, DefectKind};
use crate::vc::{Clocks, Epoch, VectorClock};
use pdc_core::trace::{Event, EventKind};
use std::collections::HashMap;

/// Read history for one variable: one epoch while totally ordered,
/// promoted to a full clock after concurrent readers.
#[derive(Debug, Clone)]
enum Reads {
    None,
    One(Epoch),
    Many(VectorClock),
}

#[derive(Debug)]
struct VarState {
    write: Option<Epoch>,
    reads: Reads,
    /// Race already reported for this variable (report once per var).
    reported: bool,
}

impl VarState {
    fn new() -> Self {
        VarState {
            write: None,
            reads: Reads::None,
            reported: false,
        }
    }
}

/// The detector: feed events in logical-timestamp order, collect races.
#[derive(Default)]
pub struct HbDetector {
    clocks: Clocks,
    vars: HashMap<u64, VarState>,
    races: Vec<Defect>,
}

impl HbDetector {
    /// A fresh detector with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Process one event. Events must arrive sorted by logical
    /// timestamp (the `TraceSession::events()` order).
    pub fn step(&mut self, e: &Event) {
        match e.kind {
            EventKind::Read => self.check_read(e.actor, e.a),
            EventKind::Write => self.check_write(e.actor, e.a),
            _ => self.clocks.sync(e),
        }
    }

    fn check_read(&mut self, actor: u32, var: u64) {
        let ct = self.clocks.of(actor);
        let epoch = Epoch::of(actor, ct);
        let mut defect = None;
        let vs = self.vars.entry(var).or_insert_with(VarState::new);
        let racy = matches!(vs.write, Some(w) if w.actor != actor && !w.happens_before(ct));
        if racy {
            if !vs.reported {
                vs.reported = true;
                let w = vs.write.expect("racy implies a prior write");
                defect = Some(race(var, w.actor, actor, "write-read"));
            }
        } else {
            match &mut vs.reads {
                Reads::None => vs.reads = Reads::One(epoch),
                Reads::One(prev) => {
                    if prev.actor == actor || prev.happens_before(ct) {
                        // Still totally ordered: the new read supersedes.
                        vs.reads = Reads::One(epoch);
                    } else {
                        // Concurrent readers (fine in itself): keep both.
                        let mut vc = VectorClock::new();
                        vc.set(prev.actor, prev.clock);
                        vc.set(actor, epoch.clock);
                        vs.reads = Reads::Many(vc);
                    }
                }
                Reads::Many(vc) => vc.set(actor, epoch.clock),
            }
        }
        if let Some(d) = defect {
            self.races.push(d);
        }
    }

    fn check_write(&mut self, actor: u32, var: u64) {
        let ct = self.clocks.of(actor);
        let vs = self.vars.entry(var).or_insert_with(VarState::new);
        let mut racy_with: Option<(u32, &'static str)> = None;
        if let Some(w) = vs.write {
            if w.actor != actor && !w.happens_before(ct) {
                racy_with = Some((w.actor, "write-write"));
            }
        }
        if racy_with.is_none() {
            match &vs.reads {
                Reads::None => {}
                Reads::One(r) => {
                    if r.actor != actor && !r.happens_before(ct) {
                        racy_with = Some((r.actor, "read-write"));
                    }
                }
                Reads::Many(rv) => {
                    for (ra, rc) in rv.iter() {
                        let r = Epoch {
                            actor: ra,
                            clock: rc,
                        };
                        if ra != actor && !r.happens_before(ct) {
                            racy_with = Some((ra, "read-write"));
                            break;
                        }
                    }
                }
            }
        }
        let mut defect = None;
        if let Some((other, flavor)) = racy_with {
            if !vs.reported {
                vs.reported = true;
                defect = Some(race(var, other, actor, flavor));
            }
        }
        vs.write = Some(Epoch::of(actor, ct));
        vs.reads = Reads::None;
        if let Some(d) = defect {
            self.races.push(d);
        }
    }

    /// All data races found so far, in detection order.
    pub fn into_races(self) -> Vec<Defect> {
        self.races
    }
}

fn race(var: u64, first: u32, second: u32, flavor: &str) -> Defect {
    Defect {
        kind: DefectKind::DataRace,
        sites: Vec::new(),
        var: Some(var),
        actors: vec![first, second],
        detail: format!(
            "{flavor} race on var {var}: actors {first} and {second} access it with no happens-before edge"
        ),
    }
}

/// Run the detector over a full event stream (assumed ts-sorted).
pub fn detect_races(events: &[Event]) -> Vec<Defect> {
    let mut d = HbDetector::new();
    for e in events {
        d.step(e);
    }
    d.into_races()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, actor: u32, kind: EventKind, a: u64, b: u64) -> Event {
        Event {
            ts,
            actor,
            kind,
            a,
            b,
        }
    }

    const L: u64 = 100; // a lock site
    const V: u64 = 7; // a variable

    #[test]
    fn unsynchronized_write_write_is_a_race() {
        let races = detect_races(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 1, EventKind::Write, V, 0),
        ]);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].var, Some(V));
        assert_eq!(races[0].actors, vec![0, 1]);
        assert!(races[0].detail.contains("write-write"));
    }

    #[test]
    fn lock_protected_writes_are_ordered() {
        let races = detect_races(&[
            ev(1, 0, EventKind::Acquire, L, 1),
            ev(2, 0, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Release, L, 1),
            ev(4, 1, EventKind::Acquire, L, 1),
            ev(5, 1, EventKind::Write, V, 0),
            ev(6, 1, EventKind::Release, L, 1),
        ]);
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn different_locks_do_not_order() {
        let races = detect_races(&[
            ev(1, 0, EventKind::Acquire, L, 1),
            ev(2, 0, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Release, L, 1),
            ev(4, 1, EventKind::Acquire, L + 1, 1),
            ev(5, 1, EventKind::Write, V, 0),
            ev(6, 1, EventKind::Release, L + 1, 1),
        ]);
        assert_eq!(races.len(), 1, "distinct locks give no edge");
    }

    #[test]
    fn concurrent_reads_are_not_a_race_but_later_write_is() {
        let races = detect_races(&[
            ev(1, 0, EventKind::Read, V, 0),
            ev(2, 1, EventKind::Read, V, 0),
            ev(3, 2, EventKind::Read, V, 0),
        ]);
        assert!(races.is_empty(), "reads never race with reads");
        let races = detect_races(&[
            ev(1, 0, EventKind::Read, V, 0),
            ev(2, 1, EventKind::Read, V, 0),
            ev(3, 2, EventKind::Write, V, 0),
        ]);
        assert_eq!(races.len(), 1);
        assert!(races[0].detail.contains("read-write"));
    }

    #[test]
    fn fork_join_orders_child_against_parent() {
        const H: u64 = 200;
        let races = detect_races(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::Fork, H, 0),
            ev(3, 1, EventKind::Join, H, 0),
            ev(4, 1, EventKind::Write, V, 0),
        ]);
        assert!(races.is_empty(), "{races:?}");
        // Without the join the same accesses race.
        let races = detect_races(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::Fork, H, 0),
            ev(4, 1, EventKind::Write, V, 0),
        ]);
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn message_edges_order_sender_before_receiver() {
        let races = detect_races(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::Send, 1, 8),
            ev(3, 1, EventKind::Recv, 0, 8),
            ev(4, 1, EventKind::Write, V, 0),
        ]);
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn fifo_matching_pairs_sends_in_order() {
        // Two sends, one recv: the recv adopts the FIRST send's history,
        // so a write after the second send still races.
        let races = detect_races(&[
            ev(1, 0, EventKind::Send, 1, 8),
            ev(2, 0, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Send, 1, 8),
            ev(4, 1, EventKind::Recv, 0, 8),
            ev(5, 1, EventKind::Write, V, 0),
        ]);
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn channel_edges_pair_fifo_per_channel() {
        // Sender publishes, receiver adopts: the write handoff through
        // the channel is ordered even though the actors never share a
        // lock — and the pairing is by channel id, not actor pair.
        let races = detect_races(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::ChanSend, L, 0),
            ev(3, 1, EventKind::ChanRecv, L, 0),
            ev(4, 1, EventKind::Write, V, 0),
        ]);
        assert!(races.is_empty(), "{races:?}");
        // A recv on a *different* channel adopts nothing: still a race.
        let races = detect_races(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::ChanSend, L, 0),
            ev(3, 1, EventKind::ChanRecv, L + 1, 0),
            ev(4, 1, EventKind::Write, V, 0),
        ]);
        assert_eq!(races.len(), 1, "{races:?}");
    }

    #[test]
    fn chan_fifo_matches_nth_recv_to_nth_send() {
        // Second recv adopts the second send's history, so the write
        // between the sends is ordered before it.
        let races = detect_races(&[
            ev(1, 0, EventKind::ChanSend, L, 0),
            ev(2, 0, EventKind::Write, V, 0),
            ev(3, 0, EventKind::ChanSend, L, 1),
            ev(4, 1, EventKind::ChanRecv, L, 0),
            ev(5, 1, EventKind::ChanRecv, L, 1),
            ev(6, 1, EventKind::Write, V, 0),
        ]);
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn pulse_release_acquire_transfers_history() {
        // Semaphore-style: release by 0, acquire by 1 (mode 2).
        let races = detect_races(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::Release, L, 2),
            ev(3, 1, EventKind::Acquire, L, 2),
            ev(4, 1, EventKind::Write, V, 0),
        ]);
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn signal_wait_transfers_history() {
        // Condvar-style: writer signals after publishing, waiter's wait
        // edge (recorded post-wakeup) adopts the writer's history.
        let races = detect_races(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 0, EventKind::Signal, L, 1),
            ev(3, 1, EventKind::Wait, L, 1),
            ev(4, 1, EventKind::Write, V, 0),
        ]);
        assert!(races.is_empty(), "{races:?}");
        // A read *before* the wait edge is still unordered: the misused
        // condvar keeps racing.
        let races = detect_races(&[
            ev(1, 1, EventKind::Read, V, 0),
            ev(2, 0, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Signal, L, 1),
            ev(4, 1, EventKind::Wait, L, 1),
        ]);
        assert_eq!(races.len(), 1, "pre-wait access has no incoming edge");
    }

    #[test]
    fn each_variable_reports_at_most_once() {
        let races = detect_races(&[
            ev(1, 0, EventKind::Write, V, 0),
            ev(2, 1, EventKind::Write, V, 0),
            ev(3, 0, EventKind::Write, V, 0),
            ev(4, 1, EventKind::Write, V, 0),
        ]);
        assert_eq!(races.len(), 1, "one defect per racy variable");
    }
}
