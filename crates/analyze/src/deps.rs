//! Per-event dependence queries and the happens-before edges built on
//! them: which trace events *conflict*, i.e. cannot be reordered
//! without possibly changing the behaviour of the execution, and which
//! earlier events a synchronising event is ordered after.
//!
//! The verdict pipeline ([`crate::analyze_events`]) answers "was this
//! schedule correct?"; this module exposes the underlying relations as
//! reusable primitives, so every tool that reasons about ordering
//! shares one definition instead of re-deriving its own:
//!
//! * [`Edges`] owns the cross-actor happens-before rules. The race
//!   detector ([`crate::hb`]) and the lockset hand-off tracker
//!   ([`crate::lockset`]) run them over vector clocks through
//!   `vc::Clocks`; the span profiler ([`crate::span`]) runs
//!   them over heaviest-path ends. Both adopt through
//!   [`Edges::adopt`], which lends a published history in place.
//! * [`events_dependent`] is the conflict relation `pdc-check`'s
//!   dynamic partial-order reduction builds on. Every edge [`Edges`]
//!   hands out joins a dependent pair, so the analyzers and DPOR agree
//!   on what "ordered" means.
//!
//! Two events are dependent when they touch the same resource and at
//! least one side mutates or transfers it. The resource vocabulary
//! ([`Access`]) is deliberately coarser than the edge rules: it only
//! has to be *sound* (never call a dependent pair independent), because
//! a spurious conflict merely costs a DPOR exploration branch, while a
//! missed one would break the reduction's proof.

use pdc_core::trace::{Event, EventKind};
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::VecDeque;

/// A resource touched by one event or scheduler step. Conflicts
/// between accesses ([`accesses_conflict`]) define the dependence
/// relation used by partial-order reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// A shared variable; `write` distinguishes mutation from
    /// observation (two reads of one variable are independent).
    Var {
        /// Caller-chosen variable id (the `var` payload of
        /// `read`/`write` events).
        id: u64,
        /// Whether the access mutates the variable.
        write: bool,
    },
    /// A synchronisation site (mutex, rwlock, semaphore, condvar,
    /// barrier, …): acquires, releases, waits, signals and failed-probe
    /// spins on the same site all conflict.
    Site(u64),
    /// A probe of an unidentified site (a `spin_wait` with no site id).
    /// Conservatively conflicts with every [`Access::Site`] and with
    /// itself.
    AnySite,
    /// An in-process channel endpoint: sends and receives on the same
    /// channel conflict (FIFO order is behaviour).
    Channel(u64),
    /// A published causal-history handle (`fork`/`join` pairing).
    Handle(u64),
    /// A message operation with no stable channel identity (MPI-style
    /// `send`/`recv` paired by actor). Conservatively conflicts with
    /// every other such operation.
    Message,
    /// A work-stealing pool queue operation (submit, steal, pop).
    /// Conservatively conflicts with every other pool queue operation.
    PoolQueue,
    /// A thread park token: parking and unparking the same task
    /// conflict.
    ParkToken(u32),
    /// Task termination: the exiting task's final step and any step a
    /// joiner makes observing that exit. Exit/join pairs order the
    /// joiner *after* the exit in every schedule, so these conflicts
    /// are happens-before edges but can never be reversed.
    TaskExit(u32),
}

impl Access {
    /// Whether this access can only ever order steps, never be
    /// reversed: a join cannot be scheduled before the exit it waits
    /// for, and a `join` edge cannot adopt a causal history before the
    /// paired `fork` published it (handle ids are unique per pairing),
    /// so no alternative interleaving exists to explore.
    pub fn irreversible(&self) -> bool {
        matches!(self, Access::TaskExit(_) | Access::Handle(_))
    }
}

/// The resource one trace event touches, if any: every event kind
/// touches at most one. Events that carry no cross-thread ordering
/// (counters, phase marks, kernel launches) return `None` and are
/// independent of everything.
pub fn event_accesses(e: &Event) -> Option<Access> {
    Some(match e.kind {
        EventKind::Read => Access::Var {
            id: e.a,
            write: false,
        },
        EventKind::Write => Access::Var {
            id: e.a,
            write: true,
        },
        EventKind::Acquire | EventKind::Release | EventKind::Wait | EventKind::Signal => {
            Access::Site(e.a)
        }
        EventKind::Fork | EventKind::Join => Access::Handle(e.a),
        EventKind::ChanSend | EventKind::ChanRecv => Access::Channel(e.a),
        EventKind::Send | EventKind::Recv => Access::Message,
        EventKind::Spawn | EventKind::Steal => Access::PoolQueue,
        EventKind::Barrier
        | EventKind::Lock
        | EventKind::Phase
        | EventKind::Mark
        | EventKind::Kernel
        | EventKind::CollBegin
        | EventKind::CollEnd => return None,
    })
}

/// Whether two accesses conflict (touch the same resource with at
/// least one mutating/transferring side).
pub fn accesses_conflict(a: &Access, b: &Access) -> bool {
    match (a, b) {
        (Access::Var { id: x, write: wx }, Access::Var { id: y, write: wy }) => {
            x == y && (*wx || *wy)
        }
        (Access::Site(x), Access::Site(y)) => x == y,
        (Access::AnySite, Access::Site(_))
        | (Access::Site(_), Access::AnySite)
        | (Access::AnySite, Access::AnySite) => true,
        (Access::Channel(x), Access::Channel(y)) => x == y,
        (Access::Handle(x), Access::Handle(y)) => x == y,
        (Access::Message, Access::Message) => true,
        (Access::PoolQueue, Access::PoolQueue) => true,
        (Access::ParkToken(x), Access::ParkToken(y)) => x == y,
        (Access::TaskExit(x), Access::TaskExit(y)) => x == y,
        _ => false,
    }
}

/// Whether two footprints (access lists) conflict.
pub fn footprints_conflict(a: &[Access], b: &[Access]) -> bool {
    a.iter().any(|x| b.iter().any(|y| accesses_conflict(x, y)))
}

/// Whether two footprints conflict through at least one *reversible*
/// access pair — i.e. whether reordering the two steps could actually
/// produce a different execution. Exit/join conflicts order steps but
/// cannot be flipped, so they never justify a backtrack point.
pub fn footprints_race(a: &[Access], b: &[Access]) -> bool {
    a.iter().any(|x| {
        b.iter()
            .any(|y| accesses_conflict(x, y) && !(x.irreversible() && y.irreversible()))
    })
}

/// Whether two events are dependent: same actor (program order), or
/// conflicting resource footprints. This is the per-event dependence
/// query the DPOR layer builds its relation from.
pub fn events_dependent(a: &Event, b: &Event) -> bool {
    a.actor == b.actor
        || matches!(
            (event_accesses(a), event_accesses(b)),
            (Some(x), Some(y)) if accesses_conflict(&x, &y)
        )
}

/// A causal history one event publishes and a later event adopts: a
/// vector clock for the race detectors, the heaviest path so far for
/// the span profiler.
pub trait History: Clone {
    /// Merge `other` into this history: afterwards it covers both.
    fn absorb(&mut self, other: &Self);
}

/// The four cross-actor happens-before rules of a `pdc-trace` stream:
///
/// - per site, every `release`/`signal` so far is absorbed, and an
///   `acquire`/`wait` adopts the result;
/// - per handle, a `join` adopts its `fork`;
/// - per channel, the k-th `chan_recv` adopts the k-th `chan_send`;
/// - per directed (sender, receiver) actor pair, the k-th `recv`
///   adopts the k-th `send`.
///
/// Feed events in logical-timestamp order: the recorders log an
/// `acquire` after the `release` that enabled it, a `join` after its
/// `fork`, and a receive after its send, so every edge points forward.
#[derive(Debug, Clone)]
pub struct Edges<H> {
    sites: BTreeMap<u64, H>,
    handles: BTreeMap<u64, H>,
    channels: BTreeMap<u64, VecDeque<H>>,
    messages: BTreeMap<(u64, u64), VecDeque<H>>,
}

impl<H> Default for Edges<H> {
    fn default() -> Self {
        Edges {
            sites: BTreeMap::new(),
            handles: BTreeMap::new(),
            channels: BTreeMap::new(),
            messages: BTreeMap::new(),
        }
    }
}

impl<H: History> Edges<H> {
    /// The history `e` adopts, if an earlier event published one for
    /// it, as an owned copy. A receive consumes the send it pairs with.
    pub fn incoming(&mut self, e: &Event) -> Option<H> {
        let mut got = None;
        self.adopt(e, |h| got = Some(h.clone()));
        got
    }

    /// Hand `into` the history `e` adopts, if an earlier event
    /// published one for it. A site's or handle's history is lent in
    /// place, with no copy; a receive moves its paired send's history
    /// out of the queue.
    pub fn adopt(&mut self, e: &Event, into: impl FnOnce(&H)) {
        let queue = match e.kind {
            EventKind::Acquire | EventKind::Wait | EventKind::Join => {
                let lent = if e.kind == EventKind::Join {
                    &self.handles
                } else {
                    &self.sites
                };
                if let Some(h) = lent.get(&e.a) {
                    into(h);
                }
                return;
            }
            EventKind::ChanRecv => self.channels.get_mut(&e.a),
            // A send records its receiver as peer, a recv its sender.
            EventKind::Recv => self.messages.get_mut(&(e.a, e.actor as u64)),
            _ => None,
        };
        if let Some(h) = queue.and_then(VecDeque::pop_front) {
            into(&h);
        }
    }

    /// Publish `h` as the history `e` hands on to the events that pair
    /// with it. Returns whether `e` publishes at all.
    pub fn publish(&mut self, e: &Event, h: &H) -> bool {
        match e.kind {
            EventKind::Release | EventKind::Signal => absorb_at(&mut self.sites, e.a, h),
            EventKind::Fork => absorb_at(&mut self.handles, e.a, h),
            EventKind::ChanSend => self.channels.entry(e.a).or_default().push_back(h.clone()),
            EventKind::Send => self
                .messages
                .entry((e.actor as u64, e.a))
                .or_default()
                .push_back(h.clone()),
            _ => return false,
        }
        true
    }
}

/// Whether events of `kind` adopt or publish through one of the
/// [`Edges`] rules; [`Edges::incoming`] and [`Edges::publish`] ignore
/// every other kind.
pub fn has_edge(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Acquire
            | EventKind::Release
            | EventKind::Wait
            | EventKind::Signal
            | EventKind::Fork
            | EventKind::Join
            | EventKind::ChanSend
            | EventKind::ChanRecv
            | EventKind::Send
            | EventKind::Recv
    )
}

fn absorb_at<H: History>(map: &mut BTreeMap<u64, H>, key: u64, h: &H) {
    match map.entry(key) {
        Entry::Vacant(slot) => {
            slot.insert(h.clone());
        }
        Entry::Occupied(slot) => slot.into_mut().absorb(h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, actor: u32, a: u64) -> Event {
        Event {
            ts: 0,
            actor,
            kind,
            a,
            b: 0,
        }
    }

    #[test]
    fn writes_conflict_reads_of_same_var_only() {
        let w = ev(EventKind::Write, 0, 7);
        let r_same = ev(EventKind::Read, 1, 7);
        let r_other = ev(EventKind::Read, 1, 8);
        assert!(events_dependent(&w, &r_same));
        assert!(!events_dependent(&w, &r_other));
        // Two reads of the same variable are independent.
        let r2 = ev(EventKind::Read, 2, 7);
        assert!(!events_dependent(&r_same, &r2));
    }

    #[test]
    fn same_actor_is_always_dependent() {
        let a = ev(EventKind::Read, 3, 1);
        let b = ev(EventKind::Kernel, 3, 99);
        assert!(events_dependent(&a, &b), "program order is dependence");
    }

    #[test]
    fn sites_channels_and_handles_pair_by_id() {
        assert!(events_dependent(
            &ev(EventKind::Acquire, 0, 5),
            &ev(EventKind::Release, 1, 5)
        ));
        assert!(!events_dependent(
            &ev(EventKind::Acquire, 0, 5),
            &ev(EventKind::Release, 1, 6)
        ));
        assert!(events_dependent(
            &ev(EventKind::ChanSend, 0, 9),
            &ev(EventKind::ChanRecv, 1, 9)
        ));
        assert!(!events_dependent(
            &ev(EventKind::ChanSend, 0, 9),
            &ev(EventKind::Acquire, 1, 9)
        ));
        assert!(events_dependent(
            &ev(EventKind::Fork, 0, 4),
            &ev(EventKind::Join, 1, 4)
        ));
    }

    #[test]
    fn task_exit_conflicts_are_irreversible() {
        let a = [Access::TaskExit(2)];
        let b = [Access::TaskExit(2)];
        assert!(footprints_conflict(&a, &b), "exit/join still orders steps");
        assert!(!footprints_race(&a, &b), "but can never be reversed");
        let c = [Access::TaskExit(2), Access::Site(1)];
        let d = [Access::TaskExit(2), Access::Site(1)];
        assert!(
            footprints_race(&c, &d),
            "a reversible pair revives the race"
        );
    }

    /// A history that remembers the timestamps of the events that
    /// published into it.
    #[derive(Debug, Clone, PartialEq)]
    struct Seen(Vec<u64>);

    impl History for Seen {
        fn absorb(&mut self, other: &Self) {
            self.0.extend(&other.0);
        }
    }

    /// Replay `events` through [`Edges`]: what each one adopted.
    fn adopted(events: &[Event]) -> Vec<Option<Vec<u64>>> {
        let mut edges = Edges::default();
        events
            .iter()
            .map(|e| {
                let got = edges.incoming(e).map(|h: Seen| h.0);
                edges.publish(e, &Seen(vec![e.ts]));
                got
            })
            .collect()
    }

    fn at(ts: u64, kind: EventKind, actor: u32, a: u64) -> Event {
        Event {
            ts,
            ..ev(kind, actor, a)
        }
    }

    #[test]
    fn site_acquire_adopts_every_earlier_release() {
        let got = adopted(&[
            at(1, EventKind::Release, 0, 5),
            at(2, EventKind::Signal, 1, 5),
            at(3, EventKind::Release, 1, 6),
            at(4, EventKind::Acquire, 2, 5),
            at(5, EventKind::Wait, 3, 5),
            at(6, EventKind::Acquire, 3, 7),
        ]);
        assert_eq!(got[3], Some(vec![1, 2]), "every release on the site");
        assert_eq!(got[4], Some(vec![1, 2]), "a wait adopts like an acquire");
        assert_eq!(got[5], None, "nothing was released on site 7");
    }

    #[test]
    fn join_adopts_only_its_own_handles_fork() {
        let got = adopted(&[
            at(1, EventKind::Fork, 0, 10),
            at(2, EventKind::Fork, 0, 11),
            at(3, EventKind::Join, 1, 11),
            at(4, EventKind::Join, 2, 12),
        ]);
        assert_eq!(got[2], Some(vec![2]));
        assert_eq!(got[3], None);
    }

    #[test]
    fn kth_chan_recv_adopts_kth_chan_send() {
        let got = adopted(&[
            at(1, EventKind::ChanSend, 0, 3),
            at(2, EventKind::ChanSend, 0, 3),
            at(3, EventKind::ChanSend, 0, 4),
            at(4, EventKind::ChanRecv, 1, 3),
            at(5, EventKind::ChanRecv, 2, 3),
            at(6, EventKind::ChanRecv, 1, 3),
        ]);
        assert_eq!(got[3], Some(vec![1]));
        assert_eq!(got[4], Some(vec![2]), "any receiver takes the next send");
        assert_eq!(got[5], None, "channel 3 is drained");
    }

    #[test]
    fn recv_pairs_by_directed_actor_pair() {
        // Send names its receiver, recv its sender.
        let got = adopted(&[
            at(1, EventKind::Send, 0, 1),
            at(2, EventKind::Recv, 0, 1),
            at(3, EventKind::Recv, 1, 0),
            at(4, EventKind::Recv, 1, 0),
        ]);
        assert_eq!(got[1], None, "1 -> 0 was never sent");
        assert_eq!(got[2], Some(vec![1]));
        assert_eq!(got[3], None, "one send pairs with one recv");
    }

    #[test]
    fn any_site_is_conservative() {
        assert!(accesses_conflict(&Access::AnySite, &Access::Site(3)));
        assert!(accesses_conflict(&Access::AnySite, &Access::AnySite));
        assert!(!accesses_conflict(
            &Access::AnySite,
            &Access::Var { id: 3, write: true }
        ));
    }
}
