//! Trace canonicalization: make two runs of the *same* interleaving
//! byte-identical.
//!
//! A replayed schedule re-executes the body with fresh primitives and a
//! fresh trace session, so three id spaces differ between record and replay
//! even though the interleaving is identical:
//!
//! * site/handle ids come from the process-global
//!   [`pdc_core::trace::next_site_id`] counter;
//! * auto actor ids (`ThreadTrace::sibling_auto`, used for spawned
//!   tasks) restart per session but live in the `≥ 2^20` band;
//! * logical timestamps restart per session but may have gaps if a
//!   disabled site allocated lazily.
//!
//! Canonicalization renumbers all three by first appearance in
//! timestamp order. Under the controller's baton the appearance order
//! is itself a deterministic function of the schedule, so the
//! canonicalized JSONL of a recorded run and its replay can be compared
//! with `==` — which is the record/replay acceptance test.

use pdc_core::trace::{Event, EventKind};
use std::collections::HashMap;

/// The auto-actor band base (`ThreadTrace::sibling_auto` ids); actors
/// at or above this are renumbered, explicit actors are kept.
const AUTO_ACTOR_BASE: u32 = 1 << 20;

/// Whether `kind`'s `a` payload is a site/handle id from
/// [`pdc_core::trace::next_site_id`] (and thus needs renumbering).
fn a_is_site_id(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Acquire
            | EventKind::Release
            | EventKind::Wait
            | EventKind::Signal
            | EventKind::Read
            | EventKind::Write
            | EventKind::Fork
            | EventKind::Join
            | EventKind::ChanSend
            | EventKind::ChanRecv
    )
}

/// Renumber timestamps, site ids, and auto actors by first appearance
/// in timestamp order. `events` must already be in timestamp order, as
/// `TraceSession::events` returns them; so is the result.
pub fn canonicalize(events: &[Event]) -> Vec<Event> {
    debug_assert!(
        events.windows(2).all(|w| w[0].ts <= w[1].ts),
        "canonicalize needs events in timestamp order"
    );
    let mut events = events.to_vec();
    let max_explicit = events
        .iter()
        .map(|e| e.actor)
        .filter(|&a| a < AUTO_ACTOR_BASE)
        .max()
        .unwrap_or(0);
    let mut actor_map: HashMap<u32, u32> = HashMap::new();
    let mut site_map: HashMap<u64, u64> = HashMap::new();
    for (i, e) in events.iter_mut().enumerate() {
        e.ts = i as u64 + 1;
        if e.actor >= AUTO_ACTOR_BASE {
            let next = max_explicit + 1 + actor_map.len() as u32;
            e.actor = *actor_map.entry(e.actor).or_insert(next);
        }
        if a_is_site_id(e.kind) {
            let next = site_map.len() as u64 + 1;
            e.a = *site_map.entry(e.a).or_insert(next);
        }
    }
    events
}

/// Render canonical events as `pdc-trace/2` JSON lines (one event per
/// line, trailing newline) — the byte-comparable record/replay format.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, actor: u32, kind: EventKind, a: u64) -> Event {
        Event {
            ts,
            actor,
            kind,
            a,
            b: 0,
        }
    }

    #[test]
    fn renumbers_sites_by_first_appearance() {
        let canon = canonicalize(&[
            ev(10, 0, EventKind::Acquire, 907),
            ev(11, 0, EventKind::Read, 344),
            ev(12, 0, EventKind::Release, 907),
        ]);
        assert_eq!(canon[0].a, 1);
        assert_eq!(canon[1].a, 2);
        assert_eq!(canon[2].a, 1, "same raw site, same canonical site");
        assert_eq!(
            canon.iter().map(|e| e.ts).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn renumbers_auto_actors_after_explicit_ones() {
        let base = AUTO_ACTOR_BASE;
        let canon = canonicalize(&[
            ev(1, 0, EventKind::Fork, 50),
            ev(2, base + 7, EventKind::Join, 50),
            ev(3, base + 3, EventKind::Read, 9),
            ev(4, base + 7, EventKind::Write, 9),
        ]);
        assert_eq!(canon[0].actor, 0);
        assert_eq!(canon[1].actor, 1, "first auto actor seen becomes 1");
        assert_eq!(canon[2].actor, 2);
        assert_eq!(canon[3].actor, 1);
    }

    #[test]
    fn equal_interleavings_differ_only_by_raw_ids() {
        let a = canonicalize(&[
            ev(5, 0, EventKind::Write, 100),
            ev(6, 0, EventKind::Signal, 101),
        ]);
        let b = canonicalize(&[
            ev(50, 0, EventKind::Write, 7100),
            ev(51, 0, EventKind::Signal, 7101),
        ]);
        assert_eq!(to_jsonl(&a), to_jsonl(&b));
    }

    #[test]
    fn send_recv_peers_are_not_site_ids() {
        let canon = canonicalize(&[ev(1, 0, EventKind::Send, 3)]);
        assert_eq!(canon[0].a, 3, "send peer is an actor, not a site");
    }
}
