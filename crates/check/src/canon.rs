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

use pdc_core::trace::Event;

/// The auto-actor band base (`ThreadTrace::sibling_auto` ids); actors
/// at or above this are renumbered, explicit actors are kept.
const AUTO_ACTOR_BASE: u32 = 1 << 20;

/// Renumber timestamps, site ids, and auto actors by first appearance
/// in timestamp order. `events` must already be in timestamp order, as
/// `TraceSession::events` returns them; so is the result.
///
/// A schedule touches a handful of sites and tasks, so each renumbering
/// is a small table of raw ids in first-appearance order, searched
/// linearly: an id's canonical number is its position.
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
    let mut actors: Vec<u32> = Vec::new();
    let mut sites: Vec<u64> = Vec::new();
    for (i, e) in events.iter_mut().enumerate() {
        e.ts = i as u64 + 1;
        if e.actor >= AUTO_ACTOR_BASE {
            e.actor = max_explicit + 1 + first_appearance(&mut actors, e.actor) as u32;
        }
        if e.kind.a_is_local_id() {
            e.a = first_appearance(&mut sites, e.a) as u64 + 1;
        }
    }
    events
}

/// `id`'s position in `seen`, appending it on its first appearance.
fn first_appearance<T: PartialEq + Copy>(seen: &mut Vec<T>, id: T) -> usize {
    seen.iter().position(|&s| s == id).unwrap_or_else(|| {
        seen.push(id);
        seen.len() - 1
    })
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
    use pdc_core::trace::EventKind;

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
