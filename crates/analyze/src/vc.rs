//! Vector clocks and epochs — the causality bookkeeping behind the
//! happens-before race detector and the lockset hand-off tracker.
//!
//! A [`VectorClock`] maps actor → logical time; `a ⊑ b` (pointwise ≤)
//! means everything actor-wise known at `a` is known at `b`, i.e. `a`
//! happens-before-or-equals `b`. An [`Epoch`] `c@t` is the FastTrack
//! compression of "the single access by actor `t` at its time `c`" —
//! most variables are only ever touched in a totally ordered way, and
//! one epoch comparison (O(1)) replaces a full clock join. The
//! crate-internal `Clocks` keeps one clock per actor and advances them
//! along the [`crate::deps::Edges`] rules.

use crate::deps::{self, Edges, History};
use pdc_core::trace::Event;
use std::collections::{BTreeMap, HashMap};

/// A map from actor id to that actor's logical clock. Missing entries
/// are zero. `BTreeMap` keeps iteration deterministic so reports are
/// stable across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    entries: BTreeMap<u32, u64>,
}

impl VectorClock {
    /// The zero clock (⊥): happens-before everything.
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// This clock's component for `actor` (zero if absent).
    pub fn get(&self, actor: u32) -> u64 {
        self.entries.get(&actor).copied().unwrap_or(0)
    }

    /// Set the component for `actor`.
    pub fn set(&mut self, actor: u32, time: u64) {
        if time == 0 {
            self.entries.remove(&actor);
        } else {
            self.entries.insert(actor, time);
        }
    }

    /// Increment `actor`'s component, returning the new value.
    pub fn tick(&mut self, actor: u32) -> u64 {
        let e = self.entries.entry(actor).or_insert(0);
        *e += 1;
        *e
    }

    /// Pointwise maximum: afterwards `self` knows everything `other`
    /// knew (the effect of synchronising with `other`'s history).
    pub fn join(&mut self, other: &VectorClock) {
        for (&actor, &time) in &other.entries {
            let e = self.entries.entry(actor).or_insert(0);
            if time > *e {
                *e = time;
            }
        }
    }

    /// True when `self ⊒ other` pointwise — i.e. `other`'s history
    /// happened before (or is equal to) this clock.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        other
            .entries
            .iter()
            .all(|(&actor, &time)| self.get(actor) >= time)
    }

    /// Iterate over the nonzero (actor, time) entries in actor order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.entries.iter().map(|(&a, &t)| (a, t))
    }
}

impl History for VectorClock {
    fn absorb(&mut self, other: &Self) {
        self.join(other);
    }
}

/// Per-actor vector clocks, advanced along the cross-actor edges of
/// [`Edges`]. Each actor starts at time 1, so its first access has a
/// nonzero epoch distinguishable from "never accessed".
#[derive(Debug, Default)]
pub(crate) struct Clocks {
    clocks: HashMap<u32, VectorClock>,
    edges: Edges<VectorClock>,
}

impl Clocks {
    /// `actor`'s current clock.
    pub(crate) fn of(&mut self, actor: u32) -> &VectorClock {
        self.clocks.entry(actor).or_insert_with(|| start(actor))
    }

    /// Apply `e`'s edge: adopt the history it pairs with, publish its
    /// actor's clock, and tick past a publication so the actor's later
    /// accesses are not ordered before whoever adopts it. Events
    /// without an edge return at once.
    pub(crate) fn sync(&mut self, e: &Event) {
        if !deps::has_edge(e.kind) {
            return;
        }
        let clock = self.clocks.entry(e.actor).or_insert_with(|| start(e.actor));
        if let Some(h) = self.edges.incoming(e) {
            clock.join(&h);
        }
        if self.edges.publish(e, clock) {
            clock.tick(e.actor);
        }
    }
}

fn start(actor: u32) -> VectorClock {
    let mut vc = VectorClock::new();
    vc.set(actor, 1);
    vc
}

/// `clock@actor`: the scalar-clock identity of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// The actor that performed the access.
    pub actor: u32,
    /// That actor's clock component at the access.
    pub clock: u64,
}

impl Epoch {
    /// An epoch for `actor` at its current time in `vc`.
    pub fn of(actor: u32, vc: &VectorClock) -> Self {
        Epoch {
            actor,
            clock: vc.get(actor),
        }
    }

    /// True when this access happens-before (or equals) the history in
    /// `vc` — the FastTrack O(1) fast path: `c@t ⊑ V ⟺ c ≤ V[t]`.
    pub fn happens_before(&self, vc: &VectorClock) -> bool {
        self.clock <= vc.get(self.actor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_tick() {
        let mut v = VectorClock::new();
        assert_eq!(v.get(3), 0);
        v.set(3, 5);
        assert_eq!(v.get(3), 5);
        assert_eq!(v.tick(3), 6);
        assert_eq!(v.tick(7), 1);
        assert_eq!(v.get(7), 1);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::new();
        a.set(0, 4);
        a.set(1, 1);
        let mut b = VectorClock::new();
        b.set(1, 9);
        b.set(2, 2);
        a.join(&b);
        assert_eq!(a.get(0), 4);
        assert_eq!(a.get(1), 9);
        assert_eq!(a.get(2), 2);
    }

    #[test]
    fn dominates_orders_histories() {
        let mut lo = VectorClock::new();
        lo.set(0, 1);
        let mut hi = VectorClock::new();
        hi.set(0, 2);
        hi.set(1, 1);
        assert!(hi.dominates(&lo));
        assert!(!lo.dominates(&hi));
        // Concurrent clocks dominate in neither direction.
        let mut other = VectorClock::new();
        other.set(2, 1);
        other.set(0, 1);
        assert!(!hi.dominates(&other));
        assert!(!other.dominates(&hi));
        // Everything dominates bottom.
        assert!(lo.dominates(&VectorClock::new()));
    }

    #[test]
    fn epoch_fast_path_matches_definition() {
        let mut v = VectorClock::new();
        v.set(4, 10);
        let before = Epoch { actor: 4, clock: 9 };
        let at = Epoch {
            actor: 4,
            clock: 10,
        };
        let after = Epoch {
            actor: 4,
            clock: 11,
        };
        let elsewhere = Epoch { actor: 5, clock: 1 };
        assert!(before.happens_before(&v));
        assert!(at.happens_before(&v));
        assert!(!after.happens_before(&v));
        assert!(!elsewhere.happens_before(&v), "unknown actor is concurrent");
    }
}
