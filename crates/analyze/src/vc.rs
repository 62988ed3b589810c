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

/// A map from actor id to that actor's logical clock. Missing entries
/// are zero. The nonzero entries sit in one `Vec`, sorted by actor, so
/// iteration is deterministic (reports are stable across runs), a
/// lookup is a binary search, and a join is one linear merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    /// Nonzero `(actor, time)` entries in increasing actor order.
    entries: Vec<(u32, u64)>,
}

impl VectorClock {
    /// The zero clock (⊥): happens-before everything.
    pub fn new() -> Self {
        VectorClock::default()
    }

    fn find(&self, actor: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&actor, |&(a, _)| a)
    }

    /// This clock's component for `actor` (zero if absent).
    pub fn get(&self, actor: u32) -> u64 {
        self.find(actor).map_or(0, |i| self.entries[i].1)
    }

    /// Set the component for `actor`.
    pub fn set(&mut self, actor: u32, time: u64) {
        match self.find(actor) {
            Ok(i) if time == 0 => {
                self.entries.remove(i);
            }
            Ok(i) => self.entries[i].1 = time,
            Err(_) if time == 0 => {}
            Err(i) => self.entries.insert(i, (actor, time)),
        }
    }

    /// Increment `actor`'s component, returning the new value.
    pub fn tick(&mut self, actor: u32) -> u64 {
        let i = self.find(actor).unwrap_or_else(|i| {
            self.entries.insert(i, (actor, 0));
            i
        });
        self.entries[i].1 += 1;
        self.entries[i].1
    }

    /// Pointwise maximum: afterwards `self` knows everything `other`
    /// knew (the effect of synchronising with `other`'s history).
    ///
    /// One linear merge: a first pass raises the shared entries in
    /// place and counts `other`'s actors missing here; only if there
    /// are any does the `Vec` grow, and a second pass merges from the
    /// back so every entry moves once.
    pub fn join(&mut self, other: &VectorClock) {
        let mut missing = 0;
        let mut i = 0;
        for &(actor, time) in &other.entries {
            while i < self.entries.len() && self.entries[i].0 < actor {
                i += 1;
            }
            match self.entries.get_mut(i) {
                Some(mine) if mine.0 == actor => mine.1 = mine.1.max(time),
                _ => missing += 1,
            }
        }
        if missing == 0 {
            return;
        }
        let mut mine = self.entries.len();
        let mut theirs = other.entries.len();
        self.entries.resize(mine + missing, (0, 0));
        let mut out = self.entries.len();
        while theirs > 0 {
            let next = other.entries[theirs - 1];
            out -= 1;
            if mine > 0 && self.entries[mine - 1].0 >= next.0 {
                if self.entries[mine - 1].0 == next.0 {
                    theirs -= 1; // already raised by the first pass
                }
                self.entries[out] = self.entries[mine - 1];
                mine -= 1;
            } else {
                self.entries[out] = next;
                theirs -= 1;
            }
        }
        debug_assert_eq!(out, mine, "the unmerged head is already in place");
    }

    /// True when `self ⊒ other` pointwise — i.e. `other`'s history
    /// happened before (or is equal to) this clock.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        let mut i = 0;
        other.entries.iter().all(|&(actor, time)| {
            while i < self.entries.len() && self.entries[i].0 < actor {
                i += 1;
            }
            matches!(self.entries.get(i), Some(&(a, t)) if a == actor && t >= time)
        })
    }

    /// Iterate over the nonzero (actor, time) entries in actor order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.entries.iter().copied()
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
    /// One clock per actor seen so far, sorted by actor: finding a
    /// clock is a binary search, and only an actor's first event
    /// allocates.
    clocks: Vec<(u32, VectorClock)>,
    edges: Edges<VectorClock>,
}

impl Clocks {
    /// `actor`'s current clock.
    pub(crate) fn of(&mut self, actor: u32) -> &VectorClock {
        clock_of(&mut self.clocks, actor)
    }

    /// Apply `e`'s edge: adopt the history it pairs with, publish its
    /// actor's clock, and tick past a publication so the actor's later
    /// accesses are not ordered before whoever adopts it. Events
    /// without an edge return at once.
    pub(crate) fn sync(&mut self, e: &Event) {
        if !deps::has_edge(e.kind) {
            return;
        }
        let clock = clock_of(&mut self.clocks, e.actor);
        self.edges.adopt(e, |h| clock.join(h));
        if self.edges.publish(e, clock) {
            clock.tick(e.actor);
        }
    }
}

fn clock_of(clocks: &mut Vec<(u32, VectorClock)>, actor: u32) -> &mut VectorClock {
    let i = clocks
        .binary_search_by_key(&actor, |(a, _)| *a)
        .unwrap_or_else(|i| {
            clocks.insert(i, (actor, start(actor)));
            i
        });
    &mut clocks[i].1
}

fn start(actor: u32) -> VectorClock {
    // Room for a few actors up front: a clock soon learns its peers.
    let mut entries = Vec::with_capacity(8);
    entries.push((actor, 1));
    VectorClock { entries }
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    /// Actors the model test draws from: explicit ids and ids in the
    /// auto-actor band (at or above 2^20, `ThreadTrace::sibling_auto`).
    const ACTORS: [u32; 6] = [0, 1, 3, 1 << 20, (1 << 20) + 7, u32::MAX];

    /// A reference clock: actor → time, zero entries absent.
    type Model = BTreeMap<u32, u64>;

    fn model_set(m: &mut Model, actor: u32, time: u64) {
        if time == 0 {
            m.remove(&actor);
        } else {
            m.insert(actor, time);
        }
    }

    fn model_dominates(a: &Model, b: &Model) -> bool {
        b.iter()
            .all(|(actor, &t)| a.get(actor).copied().unwrap_or(0) >= t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random `set`/`tick`/`join` sequences on two clocks and on two
        /// map models must agree on `get`, `dominates`, `iter` order and
        /// `==` after every step.
        #[test]
        fn flat_clock_matches_a_map_model(
            ops in prop::collection::vec((0u8..5, 0usize..6, 0u64..4), 0..80),
        ) {
            let mut clocks = [VectorClock::new(), VectorClock::new()];
            let mut models = [Model::new(), Model::new()];
            for (i, &(op, actor, time)) in ops.iter().enumerate() {
                let (side, actor) = (i % 2, ACTORS[actor]);
                match op {
                    // `set`, half the time to zero.
                    0 | 1 => {
                        let time = if op == 0 { time } else { 0 };
                        clocks[side].set(actor, time);
                        model_set(&mut models[side], actor, time);
                    }
                    2 => {
                        let t = clocks[side].tick(actor);
                        let m = models[side].entry(actor).or_insert(0);
                        *m += 1;
                        prop_assert_eq!(t, *m);
                    }
                    _ => {
                        let other = clocks[1 - side].clone();
                        clocks[side].join(&other);
                        let other = models[1 - side].clone();
                        for (a, t) in other {
                            let m = models[side].entry(a).or_insert(0);
                            *m = (*m).max(t);
                        }
                    }
                }
                for (clock, model) in clocks.iter().zip(&models) {
                    for a in ACTORS {
                        prop_assert_eq!(clock.get(a), model.get(&a).copied().unwrap_or(0));
                    }
                    let entries: Vec<(u32, u64)> = clock.iter().collect();
                    let expected: Vec<(u32, u64)> = model.iter().map(|(&a, &t)| (a, t)).collect();
                    prop_assert_eq!(entries, expected);
                }
                prop_assert_eq!(
                    clocks[0].dominates(&clocks[1]),
                    model_dominates(&models[0], &models[1])
                );
                prop_assert_eq!(
                    clocks[1].dominates(&clocks[0]),
                    model_dominates(&models[1], &models[0])
                );
                prop_assert_eq!(clocks[0] == clocks[1], models[0] == models[1]);
            }
        }
    }
}
