//! Empirical work/span profiling over traced executions — the
//! measurement side of the curriculum's work–span theory (CLRS ch. 27).
//!
//! [`analyze_span`] reconstructs the computation DAG a `pdc-trace/2`
//! stream recorded — program order per actor plus the cross-actor
//! happens-before edges of [`crate::deps::Edges`] — and runs one
//! longest-path (topological relaxation) pass over it:
//!
//! * **work** `T1` — the sum of every event's weight. An event weighs 1
//!   except a [`MARK_STEPS`] mark, which weighs its `b` payload: the
//!   unit-cost operations the strand attributed via
//!   [`pdc_core::trace::record_steps`].
//! * **span** `T∞` — the heaviest path through the DAG: the length of
//!   the critical path an infinite-processor machine could not beat.
//! * **parallelism** `T1/T∞` — the maximum useful processor count, the
//!   number Brent's bound turns into predicted `Tp`.
//! * **the critical path itself** — the ordered event list realising
//!   the span, recovered by predecessor back-walk, renderable by
//!   [`pdc_core::timeline::render_html_with_path`].
//!
//! The trace's recording-order guarantees (an `acquire` is recorded
//! after the `release` that enabled it, a `join` after its `fork`, the
//! k-th `chan_recv` after the k-th `chan_send`, …) make logical-
//! timestamp order a valid topological order of this DAG, so one
//! forward sweep suffices — no explicit graph is materialised. The
//! cross-actor edges are the ones the HB race detector applies, run
//! over heaviest-path ends instead of vector clocks.
//!
//! Multi-process `pdc-trace/3` snapshots go through
//! [`analyze_span_merged`], reusing [`crate::merged::causal_order`] to
//! rebuild one consistent stream first.
//!
//! Results export as `pdc-span/1` JSON: deterministic
//! (byte-identical for identical schedules), hand-rolled like every
//! other schema in the workspace.

use crate::deps::{Edges, History};
use pdc_core::merge::MergedTrace;
use pdc_core::trace::{Event, EventKind, TraceSession, MARK_STEPS};
use pdc_core::workspan::WorkSpan;
use std::collections::BTreeMap;

/// The empirical work/span verdict on one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanReport {
    /// Total attributed steps `T1` (every event's weight summed).
    pub work: u64,
    /// Critical-path length `T∞` (heaviest path through the DAG).
    pub span: u64,
    /// Events the pass consumed.
    pub events: usize,
    /// The critical path, in execution order (first event → last). Its
    /// weights sum to `span`.
    pub critical: Vec<Event>,
}

impl SpanReport {
    /// The measured pair as a [`WorkSpan`] (asserts `span <= work`,
    /// which holds structurally: the path is made of counted events).
    pub fn work_span(&self) -> WorkSpan {
        WorkSpan::new(self.work, self.span)
    }

    /// Parallelism `T1/T∞`; 1.0 for the empty trace.
    pub fn parallelism(&self) -> f64 {
        self.work_span().parallelism()
    }

    /// Timestamps along the critical path, for
    /// [`pdc_core::timeline::render_html_with_path`].
    pub fn critical_ts(&self) -> Vec<u64> {
        self.critical.iter().map(|e| e.ts).collect()
    }

    /// Render as `pdc-span/1` JSON. Deterministic: the same event
    /// stream yields byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"pdc-span/1\",\"work\":{},\"span\":{},\"parallelism\":{:.4},\"events\":{},\"critical_path\":[",
            self.work,
            self.span,
            self.parallelism(),
            self.events
        );
        for (i, e) in self.critical.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"ts\":{},\"actor\":{},\"kind\":\"{}\",\"weight\":{}}}",
                e.ts,
                e.actor,
                e.kind.as_str(),
                event_weight(e)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The weight one event contributes to work and to any path through
/// it: the attributed step count for a [`MARK_STEPS`] mark, 1 for
/// everything else.
pub fn event_weight(e: &Event) -> u64 {
    if e.kind == EventKind::Mark && e.a == MARK_STEPS {
        e.b
    } else {
        1
    }
}

/// Profile a [`TraceSession`]'s event stream.
pub fn analyze_span_session(session: &TraceSession) -> SpanReport {
    analyze_span(&session.events())
}

/// Profile a merged multi-process `pdc-trace/3` snapshot: causally
/// reorder and namespace the per-process slices (see
/// [`crate::merged::causal_order`]), then profile the single stream.
pub fn analyze_span_merged(trace: &MergedTrace) -> SpanReport {
    analyze_span(&crate::merged::causal_order(trace))
}

/// The heaviest path ending at one event: its weight and the event.
#[derive(Debug, Clone, Copy)]
struct PathEnd {
    dist: u64,
    at: usize,
}

impl History for PathEnd {
    /// Keep the heavier path; on a tie keep the one already held, so
    /// the earliest publisher wins deterministically. Keeping only the
    /// heaviest is exactly right for longest path: a barrier's N
    /// arrivals all happen-before every wakeup, and the heaviest
    /// arrival dominates the other N-1 as a path prefix.
    fn absorb(&mut self, other: &Self) {
        if other.dist > self.dist {
            *self = *other;
        }
    }
}

/// Profile a raw event stream: longest weighted path over the recorded
/// computation DAG. Input out of logical-timestamp order is stably
/// re-sorted first, like [`crate::analyze_events`] does.
pub fn analyze_span(events: &[Event]) -> SpanReport {
    let events = crate::ts_sorted(events);

    // pred[i] = the predecessor on the heaviest path ending at event i.
    let mut pred: Vec<Option<usize>> = Vec::with_capacity(events.len());
    // The last event per actor: program-order edges.
    let mut last_of_actor: BTreeMap<u32, PathEnd> = BTreeMap::new();
    let mut edges: Edges<PathEnd> = Edges::default();
    // The heaviest path ending anywhere; on ties the earliest event.
    let mut end: Option<PathEnd> = None;

    let mut work: u64 = 0;
    for (i, e) in events.iter().enumerate() {
        let w = event_weight(e);
        work += w;

        // Program order first; the kind's cross-actor edge replaces it
        // only when strictly heavier, so ties stay deterministic.
        let mut best = last_of_actor.get(&e.actor).copied();
        edges.adopt(e, |cross| {
            best.get_or_insert(*cross).absorb(cross);
        });
        pred.push(best.map(|p| p.at));
        let here = PathEnd {
            dist: w + best.map_or(0, |p| p.dist),
            at: i,
        };
        edges.publish(e, &here);
        last_of_actor.insert(e.actor, here);
        end.get_or_insert(here).absorb(&here);
    }

    let span = end.map_or(0, |p| p.dist);
    let mut critical = Vec::new();
    let mut cursor = end.map(|p| p.at);
    while let Some(i) = cursor {
        critical.push(events[i]);
        cursor = pred[i];
    }
    critical.reverse();

    debug_assert!(span <= work, "span {span} cannot exceed work {work}");
    debug_assert_eq!(
        critical.iter().map(event_weight).sum::<u64>(),
        span,
        "critical-path weights must sum to the span"
    );

    SpanReport {
        work,
        span,
        events: events.len(),
        critical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_core::trace::TraceRecorder;

    fn ev(ts: u64, actor: u32, kind: EventKind, a: u64, b: u64) -> Event {
        Event {
            ts,
            actor,
            kind,
            a,
            b,
        }
    }

    fn steps(ts: u64, actor: u32, n: u64) -> Event {
        ev(ts, actor, EventKind::Mark, MARK_STEPS, n)
    }

    #[test]
    fn empty_trace_is_zero_work_zero_span() {
        let r = analyze_span(&[]);
        assert_eq!(r.work, 0);
        assert_eq!(r.span, 0);
        assert!(r.critical.is_empty());
        assert!((r.parallelism() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn serial_chain_has_span_equal_work() {
        let r = analyze_span(&[steps(1, 0, 10), steps(2, 0, 20), steps(3, 0, 5)]);
        assert_eq!(r.work, 35);
        assert_eq!(r.span, 35);
        assert_eq!(r.critical.len(), 3);
        assert!((r.parallelism() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_actors_parallelise() {
        // Two actors, no cross edges: span = the heavier strand.
        let r = analyze_span(&[steps(1, 0, 100), steps(2, 1, 60)]);
        assert_eq!(r.work, 160);
        assert_eq!(r.span, 100);
        assert_eq!(r.critical.len(), 1);
        assert_eq!(r.critical[0].actor, 0);
    }

    #[test]
    fn fork_join_diamond_takes_the_heavier_branch() {
        // Parent forks two children (handles 10, 11), joins both. The
        // heavier child (actor 2, 50 steps) is the bottleneck.
        let trace = [
            ev(1, 0, EventKind::Fork, 10, 0),
            ev(2, 0, EventKind::Fork, 11, 1),
            ev(3, 1, EventKind::Join, 10, 0),
            steps(4, 1, 20),
            ev(5, 2, EventKind::Join, 11, 1),
            steps(6, 2, 50),
            ev(7, 1, EventKind::Fork, 20, 0),
            ev(8, 2, EventKind::Fork, 21, 1),
            ev(9, 0, EventKind::Join, 20, 0),
            ev(10, 0, EventKind::Join, 21, 1),
        ];
        let r = analyze_span(&trace);
        // Work: 8 unit events + 20 + 50.
        assert_eq!(r.work, 78);
        // Span: the heavy-child chain fork(ts1) → fork(ts2) →
        // join(ts5) → 50 steps → fork(ts8) → join(ts10), weights
        // 1+1+1+50+1+1 = 55 (the ts9 join sits on a lighter path).
        assert_eq!(r.span, 55);
        assert!(r.parallelism() > 1.0);
        // The critical path runs through the heavy child, not the
        // light one.
        assert!(r.critical.iter().any(|e| e.actor == 2));
        assert!(!r
            .critical
            .iter()
            .any(|e| e.actor == 1 && e.kind == EventKind::Mark));
    }

    #[test]
    fn release_acquire_edges_serialise_lock_holders() {
        // Two actors each do 30 steps inside the same lock: the span
        // must include both bodies (the lock serialises them).
        let trace = [
            ev(1, 0, EventKind::Acquire, 7, 1),
            steps(2, 0, 30),
            ev(3, 0, EventKind::Release, 7, 1),
            ev(4, 1, EventKind::Acquire, 7, 1),
            steps(5, 1, 30),
            ev(6, 1, EventKind::Release, 7, 1),
        ];
        let r = analyze_span(&trace);
        assert_eq!(r.work, 64);
        assert_eq!(r.span, 64, "fully serialised: span == work");
        assert_eq!(r.critical.len(), 6);
    }

    #[test]
    fn channel_fifo_pairing_orders_kth_recv_after_kth_send() {
        // Sender does heavy work, sends twice; receiver's second recv
        // adopts the second send (not the first).
        let trace = [
            steps(1, 0, 40),
            ev(2, 0, EventKind::ChanSend, 5, 0),
            steps(3, 0, 25),
            ev(4, 0, EventKind::ChanSend, 5, 1),
            ev(5, 1, EventKind::ChanRecv, 5, 0),
            ev(6, 1, EventKind::ChanRecv, 5, 1),
            steps(7, 1, 10),
        ];
        let r = analyze_span(&trace);
        // Critical: 40 + send(1) + 25 + send(1) + recv(1) + 10 … the
        // second recv chains from the second send: 40+1+25+1+1+10 = 78
        // plus the first recv sits on actor 1's program order before
        // the second: path through recv#1 = 40+1+1(recv1)+1(recv2)+10
        // = 53 < 78. Span = 78.
        assert_eq!(r.span, 78);
        assert_eq!(r.work, 79);
    }

    #[test]
    fn message_pairing_is_per_directed_actor_pair() {
        // Rank 0 sends to rank 1 (Send a=dst, Recv a=src).
        let trace = [
            steps(1, 0, 15),
            ev(2, 0, EventKind::Send, 1, 64),
            ev(3, 1, EventKind::Recv, 0, 64),
            steps(4, 1, 5),
        ];
        let r = analyze_span(&trace);
        assert_eq!(r.span, 15 + 1 + 1 + 5);
        assert_eq!(r.work, 22);
    }

    #[test]
    fn barrier_pulse_adopts_heaviest_arrival() {
        // Sense barrier shape: both workers Release on arrival, both
        // Acquire on wakeup. The heavy arrival (60) dominates both
        // wakeups' adopted history.
        let trace = [
            steps(1, 0, 60),
            ev(2, 0, EventKind::Release, 9, 2),
            steps(3, 1, 10),
            ev(4, 1, EventKind::Release, 9, 2),
            ev(5, 1, EventKind::Acquire, 9, 2),
            ev(6, 0, EventKind::Acquire, 9, 2),
            steps(7, 1, 10),
        ];
        let r = analyze_span(&trace);
        // actor 1 after the barrier still pays actor 0's 60-step
        // pre-barrier work: 60 + release(1) + acquire(1) + 10 = 72.
        assert_eq!(r.span, 72);
    }

    #[test]
    fn real_recorder_fork_join_roundtrip() {
        // Drive a real TraceRecorder the way the pool does and check
        // the measured shape end-to-end.
        let rec = TraceRecorder::new(256);
        let main = rec.thread(100);
        let w0 = rec.thread(0);
        let w1 = rec.thread(1);
        // main forks two tasks; workers join, attribute steps, publish
        // completion forks; main joins both completions.
        main.record(EventKind::Fork, 501, 0);
        main.record(EventKind::Fork, 502, 1);
        w0.record(EventKind::Join, 501, 0);
        w1.record(EventKind::Join, 502, 1);
        pdc_core::trace::install_sync_trace(w0.clone());
        pdc_core::trace::record_steps(1000);
        pdc_core::trace::install_sync_trace(w1.clone());
        pdc_core::trace::record_steps(900);
        pdc_core::trace::clear_sync_trace();
        w0.record(EventKind::Fork, 601, 0);
        w1.record(EventKind::Fork, 602, 1);
        main.record(EventKind::Join, 601, 0);
        main.record(EventKind::Join, 602, 1);
        let r = analyze_span(&rec.events());
        assert_eq!(r.work, 1900 + 8);
        // Critical path: fork(501) → join(501) → 1000 steps →
        // fork(601) → join(601) → join(602): 1+1+1000+1+1+1 = 1005.
        assert_eq!(r.span, 1005);
        assert!(r.parallelism() > 1.8 && r.parallelism() < 2.0);
        // Renderable: every critical ts exists in the stream.
        let ts: std::collections::BTreeSet<u64> = rec.events().iter().map(|e| e.ts).collect();
        assert!(r.critical_ts().iter().all(|t| ts.contains(t)));
    }

    #[test]
    fn merged_span_matches_the_session_after_a_json_round_trip() {
        // A pdc-trace/2 snapshot read back from disk must profile like
        // the live session: MARK_STEPS (u64::MAX - 1) has to survive
        // the parser for its steps to count as work.
        let session = TraceSession::new();
        for (actor, steps) in [(0, 1000), (1, 250)] {
            pdc_core::trace::install_sync_trace(session.thread(actor));
            pdc_core::trace::record_steps(steps);
            pdc_core::trace::clear_sync_trace();
        }
        let local = analyze_span_session(&session);
        assert_eq!((local.work, local.span), (1250, 1000));
        let parsed = pdc_core::merge::parse_trace(&session.to_json(), 0).unwrap();
        let merged = analyze_span_merged(&MergedTrace::merge(vec![parsed]));
        assert_eq!(merged.work, local.work);
        assert_eq!(merged.span, local.span);
    }

    #[test]
    fn json_is_deterministic_and_schema_tagged() {
        let trace = [steps(1, 0, 3), steps(2, 1, 4)];
        let a = analyze_span(&trace).to_json();
        let b = analyze_span(&trace).to_json();
        assert_eq!(a, b, "same schedule, byte-identical pdc-span/1");
        assert!(a.starts_with("{\"schema\":\"pdc-span/1\""));
        assert!(a.contains("\"work\":7"));
        assert!(a.contains("\"span\":4"));
        assert!(a.contains("\"parallelism\":1.7500"));
        assert!(
            a.contains("\"critical_path\":[{\"ts\":2,\"actor\":1,\"kind\":\"mark\",\"weight\":4}]")
        );
    }

    #[test]
    fn weights_default_to_one_for_plain_marks() {
        // A Mark without the MARK_STEPS tag weighs 1, not its payload.
        let r = analyze_span(&[ev(1, 0, EventKind::Mark, 3, 999)]);
        assert_eq!(r.work, 1);
        assert_eq!(r.span, 1);
    }
}
