//! Property-based tests over `pdc-analyze`: randomized *data-race-free*
//! executions on real threads must always come back clean (the
//! false-positive direction CI cannot grep for), and the known-defect
//! fixtures must always be flagged (the false-negative direction) —
//! soundness in both directions, through the `pdc::` facade.

use pdc::analyze::deps::{self, Edges, History};
use pdc::analyze::{analyze, fixtures, DefectKind};
use pdc::core::trace::{self, Event, EventKind, TraceSession};
use pdc::sync::PdcMutex;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Each shared variable is owned by its own mutex, every thread
    /// follows a randomized access schedule taking exactly one lock at
    /// a time, and every access happens inside the right guard. No
    /// schedule of this shape can race, violate a lockset, or nest
    /// locks — the analyzer must report clean every time.
    #[test]
    fn randomized_drf_schedules_analyze_clean(
        schedules in proptest::collection::vec(
            proptest::collection::vec(0usize..3, 1..40),
            2..5,
        ),
    ) {
        let session = TraceSession::new();
        let locks: Vec<PdcMutex<u64>> = (0..3).map(|_| PdcMutex::new(0)).collect();
        let vars: Vec<u64> = (0..3).map(|_| trace::next_site_id()).collect();
        std::thread::scope(|s| {
            for (t, schedule) in schedules.iter().enumerate() {
                let (session, locks, vars) = (&session, &locks, &vars);
                s.spawn(move || {
                    trace::install_sync_trace(session.thread(t as u32));
                    for &v in schedule {
                        let mut g = locks[v].lock();
                        trace::record_var_read(vars[v]);
                        let cur = *g;
                        trace::record_var_write(vars[v]);
                        *g = cur + 1;
                    }
                    trace::clear_sync_trace();
                });
            }
        });
        let report = analyze(&session);
        prop_assert!(report.clean(), "false positive on a DRF schedule: {:?}", report.defects);
        prop_assert!(report.gated_cycles.is_empty());
        prop_assert_eq!(report.dropped, 0);
        let total: u64 = schedules.iter().map(|s| s.len() as u64).sum();
        let sum: u64 = locks.into_iter().map(PdcMutex::into_inner).sum();
        prop_assert_eq!(sum, total, "the schedule itself must have run to completion");
    }

    /// Threads acquire random *runs* of locks, always in ascending
    /// index order (the global-ordering discipline), touching each
    /// lock's variable while holding it. Nesting is real, but the
    /// order is consistent — the lock-order analysis must never
    /// manufacture a cycle, and the accesses must stay clean.
    #[test]
    fn consistent_nested_order_never_reports_a_cycle(
        runs in proptest::collection::vec(
            proptest::collection::vec((0usize..4, 1usize..4), 1..12),
            2..4,
        ),
    ) {
        const NLOCKS: usize = 6;
        let session = TraceSession::new();
        let locks: Vec<PdcMutex<u64>> = (0..NLOCKS).map(|_| PdcMutex::new(0)).collect();
        let vars: Vec<u64> = (0..NLOCKS).map(|_| trace::next_site_id()).collect();
        std::thread::scope(|s| {
            for (t, run) in runs.iter().enumerate() {
                let (session, locks, vars) = (&session, &locks, &vars);
                s.spawn(move || {
                    trace::install_sync_trace(session.thread(t as u32));
                    for &(start, len) in run {
                        let end = (start + len).min(NLOCKS);
                        // Ascending acquisition; guards drop in reverse.
                        let guards: Vec<_> = (start..end)
                            .map(|i| (i, locks[i].lock()))
                            .collect();
                        for (i, g) in &guards {
                            trace::record_var_read(vars[*i]);
                            std::hint::black_box(**g);
                            trace::record_var_write(vars[*i]);
                        }
                        drop(guards);
                    }
                    trace::clear_sync_trace();
                });
            }
        });
        let report = analyze(&session);
        prop_assert!(report.clean(), "false positive under global ordering: {:?}", report.defects);
        prop_assert_eq!(report.count_kind(DefectKind::LockOrderCycle), 0);
    }
}

/// A history that records which events published into it, by index.
#[derive(Debug, Clone)]
struct Publishers(Vec<usize>);

impl History for Publishers {
    fn absorb(&mut self, other: &Self) {
        self.0.extend_from_slice(&other.0);
    }
}

/// Every event kind, by its stable name.
const KINDS: &str = "spawn steal barrier lock send recv phase mark kernel coll_begin coll_end \
                     acquire release read write fork join wait signal chan_send chan_recv";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The happens-before rule and DPOR's footprints must agree: every
    /// edge `deps::Edges` hands out joins a pair `deps::events_dependent`
    /// calls dependent, or the analyzers would order events the model
    /// checker treats as freely reorderable. Streams mix every kind over
    /// a few actors and ids, so sites, handles, channels and actor pairs
    /// collide often.
    #[test]
    fn every_happens_before_edge_joins_a_dependent_pair(
        raw in proptest::collection::vec(((0u32..4, 0usize..21), 0u64..3, 0u64..3), 0..64),
    ) {
        let kinds: Vec<EventKind> = KINDS
            .split_whitespace()
            .map(|name| EventKind::parse_name(name).unwrap())
            .collect();
        let events: Vec<Event> = raw
            .iter()
            .enumerate()
            .map(|(i, &((actor, kind), a, b))| Event { ts: i as u64 + 1, actor, kind: kinds[kind], a, b })
            .collect();
        let mut edges = Edges::default();
        for (i, e) in events.iter().enumerate() {
            if let Some(Publishers(from)) = edges.incoming(e) {
                prop_assert!(deps::has_edge(e.kind));
                for p in from {
                    prop_assert!(p < i, "edges point forward");
                    prop_assert!(
                        deps::events_dependent(&events[p], e),
                        "edge {:?} -> {:?} joins an independent pair",
                        events[p],
                        e
                    );
                }
            }
            let published = edges.publish(e, &Publishers(vec![i]));
            prop_assert!(!published || deps::has_edge(e.kind));
        }
    }
}

// -- Soundness direction: the known-defect fixtures must be flagged. --

#[test]
fn racy_counter_is_flagged_by_both_detectors() {
    let report = analyze(&fixtures::racy_counter_session());
    assert!(
        report.count_kind(DefectKind::DataRace) >= 1,
        "happens-before missed the racy counter: {:?}",
        report.defects
    );
    assert!(
        report.count_kind(DefectKind::LocksetViolation) >= 1,
        "lockset missed the racy counter: {:?}",
        report.defects
    );
}

#[test]
fn fixed_counter_is_clean() {
    let report = analyze(&fixtures::fixed_counter_session());
    assert!(report.clean(), "{:?}", report.defects);
}

#[test]
fn deadlocky_philosophers_yield_a_lock_order_cycle() {
    let (session, sim) = fixtures::deadlocky_philosophers_session(5);
    assert!(
        !sim.outcome.deadlocked,
        "prediction must come from a run that completed"
    );
    let report = analyze(&session);
    assert_eq!(report.count_kind(DefectKind::LockOrderCycle), 1);
    let cycle = &report
        .defects
        .iter()
        .find(|d| d.kind == DefectKind::LockOrderCycle)
        .unwrap()
        .sites;
    let mut got = cycle.clone();
    got.sort_unstable();
    let mut want = sim.fork_sites.clone();
    want.sort_unstable();
    assert_eq!(got, want, "the cycle is the fork ring itself");
}

#[test]
fn both_philosopher_fixes_are_clean() {
    let (ordered, _) = fixtures::ordered_philosophers_session(5);
    let report = analyze(&ordered);
    assert!(report.clean(), "ordered: {:?}", report.defects);
    assert!(
        report.gated_cycles.is_empty(),
        "ordering leaves no ring at all"
    );

    let (arbitrated, _) = fixtures::arbitrator_philosophers_session(5);
    let report = analyze(&arbitrated);
    assert!(report.clean(), "arbitrator: {:?}", report.defects);
    assert_eq!(
        report.gated_cycles.len(),
        1,
        "the arbitrator keeps the ring but gates it"
    );
}

#[test]
fn mpi_mismatch_fixture_is_fully_linted() {
    let report = analyze(&fixtures::mpi_mismatch_session());
    assert_eq!(report.count_kind(DefectKind::MpiUnmatchedSend), 1);
    assert_eq!(report.count_kind(DefectKind::MpiCollectiveOrder), 1);
    assert_eq!(report.count_kind(DefectKind::MpiUnmatchedCollective), 1);
}

#[test]
fn report_json_is_grep_stable() {
    let report = analyze(&fixtures::racy_counter_session());
    let json = report.to_json();
    assert!(json.contains("\"schema\":\"pdc-analyze/1\""));
    assert!(json.contains("\"clean\":false"));
    assert!(json.contains("\"kind\":\"data_race\""));
    assert!(json.contains("\"kind\":\"lockset_violation\""));
}
