//! `pdc-analyze`: concurrency-correctness analysis over traced
//! executions.
//!
//! The curriculum's instrumentation layer (`pdc-trace/2`) records what
//! a parallel program *did*; this crate judges whether that behaviour
//! was *correct*. Four independent analyses run over one event stream:
//!
//! | analysis | question | module |
//! |---|---|---|
//! | happens-before races | were conflicting accesses ordered? | [`hb`] |
//! | lockset (Eraser) | does one lock protect each variable? | [`lockset`] |
//! | lock-order cycles | can these acquisitions deadlock? | [`lockorder`] |
//! | MPI lint | do messages and collectives match up? | [`mpi_lint`] |
//!
//! Alongside the correctness verdicts, [`span`] profiles *performance
//! shape*: it reconstructs the computation DAG from the same stream
//! and measures empirical work, span (critical path), and parallelism
//! — the quantities Brent's bound turns into predicted `Tp`.
//!
//! Multi-process (`pdc-trace/3`) snapshots go through
//! [`merged::analyze_merged`], which causally reorders the per-process
//! streams and namespaces process-local ids before running the same
//! four analyses.
//!
//! The first two are complementary verdicts on the same bug class —
//! happens-before is precise for the observed schedule, lockset
//! catches policy violations the schedule happened to hide. The
//! lock-order analysis is *predictive*: it flags cycles from runs that
//! completed successfully, which is strictly stronger than the runtime
//! wait-for-graph detection in `pdc_sync::waitgraph`.
//!
//! Everything lands in a [`Report`] rendered as machine-checkable
//! `pdc-analyze/1` JSON, gated in CI. [`fixtures`] holds the
//! known-racy / known-deadlocky / known-clean executions that keep the
//! detectors honest in both directions.
//!
//! ```
//! use pdc_analyze::{analyze, fixtures};
//!
//! let racy = analyze(&fixtures::racy_counter_session());
//! assert!(!racy.clean());
//! let fixed = analyze(&fixtures::fixed_counter_session());
//! assert!(fixed.clean());
//! ```

pub mod deps;
pub mod fixtures;
pub mod hb;
pub mod lockorder;
pub mod lockset;
pub mod merged;
pub mod mpi_lint;
pub mod report;
pub mod span;
pub mod vc;

pub use merged::{analyze_merged, shrink_failed};
pub use report::{Defect, DefectKind, Report};
pub use span::{analyze_span, analyze_span_merged, analyze_span_session, SpanReport};

use pdc_core::trace::{Event, TraceSession};
use std::borrow::Cow;

/// Analyse a traced session: run all four analyses over its events.
pub fn analyze(session: &TraceSession) -> Report {
    let mut report = analyze_events(&session.events());
    report.dropped = session.dropped();
    report
}

/// Analyse a raw event stream. Callers may concatenate streams, so
/// input out of logical-timestamp order is copied and stably re-sorted;
/// sorted input is analysed in place.
pub fn analyze_events(events: &[Event]) -> Report {
    let events = ts_sorted(events);
    let events: &[Event] = &events;
    let mut report = Report {
        events_analyzed: events.len(),
        ..Report::default()
    };
    report.defects.extend(hb::detect_races(events));
    report
        .defects
        .extend(lockset::detect_lockset_violations(events));
    let (cycles, gated) = lockorder::detect_lock_order(events);
    report.defects.extend(cycles);
    report.gated_cycles = gated;
    report.defects.extend(mpi_lint::lint_mpi(events));
    report
}

/// `events` in logical-timestamp order: borrowed when already sorted,
/// otherwise a stably sorted copy.
fn ts_sorted(events: &[Event]) -> Cow<'_, [Event]> {
    if events.windows(2).all(|w| w[0].ts <= w[1].ts) {
        Cow::Borrowed(events)
    } else {
        let mut events = events.to_vec();
        events.sort_by_key(|e| e.ts);
        Cow::Owned(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racy_fixture_is_flagged_by_both_detectors() {
        let report = analyze(&fixtures::racy_counter_session());
        assert!(!report.clean());
        assert!(
            report.count_kind(DefectKind::DataRace) >= 1,
            "happens-before must flag the racy counter: {:?}",
            report.defects
        );
        assert!(
            report.count_kind(DefectKind::LocksetViolation) >= 1,
            "lockset must independently flag it: {:?}",
            report.defects
        );
    }

    #[test]
    fn fixed_fixture_is_clean() {
        let report = analyze(&fixtures::fixed_counter_session());
        assert!(report.clean(), "{:?}", report.defects);
        assert!(report.events_analyzed > 0);
    }

    #[test]
    fn semaphore_handoff_is_clean() {
        // The ad-hoc hand-off protocol holds no lock at all; the pulse
        // edge must satisfy HB, and the lockset checker must treat it
        // as ownership transfer rather than unlocked sharing.
        let report = analyze(&fixtures::semaphore_handoff_session());
        assert!(report.clean(), "{:?}", report.defects);
    }

    #[test]
    fn channel_handoff_is_clean() {
        // The same hand-off over a channel: its send → recv edge must
        // order the accesses for both detectors.
        let report = analyze(&fixtures::channel_handoff_session());
        assert!(report.clean(), "{:?}", report.defects);
    }

    #[test]
    fn misused_condvar_still_races() {
        // The pre-wait peek has no incoming edge in any schedule, so
        // adding wait/signal edges must not launder the real race.
        let report = analyze(&fixtures::misused_condvar_session());
        assert!(
            report.count_kind(DefectKind::DataRace) >= 1,
            "{:?}",
            report.defects
        );
    }

    #[test]
    fn deadlocky_philosophers_cycle_is_predicted() {
        let (session, sim) = fixtures::deadlocky_philosophers_session(5);
        let report = analyze(&session);
        assert_eq!(report.count_kind(DefectKind::LockOrderCycle), 1);
        let defect = report
            .defects
            .iter()
            .find(|d| d.kind == DefectKind::LockOrderCycle)
            .unwrap();
        let mut cycle = defect.sites.clone();
        cycle.sort_unstable();
        let mut forks = sim.fork_sites.clone();
        forks.sort_unstable();
        assert_eq!(cycle, forks, "the cycle is exactly the fork ring");
    }

    #[test]
    fn ordered_philosophers_are_clean() {
        let (session, _) = fixtures::ordered_philosophers_session(5);
        let report = analyze(&session);
        assert!(report.clean(), "{:?}", report.defects);
        assert!(report.gated_cycles.is_empty());
    }

    #[test]
    fn arbitrator_cycle_is_gated_not_defective() {
        let (session, sim) = fixtures::arbitrator_philosophers_session(5);
        let report = analyze(&session);
        assert!(report.clean(), "{:?}", report.defects);
        assert_eq!(
            report.gated_cycles.len(),
            1,
            "the raw ring survives as informational"
        );
        let mut cycle = report.gated_cycles[0].clone();
        cycle.sort_unstable();
        let mut forks = sim.fork_sites.clone();
        forks.sort_unstable();
        assert_eq!(cycle, forks);
    }

    #[test]
    fn mpi_fixture_yields_all_three_lint_kinds() {
        let report = analyze(&fixtures::mpi_mismatch_session());
        assert_eq!(report.count_kind(DefectKind::MpiUnmatchedSend), 1);
        assert_eq!(report.count_kind(DefectKind::MpiCollectiveOrder), 1);
        assert_eq!(report.count_kind(DefectKind::MpiUnmatchedCollective), 1);
    }

    #[test]
    fn report_json_is_machine_checkable() {
        let report = analyze(&fixtures::racy_counter_session());
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"pdc-analyze/1\""));
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"kind\":\"data_race\""));
    }

    #[test]
    fn empty_session_is_trivially_clean() {
        let report = analyze(&TraceSession::new());
        assert!(report.clean());
        assert_eq!(report.events_analyzed, 0);
    }
}
