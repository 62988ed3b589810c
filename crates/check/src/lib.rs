//! `pdc-check`: a deterministic schedule-exploration model checker for
//! `pdc-sync` programs, with exact record/replay.
//!
//! Concurrency bugs hide in interleavings the OS scheduler rarely
//! produces; running a test a thousand times mostly re-runs the same
//! lucky schedule. This crate takes scheduling away from the OS: a
//! [`controller::Controller`] installs itself into the
//! [`pdc_sync::hooks`] seam and serializes the whole test body onto one
//! runnable task at a time, choosing who runs at every yield point.
//! The interleaving becomes a deterministic function of those choices,
//! which buys three things the curriculum's testing unit is built on:
//!
//! * **systematic search** — [`explore_dfs`] enumerates *every*
//!   schedule of a bounded body (and can certify it clean);
//!   [`explore_dpor`] proves the same completeness while skipping
//!   interleavings the dependence relation shows equivalent (sleep
//!   sets + persistent backtrack sets over per-step footprints);
//!   [`explore_pct`] samples schedules with PCT's randomized-priority
//!   bias toward rare orderings;
//! * **exact replay** — each run's decisions are recorded as a
//!   [`Schedule`] (`pdc-check/1` JSON); [`replay`] re-executes the
//!   same interleaving, reproducing the canonical trace byte for byte;
//! * **shrinking** — a failing schedule is minimized by verified
//!   prefix-truncation and splice-out, so the witness a student reads
//!   is a handful of choices, not thousands.
//!
//! On top of each explored schedule the existing `pdc-analyze` passes
//! (happens-before, lockset, lock order, MPI lint) judge the trace, so
//! "fails" means *panic, deadlock, or analysis defect* — the checker
//! finds races even on schedules where the wrong answer happens not to
//! materialize.
//!
//! Test bodies use [`spawn`]/[`JoinHandle`]/[`yield_now`] from this
//! crate (drop-in `std::thread` shapes that register with the active
//! controller) and any `pdc-sync` primitives, which participate via
//! their hook instrumentation with zero configuration. Under a
//! controller, each task and each schedule's root body runs on a
//! reused thread from [`workers`]. Every wait of a checked schedule —
//! a task's wait for its grant, an idle worker's wait for its next
//! job, the teardown barrier — polls its condition with `yield_now`
//! before it parks, and its waker unparks only the thread it names.
//! A grant usually reaches a task that is still polling, so one
//! explored schedule costs its decisions and analysis rather than
//! thread spawns and kernel wake-ups.
//!
//! ```
//! use pdc_check::{explore_pct, fixtures, Config};
//!
//! let cfg = Config { max_schedules: 50, ..Config::default() };
//! let report = explore_pct(fixtures::racy_counter_body(2), &cfg);
//! let failure = report.failure.expect("the racy counter must fail");
//! // The shrunk witness replays to a failing schedule by construction.
//! assert!(failure.minimal_run.failed(&cfg));
//! ```

pub mod canon;
pub mod controller;
pub mod dpor;
pub mod explore;
pub mod fixtures;
pub mod strategy;
pub mod workers;

pub use controller::{AbortSchedule, Outcome, StepInfo};
pub use dpor::{enumerate_dpor, explore_dpor};
pub use explore::{
    enumerate_dfs, explore_dfs, explore_pct, replay, replay_strict, Config, ExploreReport,
    FoundFailure, RunResult, ScheduleSummary,
};
pub use strategy::{Schedule, ScheduleError};

use pdc_core::trace::{self, EventKind};
use pdc_sync::hooks;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;

/// A preemption point: under a controller this hands the baton to the
/// strategy's next pick; outside exploration it is a no-op.
pub fn yield_now() {
    hooks::yield_point();
}

enum ChildOutcome<T> {
    Done(T),
    /// The schedule is being torn down; there is no value.
    Aborted,
}

/// What a task leaves for its joiner: its value, or the panic it died of.
type TaskResult<T> = std::thread::Result<ChildOutcome<T>>;

/// Handle to a task started with [`spawn`] (same shape as
/// `std::thread::JoinHandle`, minus the `Result`: panics propagate).
pub struct JoinHandle<T> {
    /// The task's one-shot result slot.
    result: mpsc::Receiver<TaskResult<T>>,
    token: Option<hooks::SpawnToken>,
    h_join: Option<u64>,
}

impl<T> JoinHandle<T> {
    /// Wait for the task and return its value. Under a controller this
    /// blocks through the checker (the exploration keeps running other
    /// tasks); a panic in the child propagates to the joiner.
    pub fn join(self) -> T {
        if let Some(token) = &self.token {
            hooks::join_task(token);
        }
        let result = self
            .result
            .recv()
            .expect("every pdc-check task reports a result before it exits");
        match result {
            Ok(ChildOutcome::Done(v)) => {
                if let (Some(h), Some(pt)) = (self.h_join, trace::current_sync_trace()) {
                    pt.record(EventKind::Join, h, 0);
                }
                v
            }
            // Only reachable if the abort raced past join_task; keep
            // unwinding this task too.
            Ok(ChildOutcome::Aborted) => panic_any(AbortSchedule),
            Err(payload) => resume_unwind(payload),
        }
    }
}

/// Spawn a task that participates in the active exploration (if any)
/// and inherits the parent's trace as a forked sibling actor. Under a
/// controller the task runs on a pooled [`workers`] thread; outside
/// exploration this is `std::thread::spawn` plus the same fork/join
/// trace edges `pdc_threads::join` records.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let token = hooks::checked_spawn();
    let parent_trace = trace::current_sync_trace();
    let (child_trace, handles) = match &parent_trace {
        Some(pt) => {
            let h_fork = trace::next_site_id();
            let h_join = trace::next_site_id();
            pt.record(EventKind::Fork, h_fork, 0);
            (Some(pt.sibling_auto()), Some((h_fork, h_join)))
        }
        None => (None, None),
    };
    let (result_tx, result) = mpsc::sync_channel::<TaskResult<T>>(1);
    let run = move || {
        let body = AssertUnwindSafe(|| {
            if let Some(t) = &token {
                hooks::begin_task(t);
            }
            if let Some(ct) = &child_trace {
                trace::install_sync_trace(ct.clone());
                ct.record(EventKind::Join, handles.unwrap().0, 0);
            }
            let v = f();
            if let Some(ct) = &child_trace {
                ct.record(EventKind::Fork, handles.unwrap().1, 0);
            }
            v
        });
        let out = catch_unwind(body);
        trace::clear_sync_trace();
        match out {
            Ok(v) => Ok(ChildOutcome::Done(v)),
            Err(payload) if payload.downcast_ref::<AbortSchedule>().is_some() => {
                Ok(ChildOutcome::Aborted)
            }
            Err(payload) => {
                if let Some(t) = &token {
                    hooks::task_panicked(t, &hooks::panic_text(payload.as_ref()));
                }
                Err(payload)
            }
        }
    };
    match token {
        Some(t) => {
            workers::run(move |checkin| {
                // Result and worker are released *before* the exit: once
                // the task is Finished its joiner reads the result at once,
                // and the next spawn may reuse this worker. The exit is
                // always reached, whether the task completed, aborted or
                // panicked for real.
                let _ = result_tx.send(run());
                drop(checkin);
                hooks::end_task(&t);
            });
            // First decision where the child is a candidate; only after
            // its job is queued, per the hooks contract.
            hooks::yield_point();
        }
        None => {
            std::thread::Builder::new()
                .name("pdc-check-task".into())
                .spawn(move || {
                    let _ = result_tx.send(run());
                })
                .expect("spawn pdc-check task");
        }
    }
    JoinHandle {
        result,
        token,
        h_join: handles.map(|(_, j)| j),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_analyze::DefectKind;
    use pdc_sync::PdcMutex;
    use std::sync::Arc;

    fn small(max_schedules: usize) -> Config {
        Config {
            max_schedules,
            ..Config::default()
        }
    }

    #[test]
    fn spawn_works_outside_exploration() {
        let h = spawn(|| 21 * 2);
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn pct_finds_the_racy_counter_quickly() {
        let report = explore_pct(fixtures::racy_counter_body(2), &small(1000));
        let failure = report.failure.expect("racy counter must fail");
        assert!(
            report.schedules_run <= 1000,
            "must fail within budget, took {}",
            report.schedules_run
        );
        // Whatever the concrete symptom (lost-update panic or analysis
        // race), the trace itself must show the data race.
        assert!(
            failure.run.report.count_kind(DefectKind::DataRace) >= 1,
            "{}",
            failure.description
        );
    }

    #[test]
    fn dfs_certifies_the_fixed_counter_clean() {
        let cfg = Config {
            max_schedules: 50_000,
            ..Config::default()
        };
        let report = explore_dfs(fixtures::fixed_counter_body(2, 1), &cfg);
        assert!(
            report.passed(),
            "{:?}",
            report.failure.map(|f| f.description)
        );
        assert!(
            report.complete,
            "DFS must exhaust the tree, ran {} schedules",
            report.schedules_run
        );
        assert!(
            report.schedules_run >= 2,
            "at least two interleavings exist"
        );
    }

    #[test]
    fn pct_flags_abba_via_lock_order_before_it_even_deadlocks() {
        // On completed schedules the predictive lock-order pass already
        // condemns the opposite-order acquisitions — the analyzer finds
        // the bug without needing to hit the fatal interleaving.
        let report = explore_pct(fixtures::abba_deadlock_body(), &small(100));
        let failure = report.failure.expect("AB-BA must fail");
        assert!(
            failure.run.outcome != Outcome::Ok
                || failure.run.report.count_kind(DefectKind::LockOrderCycle) >= 1,
            "{}",
            failure.description
        );
    }

    #[test]
    fn dfs_finds_the_abba_deadlock() {
        // Disable analysis failures to isolate the checker's own
        // precise (empty-enabled-set) deadlock detection.
        let cfg = Config {
            max_schedules: 50_000,
            fail_on_defects: false,
            ..Config::default()
        };
        let report = explore_dfs(fixtures::abba_deadlock_body(), &cfg);
        let failure = report.failure.expect("AB-BA must deadlock somewhere");
        assert!(
            matches!(failure.run.outcome, Outcome::Deadlock(_)),
            "{}",
            failure.description
        );
        assert!(
            matches!(failure.minimal_run.outcome, Outcome::Deadlock(_)),
            "the shrunk witness must still deadlock"
        );
    }

    #[test]
    fn replay_reproduces_the_exact_trace() {
        let cfg = small(200);
        let report = explore_pct(fixtures::racy_counter_body(2), &cfg);
        let failure = report.failure.expect("racy counter must fail");
        let rerun = replay(fixtures::racy_counter_body(2), &failure.run.schedule, &cfg);
        assert_eq!(
            rerun.trace_jsonl(),
            failure.run.trace_jsonl(),
            "replaying the recorded schedule must reproduce the canonical trace byte for byte"
        );
        assert_eq!(rerun.outcome, failure.run.outcome);
    }

    #[test]
    fn schedule_json_survives_the_file_round_trip() {
        let cfg = small(200);
        let report = explore_pct(fixtures::racy_counter_body(1), &cfg);
        let failure = report.failure.expect("racy counter must fail");
        let json = failure.minimal.to_json();
        let parsed = Schedule::parse(&json).unwrap();
        let rerun = replay(fixtures::racy_counter_body(1), &parsed, &cfg);
        assert!(
            rerun.failed(&cfg),
            "parsed minimal schedule must still fail"
        );
    }

    #[test]
    fn shrunk_schedule_is_no_longer_than_the_original() {
        let cfg = small(200);
        let report = explore_pct(fixtures::racy_counter_body(3), &cfg);
        let failure = report.failure.expect("racy counter must fail");
        assert!(failure.minimal.choices.len() <= failure.run.schedule.choices.len());
        assert!(failure.minimal_run.failed(&cfg));
    }

    #[test]
    fn structured_fork_join_participates_in_exploration() {
        // pdc_threads::join registers its scoped child as a checked
        // task, so fork-join bodies explore like spawned ones. The
        // unsynchronised variant must be caught; the diamond itself
        // orders parent-before-child-before-parent, so a body whose
        // accesses respect the diamond is clean.
        let cfg = Config {
            max_schedules: 50_000,
            ..Config::default()
        };
        let clean = explore_dfs(
            || {
                let m = Arc::new(PdcMutex::new(0u64));
                let var = trace::next_site_id();
                let (m1, m2) = (Arc::clone(&m), Arc::clone(&m));
                pdc_threads::join::join(
                    move || {
                        let mut g = m1.lock();
                        trace::record_var_write(var);
                        *g += 1;
                    },
                    move || {
                        let mut g = m2.lock();
                        trace::record_var_write(var);
                        *g += 1;
                    },
                );
            },
            &cfg,
        );
        assert!(clean.passed(), "{:?}", clean.failure.map(|f| f.description));
        assert!(clean.complete);
        assert!(clean.schedules_run >= 2, "both section orders explored");
    }

    /// Replay `schedule` over `body` and assert it ends as `expect`
    /// says, well inside the teardown barrier's 10 s stall.
    fn assert_fast_teardown(
        body: impl Fn() + Send + Sync + 'static,
        schedule: &Schedule,
        cfg: &Config,
        expect: impl Fn(&Outcome) -> bool,
    ) {
        let t = std::time::Instant::now();
        let run = replay(body, schedule, cfg);
        let took = t.elapsed();
        assert!(expect(&run.outcome), "unexpected outcome {:?}", run.outcome);
        assert!(
            took < std::time::Duration::from_secs(1),
            "{:?} took {took:?} to tear down",
            run.outcome
        );
    }

    #[test]
    fn every_abort_wakes_every_waiting_task() {
        // A waiting task polls the baton, then parks until a grant or
        // an abort unparks its own thread, so an abort that unparked
        // only the baton holder would leave the rest parked until the
        // teardown barrier gives up. `tests/parked_waiters.rs` makes
        // sure the waiters have parked; these steps are too short.
        let lenient = Config {
            fail_on_defects: false,
            ..small(50_000)
        };
        let deadlock = explore_dfs(fixtures::abba_deadlock_body(), &lenient)
            .failure
            .expect("AB-BA deadlocks somewhere");
        assert_fast_teardown(
            fixtures::abba_deadlock_body(),
            &deadlock.minimal,
            &lenient,
            |o| matches!(o, Outcome::Deadlock(_)),
        );
        let free = Schedule {
            strategy: "replay".into(),
            seed: 0,
            choices: vec![],
        };
        let five_steps = Config {
            max_steps: 5,
            ..lenient.clone()
        };
        assert_fast_teardown(
            fixtures::fixed_counter_body(3, 1),
            &free,
            &five_steps,
            |o| *o == Outcome::Truncated,
        );
        let panicking = || {
            let m = Arc::new(PdcMutex::new(()));
            let _held = m.lock();
            let waiter = Arc::clone(&m);
            let _h = spawn(move || drop(waiter.lock()));
            yield_now();
            panic!("boom while a task waits");
        };
        assert_fast_teardown(panicking, &free, &lenient, |o| {
            *o == Outcome::Panic("boom while a task waits".into())
        });
    }

    #[test]
    fn deterministic_deadlock_reports_the_blocked_tasks() {
        // Drive the fatal interleaving directly: run both lock() entries
        // to just past their first acquisition. Rather than hand-craft
        // choices, find it with DFS and inspect the blocked set.
        let cfg = Config {
            max_schedules: 50_000,
            fail_on_defects: false,
            ..Config::default()
        };
        let report = explore_dfs(fixtures::abba_deadlock_body(), &cfg);
        let failure = report.failure.expect("deadlock exists");
        let Outcome::Deadlock(live) = &failure.run.outcome else {
            panic!("expected deadlock, got {:?}", failure.run.outcome);
        };
        // Root (0) waits on a join; tasks 1 and 2 wait on each other.
        assert!(live.contains(&1) && live.contains(&2), "{live:?}");
    }
}
