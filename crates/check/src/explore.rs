//! Exploration drivers: run one schedule, enumerate many, shrink the
//! failing ones.
//!
//! Every entry point takes a *re-runnable body* (`Fn`, invoked once per
//! schedule as the root task) and a [`Config`]. The root and every task
//! it spawns run on the reused threads of [`crate::workers`], so a
//! schedule costs its decisions rather than its thread spawns.
//! Explorations are serialized process-wide — the checker is installed
//! globally, so two concurrent explorations would interleave each
//! other's tasks — and a quiet panic hook is held for the duration,
//! because teardown works by unwinding every task with
//! [`AbortSchedule`] and the default hook would print a backtrace per
//! task per schedule.
//!
//! A schedule *fails* when it panics, deadlocks, exhausts the step
//! budget, drops trace events past [`Config::trace_capacity`], or
//! (with [`Config::fail_on_defects`]) when the `pdc-analyze` passes
//! find defects in its trace. On the first failure the driver
//! shrinks the recorded choice sequence — binary-search prefix
//! truncation, then single-choice splice-out, every candidate verified
//! by lenient replay — and re-verifies the minimum, so the reported
//! minimal schedule is failing *by construction*, not by assumption.

use crate::canon;
use crate::controller::{AbortSchedule, Controller, Outcome, StepInfo, Summary};
use crate::strategy::{ChoiceRecord, Decide, Dfs, Pct, Replay, Schedule, ScheduleError};
use crate::workers;
use pdc_analyze::Report;
use pdc_core::trace::{self, Event, TraceSession};
use pdc_sync::hooks::{self, Checker as _, TaskId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Exploration budgets and knobs; `Default` suits the unit fixtures.
#[derive(Debug, Clone)]
pub struct Config {
    /// Per-schedule decision budget; exceeding it is a `Truncated`
    /// failure (livelock guard / DFS depth bound).
    pub max_steps: usize,
    /// How many schedules an exploration may run.
    pub max_schedules: usize,
    /// Base seed for PCT (schedule `i` uses `seed + i`).
    pub seed: u64,
    /// PCT bug depth `d` (number of priority bands to exercise).
    pub pct_depth: usize,
    /// PCT's estimate `k` of decision points per schedule.
    pub pct_len_estimate: usize,
    /// Per-thread trace buffer capacity for each schedule's session. A
    /// schedule whose task records more events than this fails: its
    /// trace would be judged truncated.
    pub trace_capacity: usize,
    /// Replay budget for shrinking a failing schedule.
    pub shrink_budget: usize,
    /// Whether `pdc-analyze` defects on a completed schedule count as
    /// failures (they do for the race gate; turn off to hunt only
    /// panics/deadlocks).
    pub fail_on_defects: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_steps: 20_000,
            max_schedules: 1_000,
            seed: 0x5eed_0001,
            pct_depth: 3,
            pct_len_estimate: 64,
            trace_capacity: 1 << 14,
            shrink_budget: 64,
            fail_on_defects: true,
        }
    }
}

/// Everything one executed schedule produced.
#[derive(Debug)]
pub struct RunResult {
    /// How the schedule ended.
    pub outcome: Outcome,
    /// Decision points consumed.
    pub steps: usize,
    /// The as-executed schedule (replayable).
    pub schedule: Schedule,
    /// Full decision log (enabled sets + picks), for DFS backtracking.
    pub decisions: Vec<ChoiceRecord>,
    /// Per-decision metadata (kind, acting task, clock window, hook
    /// accesses) — what DPOR's dependence analysis consumes.
    pub step_infos: Vec<StepInfo>,
    /// Raw (un-canonicalized) events with their original timestamps,
    /// for attributing events to decision windows.
    pub raw_events: Vec<Event>,
    /// How many tasks the body spawned (root included).
    pub task_count: usize,
    /// Canonicalized trace events (see [`crate::canon`]).
    pub events: Vec<Event>,
    /// The `pdc-analyze` verdict on this schedule's trace.
    pub report: Report,
}

impl RunResult {
    /// Canonical `pdc-trace/2` JSONL of [`RunResult::events`] —
    /// byte-comparable across replays. Rendered on each call.
    pub fn trace_jsonl(&self) -> String {
        canon::to_jsonl(&self.events)
    }

    /// Whether this run counts as a failure under `cfg`. A run whose
    /// trace buffers dropped events always fails, whatever
    /// [`Config::fail_on_defects`] says: its verdicts and its DPOR
    /// footprints would judge a truncated trace.
    pub fn failed(&self, cfg: &Config) -> bool {
        self.outcome != Outcome::Ok
            || self.report.dropped > 0
            || (cfg.fail_on_defects && !self.report.clean())
    }

    /// Human-readable failure description, `None` when the run passed.
    pub fn failure(&self, cfg: &Config) -> Option<String> {
        match &self.outcome {
            Outcome::Panic(msg) => Some(format!("panic: {msg}")),
            Outcome::Deadlock(live) => Some(format!("deadlock: tasks {live:?} all blocked")),
            Outcome::Truncated => Some(format!("truncated: exceeded {} steps", self.steps)),
            Outcome::Ok if self.report.dropped > 0 => Some(format!(
                "trace overflow: {} events dropped past Config::trace_capacity ({} per thread); \
                 the verdict would judge a truncated trace",
                self.report.dropped, cfg.trace_capacity
            )),
            Outcome::Ok if cfg.fail_on_defects && !self.report.clean() => {
                let kinds: Vec<&str> = self.report.defects.iter().map(|d| d.kind.name()).collect();
                Some(format!("analysis defects: {}", kinds.join(",")))
            }
            Outcome::Ok => None,
        }
    }
}

/// A failing schedule found by exploration, with its shrunk witness.
#[derive(Debug)]
pub struct FoundFailure {
    /// What went wrong (from the *original* failing run).
    pub description: String,
    /// The failing run exactly as first encountered.
    pub run: RunResult,
    /// The shrunk schedule — verified failing by replay.
    pub minimal: Schedule,
    /// The verifying replay of `minimal` (its failure may differ in
    /// kind from the original's; any failure kind counts).
    pub minimal_run: RunResult,
}

/// What an exploration established.
#[derive(Debug)]
pub struct ExploreReport {
    /// `"dfs"`, `"pct"`, or `"dpor"`.
    pub mode: &'static str,
    /// Schedules actually executed (excluding shrink replays).
    pub schedules_run: usize,
    /// DFS/DPOR only: the whole schedule tree was enumerated without
    /// failure — a proof over the bounded body, not a sample. Under
    /// DPOR the proof is relative to the instrumented footprint (the
    /// same observability contract `pdc-analyze` assumes).
    pub complete: bool,
    /// DPOR only: schedules provably redundant and skipped (sleep-set
    /// hits). Always 0 for DFS/PCT.
    pub pruned: usize,
    /// The first failure, if any schedule failed.
    pub failure: Option<FoundFailure>,
}

impl ExploreReport {
    /// Convenience: did every explored schedule pass?
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

// The checker seam is process-global, so explorations must not overlap;
// independent of the lock order in user bodies because checked bodies
// never call back into `explore`.
static EXPLORATION: Mutex<()> = Mutex::new(());

pub(crate) fn exploration_lock() -> MutexGuard<'static, ()> {
    EXPLORATION.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Silence the default panic hook while exploring: schedule teardown
/// unwinds every task via [`AbortSchedule`] panics, and failing bodies
/// panic once per shrink replay — hundreds of backtraces of noise.
pub(crate) struct QuietPanics;

impl QuietPanics {
    pub(crate) fn install() -> Self {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

pub(crate) type Body = Arc<dyn Fn() + Send + Sync + 'static>;

/// Execute the body once under `strategy`. Caller holds the
/// exploration lock.
pub(crate) fn run_schedule_locked(
    body: &Body,
    strategy: Box<dyn Decide>,
    strategy_name: &str,
    seed: u64,
    cfg: &Config,
) -> RunResult {
    let session = TraceSession::with_capacity(cfg.trace_capacity);
    let controller = Arc::new(Controller::with_clock(
        strategy,
        cfg.max_steps,
        Some(session.clone()),
    ));
    let prev = hooks::install_checker(controller.clone());
    debug_assert!(prev.is_none(), "explorations must be serialized");
    let root_trace = session.thread(0);
    let body = Arc::clone(body);
    let ctrl = Arc::clone(&controller);
    workers::run(move |checkin| {
        hooks::bind_root_task(0);
        ctrl.register_root_thread();
        trace::install_sync_trace(root_trace);
        let out = catch_unwind(AssertUnwindSafe(|| body()));
        trace::clear_sync_trace();
        if let Err(payload) = out {
            if payload.downcast_ref::<AbortSchedule>().is_none() {
                ctrl.abort_for_panic(&panic_text(payload.as_ref()));
            }
        }
        hooks::unbind_root_task();
        drop(checkin);
        ctrl.exit_task(0);
    });
    // The root's exit is part of the barrier: no join needed.
    let finished = controller.wait_all_finished(Duration::from_secs(10));
    hooks::uninstall_checker();
    assert!(
        finished,
        "pdc-check teardown stalled: a task never reached Finished"
    );
    let Summary {
        outcome,
        choices: decisions,
        step_infos,
        steps,
        task_count,
    } = controller.take_summary();
    let raw_events = session.events();
    let events = canon::canonicalize(&raw_events);
    let mut report = pdc_analyze::analyze_events(&events);
    report.dropped = session.dropped();
    RunResult {
        outcome,
        steps,
        schedule: Schedule::from_records(strategy_name, seed, &decisions),
        decisions,
        step_infos,
        raw_events,
        task_count,
        events,
        report,
    }
}

/// Replay a recorded schedule exactly (lenient past divergence) and
/// return the run. The public record/replay entry point.
pub fn replay(
    body: impl Fn() + Send + Sync + 'static,
    schedule: &Schedule,
    cfg: &Config,
) -> RunResult {
    let body: Body = Arc::new(body);
    let _lock = exploration_lock();
    let _quiet = QuietPanics::install();
    replay_locked(&body, schedule, cfg)
}

/// Like [`replay`], but validate the schedule against the body first:
/// a schedule naming a task the body never spawns is rejected with a
/// typed [`ScheduleError`] instead of silently replaying something
/// else (lenient replay would substitute enabled index 0 — right for
/// shrinking's self-generated candidates, wrong for external input).
///
/// The task count is only known by running the body, so validation is
/// a probe replay followed by the range check against the tasks that
/// probe actually spawned.
pub fn replay_strict(
    body: impl Fn() + Send + Sync + 'static,
    schedule: &Schedule,
    cfg: &Config,
) -> Result<RunResult, ScheduleError> {
    let body: Body = Arc::new(body);
    let _lock = exploration_lock();
    let _quiet = QuietPanics::install();
    let run = replay_locked(&body, schedule, cfg);
    schedule.validate_tasks(run.task_count)?;
    Ok(run)
}

pub(crate) fn replay_locked(body: &Body, schedule: &Schedule, cfg: &Config) -> RunResult {
    run_schedule_locked(
        body,
        Box::new(Replay::new(schedule.choices.clone())),
        "replay",
        schedule.seed,
        cfg,
    )
}

/// Shrink a failing choice sequence: binary-search the shortest failing
/// prefix, then splice out single choices, verifying every candidate by
/// replay. Returns the minimal schedule and its verifying run.
fn shrink_locked(body: &Body, choices: &[TaskId], cfg: &Config) -> Option<(Schedule, RunResult)> {
    let budget = std::cell::Cell::new(cfg.shrink_budget);
    let check = |ch: &[TaskId]| -> Option<RunResult> {
        if budget.get() == 0 {
            return None;
        }
        budget.set(budget.get() - 1);
        let sched = Schedule {
            strategy: "replay".into(),
            seed: 0,
            choices: ch.to_vec(),
        };
        let run = replay_locked(body, &sched, cfg);
        run.failed(cfg).then_some(run)
    };
    let mut best: Vec<TaskId> = choices.to_vec();
    let mut best_run: Option<RunResult> = None;
    // Shortest failing prefix (assumes rough monotonicity; every
    // accepted candidate is individually verified, so a non-monotone
    // body only costs minimality, never correctness).
    let mut lo = 0usize;
    let mut hi = best.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        match check(&best[..mid]) {
            Some(run) => {
                best.truncate(mid);
                best_run = Some(run);
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    // Splice-out pass.
    let mut i = 0usize;
    while i < best.len() && budget.get() > 0 {
        let mut cand = best.clone();
        cand.remove(i);
        match check(&cand) {
            Some(run) => {
                best = cand;
                best_run = Some(run);
            }
            None => i += 1,
        }
    }
    let minimal = Schedule {
        strategy: "replay".into(),
        seed: 0,
        choices: best.clone(),
    };
    // Re-verify when nothing shrank (best_run still None): the minimal
    // schedule must be *demonstrably* failing.
    let run = match best_run {
        Some(run) => run,
        None => {
            let run = replay_locked(body, &minimal, cfg);
            if !run.failed(cfg) {
                return None; // flaky under replay; report the original
            }
            run
        }
    };
    Some((minimal, run))
}

pub(crate) fn found(body: &Body, run: RunResult, cfg: &Config) -> FoundFailure {
    let description = run
        .failure(cfg)
        .unwrap_or_else(|| "failure vanished".into());
    let (minimal, minimal_run) =
        shrink_locked(body, &run.schedule.choices, cfg).unwrap_or_else(|| {
            // Shrinking could not certify anything smaller; fall back
            // to replaying the original, full sequence.
            let sched = Schedule {
                strategy: "replay".into(),
                seed: 0,
                choices: run.schedule.choices.clone(),
            };
            let rerun = replay_locked(body, &sched, cfg);
            (sched, rerun)
        });
    FoundFailure {
        description,
        run,
        minimal,
        minimal_run,
    }
}

/// Randomized PCT exploration: up to [`Config::max_schedules`] runs
/// with seeds `seed, seed+1, …`; stops (and shrinks) at the first
/// failing schedule.
///
/// [`Config::pct_len_estimate`] only seeds the *first* run's
/// change-point range; every later run derives `k` from the previous
/// run's observed decision count, so a stale or wildly-wrong estimate
/// self-corrects after one schedule instead of pushing every change
/// point past (or in front of) the schedule's real length.
pub fn explore_pct(body: impl Fn() + Send + Sync + 'static, cfg: &Config) -> ExploreReport {
    let body: Body = Arc::new(body);
    let _lock = exploration_lock();
    let _quiet = QuietPanics::install();
    let mut schedules_run = 0usize;
    let mut len_estimate = cfg.pct_len_estimate;
    for i in 0..cfg.max_schedules {
        let seed = cfg.seed.wrapping_add(i as u64);
        let strategy = Box::new(Pct::new(seed, cfg.pct_depth, len_estimate));
        let run = run_schedule_locked(&body, strategy, "pct", seed, cfg);
        schedules_run += 1;
        len_estimate = run.decisions.len().max(1);
        if run.failed(cfg) {
            return ExploreReport {
                mode: "pct",
                schedules_run,
                complete: false,
                pruned: 0,
                failure: Some(found(&body, run, cfg)),
            };
        }
    }
    ExploreReport {
        mode: "pct",
        schedules_run,
        complete: false,
        pruned: 0,
        failure: None,
    }
}

/// Bounded exhaustive DFS over the schedule tree via prefix-then-first
/// enumeration. `complete == true` means every schedule of the body
/// was executed without failure — a proof for the bounded body, which
/// is the claim the clean-fixture gate rests on.
pub fn explore_dfs(body: impl Fn() + Send + Sync + 'static, cfg: &Config) -> ExploreReport {
    let body: Body = Arc::new(body);
    let _lock = exploration_lock();
    let _quiet = QuietPanics::install();
    let mut prefix: Vec<usize> = Vec::new();
    let mut schedules_run = 0usize;
    loop {
        if schedules_run >= cfg.max_schedules {
            return ExploreReport {
                mode: "dfs",
                schedules_run,
                complete: false,
                pruned: 0,
                failure: None,
            };
        }
        let strategy = Box::new(Dfs::new(prefix.clone()));
        let run = run_schedule_locked(&body, strategy, "dfs", 0, cfg);
        schedules_run += 1;
        if run.failed(cfg) {
            return ExploreReport {
                mode: "dfs",
                schedules_run,
                complete: false,
                pruned: 0,
                failure: Some(found(&body, run, cfg)),
            };
        }
        // Backtrack: deepest decision with an untried sibling.
        let next = run.decisions.iter().enumerate().rev().find_map(|(i, rec)| {
            (rec.picked_index + 1 < rec.enabled.len()).then(|| {
                let mut p: Vec<usize> = run.decisions[..i].iter().map(|r| r.picked_index).collect();
                p.push(rec.picked_index + 1);
                p
            })
        });
        match next {
            Some(p) => prefix = p,
            None => {
                return ExploreReport {
                    mode: "dfs",
                    schedules_run,
                    complete: true,
                    pruned: 0,
                    failure: None,
                }
            }
        }
    }
}

/// One executed schedule, summarized for set comparison (property
/// tests compare DPOR's schedule set against full DFS's).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScheduleSummary {
    /// Task id granted at each decision (the replayable identity).
    pub choices: Vec<TaskId>,
    /// Whether the run ended [`Outcome::Ok`].
    pub ok: bool,
    /// Sorted, deduplicated defect kind names from `pdc-analyze`.
    pub defect_kinds: Vec<String>,
}

impl ScheduleSummary {
    pub(crate) fn of(run: &RunResult) -> ScheduleSummary {
        let mut defect_kinds: Vec<String> = run
            .report
            .defects
            .iter()
            .map(|d| d.kind.name().to_string())
            .collect();
        defect_kinds.sort_unstable();
        defect_kinds.dedup();
        ScheduleSummary {
            choices: run.schedule.choices.clone(),
            ok: run.outcome == Outcome::Ok,
            defect_kinds,
        }
    }
}

/// Exhaustive DFS that does *not* stop at failures: every schedule in
/// the tree (up to `max_schedules`) is executed and summarized. The
/// bool is the completeness flag. This is the ground truth the DPOR
/// property tests compare against; no shrinking, no early exit.
pub fn enumerate_dfs(
    body: impl Fn() + Send + Sync + 'static,
    cfg: &Config,
) -> (Vec<ScheduleSummary>, bool) {
    let body: Body = Arc::new(body);
    let _lock = exploration_lock();
    let _quiet = QuietPanics::install();
    let mut prefix: Vec<usize> = Vec::new();
    let mut out = Vec::new();
    loop {
        if out.len() >= cfg.max_schedules {
            return (out, false);
        }
        let strategy = Box::new(Dfs::new(prefix.clone()));
        let run = run_schedule_locked(&body, strategy, "dfs", 0, cfg);
        out.push(ScheduleSummary::of(&run));
        let next = run.decisions.iter().enumerate().rev().find_map(|(i, rec)| {
            (rec.picked_index + 1 < rec.enabled.len()).then(|| {
                let mut p: Vec<usize> = run.decisions[..i].iter().map(|r| r.picked_index).collect();
                p.push(rec.picked_index + 1);
                p
            })
        });
        match next {
            Some(p) => prefix = p,
            None => return (out, true),
        }
    }
}
