//! Dynamic partial-order reduction: exhaustive checking over provably
//! fewer schedules.
//!
//! Plain DFS ([`crate::explore::explore_dfs`]) enumerates every branch
//! of the schedule tree — `n!`-ish growth that makes "prove this body
//! clean" infeasible beyond toy sizes even when most interleavings are
//! equivalent. DPOR (Flanagan–Godefroid 2005) executes one schedule,
//! computes which steps actually *conflicted* (via
//! [`pdc_analyze::deps`] — the same dependence vocabulary the HB race
//! detector uses), and only backtracks where reordering could change
//! behaviour:
//!
//! * **persistent/backtrack sets** — for every pair of steps that race
//!   (conflict, not already ordered through an intermediate step, and
//!   reversible), the earlier step's node must also try the later
//!   step's task. Nodes whose steps conflict with nothing keep exactly
//!   one child.
//! * **sleep sets** — a choice whose entire subtree was explored goes
//!   to sleep; it stays redundant at later siblings until some executed
//!   step conflicts with it. A backtrack candidate found asleep is
//!   skipped and counted in [`ExploreReport::pruned`].
//!
//! A step's *footprint* is everything observable it touched: accesses
//! the controller noted at the hooks (failed lock probes, park tokens,
//! site wake-ups, task exits) plus every trace event the step's task
//! recorded during its execution window — attributed exactly, because
//! under the baton only the running task records, and the controller
//! stamps each decision with the session's logical clock.
//!
//! `complete == true` is therefore still a proof, but **relative to the
//! instrumented footprint**: two steps whose interaction is invisible
//! to both the hooks and the trace (e.g. raw `static mut` touched
//! without `record_var_*`) are treated as independent. That is the
//! same observability contract `pdc-analyze`'s verdicts already rest
//! on — DPOR proves "no defect any instrumented interleaving can
//! exhibit", which is exactly what DFS proves, over fewer runs.
//!
//! Every DPOR run is executed through [`crate::strategy::Dfs`] with a
//! forced branch prefix, so each explored schedule is by construction
//! one plain DFS would also reach — the property tests lean on that to
//! check the schedule set is a subset of full DFS's with identical
//! verdicts.

use crate::explore::{self, Body, Config, ExploreReport, RunResult, ScheduleSummary};
use crate::strategy::Dfs;
use pdc_analyze::deps::{self, Access};
use pdc_sync::hooks::{ChoiceKind, TaskId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One frame of the DPOR search stack — a decision point of the
/// currently-forced schedule prefix.
struct Node {
    /// Choices available here: enabled task ids, or pseudo-ids `0..n`
    /// at a data node (steal victim / wake order).
    enabled: Vec<TaskId>,
    kind: ChoiceKind,
    /// The choice the current branch follows.
    chosen: TaskId,
    /// Footprint of `chosen`'s step, from the run that executed it.
    foot: Vec<Access>,
    /// Choices whose subtrees are fully explored (or slept away), with
    /// the footprint each had when it was the chosen step.
    done: Vec<(TaskId, Vec<Access>)>,
    /// Choices this node must try (the persistent-set seeds). Starts
    /// as `{chosen}` for scheduling nodes, everything for data nodes,
    /// and grows as races land here.
    backtrack: BTreeSet<TaskId>,
}

impl Node {
    fn is_done(&self, t: TaskId) -> bool {
        self.done.iter().any(|(d, _)| *d == t)
    }

    fn has_untried(&self) -> bool {
        self.backtrack
            .iter()
            .any(|t| *t != self.chosen && !self.is_done(*t))
    }
}

/// Full footprint of every decision in `run`: the controller's hook
/// accesses plus the trace events recorded in each decision's logical
/// clock window `[ts_k, ts_{k+1})`. Events before the first decision
/// are the deterministic preamble every schedule shares — no conflict
/// there is reversible, so they are dropped.
fn footprints(run: &RunResult) -> Vec<Vec<Access>> {
    let infos = &run.step_infos;
    let mut foots: Vec<Vec<Access>> = infos.iter().map(|si| si.accesses.clone()).collect();
    if foots.is_empty() {
        return foots;
    }
    for e in &run.raw_events {
        if e.ts < infos[0].ts {
            continue;
        }
        // Last k with infos[k].ts <= e.ts (timestamps are nondecreasing
        // in decision order: both come from one monotone clock).
        let k = infos.partition_point(|si| si.ts <= e.ts) - 1;
        foots[k].extend(deps::event_accesses(e));
    }
    foots
}

/// Seed backtrack sets from the races of one executed run.
///
/// A pair `(j, k)` races when the steps conflict reversibly and `j` is
/// an *immediate* predecessor of `k` — no other predecessor of `k`
/// already orders `j` before `k`, so the two could have run in the
/// opposite order. For each race, node `j` must additionally try
/// `task(k)` (or, if `task(k)` was not enabled there, every task that
/// was — the coarse Flanagan–Godefroid fallback).
///
/// The immediacy ("covered") filter is sound only because every
/// conflict edge contributing to `hb` is either a reversible race pair
/// (which gets seeded itself, so the suppressed outer pair is reached
/// through it) or a genuinely forced ordering that holds in *every*
/// execution (exit → join-wake, fork → join). Orderings that merely
/// happened to hold this run but carry no forcing — a joiner's "is the
/// child still alive?" probe, say — must not appear in step footprints
/// at all, or they would cover real races with an edge that can never
/// be reversed (see `Controller::join_wait`).
///
/// Happens-before is kept as one bitset row per step (`words` u64s,
/// bit `j` of row `k` set when step `j` happens before step `k`), so a
/// row is the OR of its predecessors' rows.
fn seed_backtracks(stack: &mut [Node], run: &RunResult, foots: &[Vec<Access>]) {
    let infos = &run.step_infos;
    let n = stack.len().min(infos.len()).min(foots.len());
    let words = n.div_ceil(64);
    let mut hb: Vec<u64> = vec![0; n * words];
    let before = |hb: &[u64], m: usize, j: usize| hb[m * words + j / 64] >> (j % 64) & 1 == 1;
    let mut last_by_task: Vec<Option<usize>> = vec![None; run.task_count];
    for k in 0..n {
        let task = infos[k].task as usize;
        let mut preds: Vec<usize> = Vec::new();
        if let Some(j) = last_by_task[task] {
            preds.push(j);
        }
        for j in 0..k {
            if infos[j].task != infos[k].task
                && !preds.contains(&j)
                && deps::footprints_conflict(&foots[j], &foots[k])
            {
                preds.push(j);
            }
        }
        let (earlier, rest) = hb.split_at_mut(k * words);
        let row = &mut rest[..words];
        for &m in &preds {
            row[m / 64] |= 1 << (m % 64);
            for (w, bits) in row.iter_mut().enumerate() {
                *bits |= earlier[m * words + w];
            }
        }
        for &j in &preds {
            if infos[j].task == infos[k].task {
                continue;
            }
            if !deps::footprints_race(&foots[j], &foots[k]) {
                continue;
            }
            let covered = preds.iter().any(|&m| m != j && before(earlier, m, j));
            if !covered {
                seed_one(stack, j, infos[k].task);
            }
        }
        last_by_task[task] = Some(k);
    }
}

/// Add `t` to the backtrack set of the scheduling node governing
/// decision `j`. Data nodes are not reversible scheduling points (the
/// baton holder is fixed there), so a race landing on one walks back
/// to the nearest earlier `Task`-kind node — the point where running
/// the other task first becomes expressible.
fn seed_one(stack: &mut [Node], mut j: usize, t: TaskId) {
    while j > 0 && stack[j].kind != ChoiceKind::Task {
        j -= 1;
    }
    if stack[j].kind != ChoiceKind::Task {
        return; // race before the first scheduling decision: unreachable order
    }
    if stack[j].enabled.contains(&t) {
        stack[j].backtrack.insert(t);
    } else {
        let all: Vec<TaskId> = stack[j].enabled.clone();
        stack[j].backtrack.extend(all);
    }
}

/// The sleep set on entry to node `i`: fully-explored sibling choices
/// of every ancestor, minus any woken by a conflicting step on the way
/// down. A task asleep here has its entire subtree proven equivalent
/// to one already explored. Only `Task`-kind choices sleep — data
/// pseudo-ids live in a different namespace and are always enumerated.
fn sleep_at(stack: &[Node], i: usize) -> Vec<(TaskId, Vec<Access>)> {
    let mut sleep: Vec<(TaskId, Vec<Access>)> = Vec::new();
    for node in &stack[..i] {
        if node.kind == ChoiceKind::Task {
            for (t, f) in &node.done {
                if *t != node.chosen && !sleep.iter().any(|(s, _)| s == t) {
                    sleep.push((*t, f.clone()));
                }
            }
            sleep.retain(|(t, f)| *t != node.chosen && !deps::footprints_conflict(f, &node.foot));
        } else {
            // Crossing a data step only wakes by footprint: its
            // pseudo-id `chosen` must not alias a sleeping task id.
            sleep.retain(|(_, f)| !deps::footprints_conflict(f, &node.foot));
        }
    }
    sleep
}

/// DPOR exploration: like [`crate::explore::explore_dfs`] — stops and
/// shrinks at the first failure, sets [`ExploreReport::complete`] when
/// the reduced tree is exhausted — but visits only one schedule per
/// equivalence class of independent-step reorderings (plus the
/// sound-side slack of the coarse footprint vocabulary).
pub fn explore_dpor(body: impl Fn() + Send + Sync + 'static, cfg: &Config) -> ExploreReport {
    let body: Body = Arc::new(body);
    let _lock = explore::exploration_lock();
    let _quiet = explore::QuietPanics::install();
    dpor_locked(&body, cfg, true).0
}

/// Every schedule DPOR executes, summarized — the counterpart of
/// [`crate::explore::enumerate_dfs`] for set-comparison property
/// tests. Does not stop at failures. Returns `(summaries, complete,
/// pruned)`.
pub fn enumerate_dpor(
    body: impl Fn() + Send + Sync + 'static,
    cfg: &Config,
) -> (Vec<ScheduleSummary>, bool, usize) {
    let body: Body = Arc::new(body);
    let _lock = explore::exploration_lock();
    let _quiet = explore::QuietPanics::install();
    let (report, summaries) = dpor_locked(&body, cfg, false);
    (summaries, report.complete, report.pruned)
}

fn dpor_locked(
    body: &Body,
    cfg: &Config,
    stop_on_failure: bool,
) -> (ExploreReport, Vec<ScheduleSummary>) {
    let mut stack: Vec<Node> = Vec::new();
    let mut schedules_run = 0usize;
    let mut pruned = 0usize;
    let mut summaries: Vec<ScheduleSummary> = Vec::new();
    let incomplete = |schedules_run, pruned, failure| ExploreReport {
        mode: "dpor",
        schedules_run,
        complete: false,
        pruned,
        failure,
    };
    loop {
        if schedules_run >= cfg.max_schedules {
            return (incomplete(schedules_run, pruned, None), summaries);
        }
        let prefix: Vec<usize> = stack
            .iter()
            .map(|n| n.enabled.iter().position(|t| *t == n.chosen).unwrap_or(0))
            .collect();
        let run = explore::run_schedule_locked(body, Box::new(Dfs::new(prefix)), "dpor", 0, cfg);
        schedules_run += 1;
        if !stop_on_failure {
            summaries.push(ScheduleSummary::of(&run));
        }
        // The forced prefix replays deterministically, so the stack is
        // a prefix of this run's decisions; extend it with the free
        // suffix. (A run can only end early relative to the stack if
        // the body itself is nondeterministic — truncate defensively.)
        stack.truncate(run.decisions.len());
        for k in stack.len()..run.decisions.len() {
            let rec = &run.decisions[k];
            let kind = run
                .step_infos
                .get(k)
                .map(|si| si.kind)
                .unwrap_or(ChoiceKind::Task);
            let chosen = rec.picked_task();
            let mut backtrack = BTreeSet::new();
            if kind == ChoiceKind::Task {
                backtrack.insert(chosen);
            } else {
                // Data choices have no independence structure to
                // exploit: enumerate every alternative, like DFS.
                backtrack.extend(rec.enabled.iter().copied());
            }
            stack.push(Node {
                enabled: rec.enabled.clone(),
                kind,
                chosen,
                foot: Vec::new(),
                done: Vec::new(),
                backtrack,
            });
        }
        let foots = footprints(&run);
        for (k, foot) in foots.iter().enumerate().take(stack.len()) {
            debug_assert_eq!(stack[k].chosen, run.decisions[k].picked_task());
            stack[k].foot = foot.clone();
        }
        seed_backtracks(&mut stack, &run, &foots);
        if stop_on_failure && run.failed(cfg) {
            let failure = Some(explore::found(body, run, cfg));
            return (incomplete(schedules_run, pruned, failure), summaries);
        }
        // Pick the next branch: deepest node with an untried backtrack
        // candidate; abandon everything below it.
        loop {
            let Some(i) = (0..stack.len()).rev().find(|&i| stack[i].has_untried()) else {
                let report = ExploreReport {
                    mode: "dpor",
                    schedules_run,
                    complete: true,
                    pruned,
                    failure: None,
                };
                return (report, summaries);
            };
            stack.truncate(i + 1);
            let node_chosen = stack[i].chosen;
            if !stack[i].is_done(node_chosen) {
                let foot = stack[i].foot.clone();
                stack[i].done.push((node_chosen, foot));
            }
            let sleep = sleep_at(&stack, i);
            let candidates: Vec<TaskId> = stack[i]
                .backtrack
                .iter()
                .copied()
                .filter(|t| !stack[i].is_done(*t))
                .collect();
            let mut picked = None;
            for c in candidates {
                if stack[i].kind == ChoiceKind::Task {
                    if let Some((_, f)) = sleep.iter().find(|(t, _)| *t == c) {
                        // Asleep: this subtree is a reordering of one
                        // already explored from an earlier sibling.
                        stack[i].done.push((c, f.clone()));
                        pruned += 1;
                        continue;
                    }
                }
                picked = Some(c);
                break;
            }
            match picked {
                Some(c) => {
                    stack[i].chosen = c;
                    stack[i].foot = Vec::new();
                    break;
                }
                None => continue, // exhausted by sleeps: pop further up
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{enumerate_dfs, explore_dfs};
    use crate::fixtures;
    use crate::Outcome;
    use pdc_analyze::DefectKind;
    use pdc_sync::Fairness;

    fn cfg(max_schedules: usize) -> Config {
        Config {
            max_schedules,
            ..Config::default()
        }
    }

    #[test]
    fn dpor_proves_fixed_counter_clean_with_strictly_fewer_schedules() {
        let dfs = explore_dfs(fixtures::fixed_counter_body(2, 1), &cfg(50_000));
        let dpor = explore_dpor(fixtures::fixed_counter_body(2, 1), &cfg(50_000));
        assert!(dfs.passed() && dfs.complete, "baseline DFS proof");
        assert!(
            dpor.passed() && dpor.complete,
            "{:?}",
            dpor.failure.map(|f| f.description)
        );
        assert!(
            dpor.schedules_run < dfs.schedules_run,
            "reduction must be real: dpor {} vs dfs {}",
            dpor.schedules_run,
            dfs.schedules_run
        );
    }

    #[test]
    fn dpor_still_convicts_the_racy_counter() {
        let report = explore_dpor(fixtures::racy_counter_body(2), &cfg(50_000));
        let failure = report.failure.expect("racy counter must fail under dpor");
        assert!(
            failure.run.report.count_kind(DefectKind::DataRace) >= 1,
            "{}",
            failure.description
        );
        assert!(failure.minimal_run.failed(&cfg(50_000)));
    }

    #[test]
    fn dpor_still_finds_the_abba_deadlock() {
        let c = Config {
            max_schedules: 50_000,
            fail_on_defects: false,
            ..Config::default()
        };
        let report = explore_dpor(fixtures::abba_deadlock_body(), &c);
        let failure = report.failure.expect("AB-BA must deadlock under dpor");
        assert!(
            matches!(failure.run.outcome, Outcome::Deadlock(_)),
            "{}",
            failure.description
        );
    }

    #[test]
    fn independent_counters_finish_under_dpor_where_dfs_cannot() {
        // 4 tasks with a private mutex each: every interleaving is
        // equivalent. Equal budgets; DFS drowns in the factorial tree,
        // DPOR proves the body clean almost immediately.
        let budget = cfg(200);
        let dfs = explore_dfs(fixtures::independent_counters_body(4, 1), &budget);
        assert!(
            !dfs.complete,
            "DFS should not exhaust this tree in {} schedules (ran {})",
            budget.max_schedules, dfs.schedules_run
        );
        let dpor = explore_dpor(fixtures::independent_counters_body(4, 1), &budget);
        assert!(
            dpor.passed() && dpor.complete,
            "{:?}",
            dpor.failure.map(|f| f.description)
        );
        assert!(
            dpor.schedules_run < budget.max_schedules,
            "completed in {} schedules",
            dpor.schedules_run
        );
    }

    #[test]
    fn channel_handoff_is_clean_and_racy_variant_is_convicted() {
        let clean = explore_dpor(fixtures::channel_handoff_body(2), &cfg(50_000));
        assert!(
            clean.passed() && clean.complete,
            "{:?}",
            clean.failure.map(|f| f.description)
        );
        let racy = explore_dpor(fixtures::channel_racy_body(), &cfg(50_000));
        let failure = racy.failure.expect("unordered read must race");
        assert!(
            failure.run.report.count_kind(DefectKind::DataRace) >= 1,
            "{}",
            failure.description
        );
    }

    #[test]
    fn adversarial_wake_order_explores_more_schedules_than_fifo() {
        // Same body, same budget; the only difference is whether
        // notify/release wake order is a choice point. Both must be
        // clean — the adversarial policy buys coverage, not failures.
        let fifo = explore_dfs(
            fixtures::semaphore_wake_order_body(Fairness::Fifo),
            &cfg(50_000),
        );
        let adv = explore_dfs(
            fixtures::semaphore_wake_order_body(Fairness::Adversarial),
            &cfg(50_000),
        );
        assert!(
            fifo.passed() && fifo.complete,
            "{:?}",
            fifo.failure.map(|f| f.description)
        );
        assert!(
            adv.passed() && adv.complete,
            "{:?}",
            adv.failure.map(|f| f.description)
        );
        assert!(
            adv.schedules_run > fifo.schedules_run,
            "wake-order choice points must add branches: adv {} vs fifo {}",
            adv.schedules_run,
            fifo.schedules_run
        );
    }

    #[test]
    fn dpor_enumerates_a_subset_of_dfs_with_equal_verdicts() {
        let (dfs, dfs_complete) = enumerate_dfs(fixtures::fixed_counter_body(2, 1), &cfg(50_000));
        let (dpor, dpor_complete, _) =
            enumerate_dpor(fixtures::fixed_counter_body(2, 1), &cfg(50_000));
        assert!(dfs_complete && dpor_complete);
        for s in &dpor {
            assert!(
                dfs.iter().any(|d| d.choices == s.choices),
                "dpor schedule {:?} not reachable by dfs",
                s.choices
            );
        }
        let verdicts = |set: &[ScheduleSummary]| {
            let mut v: Vec<(bool, Vec<String>)> =
                set.iter().map(|s| (s.ok, s.defect_kinds.clone())).collect();
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(verdicts(&dfs), verdicts(&dpor));
    }

    #[test]
    fn pct_convicts_racy_counter_despite_a_stale_len_estimate() {
        // A wildly-wrong `k` used to push every priority-change point
        // beyond the end of each schedule for the whole exploration;
        // now only the first run suffers, because later runs derive the
        // estimate from the previous run's observed length. With
        // defects-as-failures off, only a *lost update* (which needs a
        // mid-window preemption) convicts — the symptom stale change
        // points suppress.
        let c = Config {
            pct_len_estimate: 1_000_000,
            fail_on_defects: false,
            max_schedules: 1_000,
            ..Config::default()
        };
        let report = crate::explore_pct(fixtures::racy_counter_body(2), &c);
        let failure = report
            .failure
            .expect("lost update must surface within budget");
        assert!(
            matches!(failure.run.outcome, Outcome::Panic(_)),
            "{}",
            failure.description
        );
    }

    #[test]
    fn checked_pool_body_explores_clean() {
        // Workers are checked tasks and victim selection is a choice
        // point, so a pool body is explorable like spawned tasks.
        let c = cfg(3_000);
        let report = explore_dpor(
            || {
                use std::sync::atomic::{AtomicU64, Ordering};
                use std::sync::Arc;
                let pool = pdc_threads::pool::WorkStealingPool::new(2);
                let hits = Arc::new(AtomicU64::new(0));
                for _ in 0..2 {
                    let hits = Arc::clone(&hits);
                    pool.spawn(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
                pool.wait_idle();
                assert_eq!(hits.load(Ordering::Relaxed), 2);
                drop(pool);
            },
            &c,
        );
        assert!(
            report.passed(),
            "{:?}",
            report.failure.map(|f| f.description)
        );
        assert!(report.schedules_run >= 1);
    }

    #[test]
    fn strict_replay_rejects_schedules_naming_unspawned_tasks() {
        let junk = crate::Schedule {
            strategy: "replay".into(),
            seed: 0,
            choices: vec![0, 99, 1],
        };
        let err = crate::replay_strict(fixtures::fixed_counter_body(2, 1), &junk, &cfg(16))
            .expect_err("task 99 is never spawned");
        assert_eq!(
            err,
            crate::ScheduleError::TaskOutOfRange {
                decision: 1,
                task: 99,
                task_count: 3
            }
        );
        // A well-formed schedule passes the same gate.
        let probe = crate::replay(fixtures::fixed_counter_body(2, 1), &junk_free(), &cfg(16));
        assert!(crate::replay_strict(
            fixtures::fixed_counter_body(2, 1),
            &probe.schedule,
            &cfg(16)
        )
        .is_ok());
    }

    /// Explore `body` and pin the exact size of its reduced tree.
    fn assert_tree(
        body: impl Fn() + Send + Sync + 'static,
        name: &str,
        schedules: usize,
        pruned: usize,
    ) {
        let report = explore_dpor(body, &cfg(1_000_000));
        assert!(
            report.passed() && report.complete,
            "{name}: {:?}",
            report.failure.map(|f| f.description)
        );
        assert_eq!(
            (report.schedules_run, report.pruned),
            (schedules, pruned),
            "{name}: (schedules, pruned) moved; the reduction must not change"
        );
    }

    #[test]
    fn reduced_trees_of_the_benchmark_smoke_bodies_are_pinned() {
        assert_tree(fixtures::fixed_counter_body(2, 1), "counter2x1", 3, 0);
        assert_tree(fixtures::channel_handoff_body(2), "handoff2", 10, 0);
        assert_tree(fixtures::fixed_counter_body(2, 2), "counter2x2", 10, 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full-size trees; run with --release")]
    fn reduced_trees_of_the_benchmark_bodies_are_pinned() {
        assert_tree(fixtures::fixed_counter_body(4, 2), "counter4x2", 2710, 981);
        assert_tree(fixtures::channel_handoff_body(6), "handoff6", 1716, 0);
        assert_tree(fixtures::fixed_counter_body(3, 3), "counter3x3", 1397, 260);
    }

    fn junk_free() -> crate::Schedule {
        crate::Schedule {
            strategy: "replay".into(),
            seed: 0,
            choices: vec![],
        }
    }
}
