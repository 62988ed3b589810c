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

use crate::controller::StepInfo;
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
    let events = &run.raw_events;
    // Events and decisions share one monotone clock, so a decision's
    // events are one slice of the sorted stream.
    let start = |ts: u64| events.partition_point(|e| e.ts < ts);
    infos
        .iter()
        .enumerate()
        .map(|(k, si)| {
            let end = infos.get(k + 1).map_or(events.len(), |next| start(next.ts));
            let window = &events[start(si.ts)..end];
            let mut foot = Vec::with_capacity(si.accesses.len() + window.len());
            // A footprint is a set: a step that takes and drops one
            // lock names its site once.
            let events = window.iter().filter_map(deps::event_accesses);
            for a in si.accesses.iter().copied().chain(events) {
                if !foot.contains(&a) {
                    foot.push(a);
                }
            }
            foot
        })
        .collect()
}

/// Seed backtrack sets from the races of one executed run (see
/// [`races`]). For each race `(j, k)`, node `j` must additionally try
/// `task(k)` (or, if `task(k)` was not enabled there, every task that
/// was — the coarse Flanagan–Godefroid fallback).
fn seed_backtracks(stack: &mut [Node], run: &RunResult, foots: &[Vec<Access>]) {
    let n = stack.len().min(run.step_infos.len());
    races(&run.step_infos[..n], foots, run.task_count, |j, t| {
        seed_one(stack, j, t);
    });
}

/// Call `race(j, task(k))` for every race `(j, k)` among the steps
/// `infos` (with footprints `foots`), and return happens-before as one
/// bitset row per step (`words` u64s, bit `j` of row `k` set when step
/// `j` happens before step `k`), so a row is the OR of its
/// predecessors' rows.
///
/// A pair `(j, k)` races when the steps conflict reversibly and `j` is
/// an *immediate* predecessor of `k` — no other predecessor of `k`
/// already orders `j` before `k`, so the two could have run in the
/// opposite order.
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
/// A step's predecessors are its task's previous step plus, for each
/// access in its footprint, the conflicting [`LastAccess`] by another
/// task — not every earlier conflicting step, as a pairwise scan would
/// take (Flanagan and Godefroid keep the same per-resource last
/// accesses as clock vectors). Nothing is lost: an earlier access the
/// table dropped conflicts with the later access that replaced it, so
/// it already happens before that predecessor, and a pairwise scan
/// would have found it covered. The rows and the races are those of
/// the pairwise scan; a step costs a few table lookups per access
/// instead of a scan over every earlier step.
fn races(
    infos: &[StepInfo],
    foots: &[Vec<Access>],
    task_count: usize,
    mut race: impl FnMut(usize, TaskId),
) -> Vec<u64> {
    let n = infos.len().min(foots.len());
    let words = n.div_ceil(64);
    let mut hb: Vec<u64> = vec![0; n * words];
    let before = |hb: &[u64], m: usize, j: usize| hb[m * words + j / 64] >> (j % 64) & 1 == 1;
    let mut last_by_task: Vec<Option<usize>> = vec![None; task_count];
    let mut last = LastAccess::default();
    let mut preds: Vec<usize> = Vec::new();
    for k in 0..n {
        let task = infos[k].task;
        preds.clear();
        preds.extend(last_by_task[task as usize]);
        for a in &foots[k] {
            last.conflicting(a, |j| {
                if infos[j].task != task && !preds.contains(&j) {
                    preds.push(j);
                }
            });
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
            if infos[j].task == task {
                continue;
            }
            let covered = preds.iter().any(|&m| m != j && before(earlier, m, j));
            if !covered && deps::footprints_race(&foots[j], &foots[k]) {
                race(j, task);
            }
        }
        last_by_task[task as usize] = Some(k);
        for a in &foots[k] {
            last.record(a, task, k);
        }
    }
    hb
}

/// Per resource, the latest steps that a later conflicting access must
/// be ordered after; every earlier access of the resource already
/// happens before one of them. Both tables are sorted by key, so a
/// lookup is a binary search and only a resource's first access
/// inserts.
#[derive(Default)]
struct LastAccess {
    /// Every resource but a variable, by [`resource`] key: the last
    /// step that touched it. Any two accesses of one such resource
    /// conflict, so the last one orders all before it.
    last: Vec<((u8, u64), usize)>,
    /// Per variable: the last write, and per task the last read since
    /// that write. Reads do not conflict with each other, so a later
    /// write must be ordered after each of them.
    vars: Vec<(u64, VarAccesses)>,
}

#[derive(Default)]
struct VarAccesses {
    write: Option<usize>,
    reads: Vec<(TaskId, usize)>,
}

/// [`resource`]'s key class for [`Access::Site`]; [`Access::AnySite`]
/// sorts right after every site, so one range holds both.
const SITE: u8 = 1;
const ANY_SITE: (u8, u64) = (SITE + 1, 0);

/// The resource `a` touches, as an ordered key. Variables are kept
/// apart ([`LastAccess::vars`]), because their reads do not conflict.
fn resource(a: &Access) -> (u8, u64) {
    match *a {
        Access::Var { id, .. } => (0, id),
        Access::Site(s) => (SITE, s),
        Access::AnySite => ANY_SITE,
        Access::Channel(c) => (3, c),
        Access::Handle(h) => (4, h),
        Access::Message => (5, 0),
        Access::PoolQueue => (6, 0),
        Access::ParkToken(t) => (7, t.into()),
        Access::TaskExit(t) => (8, t.into()),
    }
}

/// `table`'s value for `key`, if any.
fn lookup<K: Ord, V>(table: &[(K, V)], key: K) -> Option<&V> {
    let i = table.binary_search_by(|(k, _)| k.cmp(&key)).ok()?;
    Some(&table[i].1)
}

/// `table`'s value for `key`, inserted as the default on first use.
fn entry<K: Ord, V: Default>(table: &mut Vec<(K, V)>, key: K) -> &mut V {
    let i = match table.binary_search_by(|(k, _)| k.cmp(&key)) {
        Ok(i) => i,
        Err(i) => {
            table.insert(i, (key, V::default()));
            i
        }
    };
    &mut table[i].1
}

impl LastAccess {
    /// Hand `pred` every step in the table that `a` conflicts with.
    fn conflicting(&self, a: &Access, mut pred: impl FnMut(usize)) {
        match *a {
            Access::Var { id, write } => {
                if let Some(var) = lookup(&self.vars, id) {
                    if let Some(w) = var.write {
                        pred(w);
                    }
                    if write {
                        var.reads.iter().for_each(|&(_, r)| pred(r));
                    }
                }
            }
            // An unidentified probe conflicts with every site.
            Access::AnySite => {
                let from = self.last.partition_point(|(k, _)| *k < (SITE, 0));
                let to = self.last.partition_point(|(k, _)| *k <= ANY_SITE);
                self.last[from..to].iter().for_each(|&(_, j)| pred(j));
            }
            _ => {
                if let Some(&j) = lookup(&self.last, resource(a)) {
                    pred(j);
                }
                // A site also conflicts with an unidentified probe.
                if matches!(a, Access::Site(_)) {
                    if let Some(&j) = lookup(&self.last, ANY_SITE) {
                        pred(j);
                    }
                }
            }
        }
    }

    /// Record that step `k`, of `task`, made access `a`.
    fn record(&mut self, a: &Access, task: TaskId, k: usize) {
        match *a {
            Access::Var { id, write: true } => {
                let var = entry(&mut self.vars, id);
                var.write = Some(k);
                var.reads.clear();
            }
            Access::Var { id, write: false } => {
                let reads = &mut entry(&mut self.vars, id).reads;
                match reads.iter_mut().find(|(t, _)| *t == task) {
                    Some(read) => read.1 = k,
                    None => reads.push((task, k)),
                }
            }
            _ => *entry(&mut self.last, resource(a)) = k,
        }
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

/// The sleep set on entry to the node below `ancestors`: fully-explored
/// sibling choices of every ancestor, minus any woken by a conflicting
/// step on the way down, each with the footprint it had when it was
/// the chosen step. A task asleep here has its entire subtree proven
/// equivalent to one already explored. Only `Task`-kind choices sleep —
/// data pseudo-ids live in a different namespace and are always
/// enumerated.
fn sleep_at(ancestors: &[Node]) -> Vec<(TaskId, &[Access])> {
    let mut sleep: Vec<(TaskId, &[Access])> = Vec::new();
    for node in ancestors {
        if node.kind == ChoiceKind::Task {
            for (t, f) in &node.done {
                if *t != node.chosen && !sleep.iter().any(|(s, _)| s == t) {
                    sleep.push((*t, f));
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
        seed_backtracks(&mut stack, &run, &foots);
        for (k, (node, foot)) in stack.iter_mut().zip(foots).enumerate() {
            debug_assert_eq!(node.chosen, run.decisions[k].picked_task());
            node.foot = foot;
        }
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
            let (ancestors, rest) = stack.split_at_mut(i);
            let node = &mut rest[0];
            if !node.is_done(node.chosen) {
                let foot = std::mem::take(&mut node.foot);
                node.done.push((node.chosen, foot));
            }
            let sleep = sleep_at(ancestors);
            let candidates: Vec<TaskId> = node
                .backtrack
                .iter()
                .copied()
                .filter(|t| !node.is_done(*t))
                .collect();
            let mut picked = None;
            for c in candidates {
                if node.kind == ChoiceKind::Task {
                    if let Some((_, f)) = sleep.iter().find(|(t, _)| *t == c) {
                        // Asleep: this subtree is a reordering of one
                        // already explored from an earlier sibling.
                        node.done.push((c, f.to_vec()));
                        pruned += 1;
                        continue;
                    }
                }
                picked = Some(c);
                break;
            }
            match picked {
                Some(c) => {
                    node.chosen = c;
                    node.foot = Vec::new();
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
    use pdc_core::trace;
    use pdc_sync::Fairness;
    use proptest::prelude::*;

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
        let report = explore_dpor(pool_body(), &c);
        assert!(
            report.passed(),
            "{:?}",
            report.failure.map(|f| f.description)
        );
        assert!(report.schedules_run >= 1);
    }

    /// Two jobs on a checked two-worker pool.
    fn pool_body() -> impl Fn() + Send + Sync + 'static {
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
        }
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

    /// Two tasks each record 8 reads of fresh variables, then both write
    /// one shared variable with no lock: every schedule races.
    fn overflowing_racy_body() -> impl Fn() + Send + Sync + 'static {
        || {
            let shared = trace::next_site_id();
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    crate::spawn(move || {
                        for _ in 0..8 {
                            trace::record_var_read(trace::next_site_id());
                        }
                        trace::record_var_write(shared);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
        }
    }

    #[test]
    fn dropped_trace_events_fail_the_schedule() {
        let roomy = explore_dpor(overflowing_racy_body(), &cfg(1_000));
        let failure = roomy.failure.expect("the unlocked writes race");
        assert!(
            failure.run.report.count_kind(DefectKind::DataRace) >= 1,
            "{}",
            failure.description
        );
        // With 4 events per thread the writes fall off the trace; a
        // schedule that judged the rest would prove the body clean.
        for fail_on_defects in [true, false] {
            let tiny = Config {
                trace_capacity: 4,
                fail_on_defects,
                ..cfg(1_000)
            };
            let report = explore_dpor(overflowing_racy_body(), &tiny);
            let failure = report.failure.expect("a truncated trace must not pass");
            let dropped = failure.run.report.dropped;
            assert!(dropped > 0);
            assert!(
                failure
                    .description
                    .contains(&format!("{dropped} events dropped"))
                    && failure.description.contains("Config::trace_capacity (4"),
                "{}",
                failure.description
            );
        }
    }

    /// Today's pairwise race seeding, kept as the reference that
    /// [`races`] must match: step `k`'s predecessors are its task's
    /// previous step and *every* earlier step of another task whose
    /// footprint conflicts with its own.
    fn races_pairwise(
        infos: &[StepInfo],
        foots: &[Vec<Access>],
        task_count: usize,
        mut race: impl FnMut(usize, TaskId),
    ) -> Vec<u64> {
        let n = infos.len().min(foots.len());
        let words = n.div_ceil(64);
        let mut hb: Vec<u64> = vec![0; n * words];
        let before = |hb: &[u64], m: usize, j: usize| hb[m * words + j / 64] >> (j % 64) & 1 == 1;
        let mut last_by_task: Vec<Option<usize>> = vec![None; task_count];
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
                    race(j, infos[k].task);
                }
            }
            last_by_task[task] = Some(k);
        }
        hb
    }

    /// The (node, task) pairs each seeding adds, and its
    /// happens-before rows: `[last access, pairwise]`.
    type Seeding = (BTreeSet<(usize, TaskId)>, Vec<u64>);

    fn both_seedings(infos: &[StepInfo], foots: &[Vec<Access>], tasks: usize) -> [Seeding; 2] {
        let mut ours = BTreeSet::new();
        let rows = races(infos, foots, tasks, |j, t| {
            ours.insert((j, t));
        });
        let mut reference = BTreeSet::new();
        let reference_rows = races_pairwise(infos, foots, tasks, |j, t| {
            reference.insert((j, t));
        });
        [(ours, rows), (reference, reference_rows)]
    }

    /// Replay every schedule DPOR explores on `body()` and require both
    /// seedings to agree on each. Returns the races seen, so a caller
    /// can tell the comparison was not vacuous.
    fn assert_seedings_agree<B>(name: &str, body: impl Fn() -> B, budget: usize) -> usize
    where
        B: Fn() + Send + Sync + 'static,
    {
        let c = cfg(budget);
        let (schedules, _, _) = enumerate_dpor(body(), &c);
        let mut seen = 0;
        for s in &schedules {
            let schedule = crate::Schedule {
                strategy: "replay".into(),
                seed: 0,
                choices: s.choices.clone(),
            };
            let run = crate::replay(body(), &schedule, &c);
            assert_eq!(run.schedule.choices, s.choices, "{name}: replay diverged");
            let foots = footprints(&run);
            let [ours, reference] = both_seedings(&run.step_infos, &foots, run.task_count);
            assert_eq!(ours, reference, "{name}: schedule {:?}", s.choices);
            seen += ours.0.len();
        }
        seen
    }

    #[test]
    fn last_access_seeding_matches_the_pairwise_scan_on_the_fixtures() {
        let seen = [
            assert_seedings_agree("counter2x1", || fixtures::fixed_counter_body(2, 1), 50_000),
            assert_seedings_agree("handoff2", || fixtures::channel_handoff_body(2), 50_000),
            assert_seedings_agree("counter2x2", || fixtures::fixed_counter_body(2, 2), 50_000),
            assert_seedings_agree("racy", || fixtures::racy_counter_body(2), 50_000),
            assert_seedings_agree("abba", fixtures::abba_deadlock_body, 50_000),
            assert_seedings_agree(
                "wake-order",
                || fixtures::semaphore_wake_order_body(Fairness::Adversarial),
                50_000,
            ),
            assert_seedings_agree("pool", pool_body, 300),
        ];
        assert!(seen.iter().all(|&n| n > 0), "races per fixture: {seen:?}");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "full-size trees; run with --release")]
    fn last_access_seeding_matches_the_pairwise_scan_on_the_benchmark_bodies() {
        assert_seedings_agree(
            "counter4x2",
            || fixtures::fixed_counter_body(4, 2),
            1_000_000,
        );
        assert_seedings_agree("handoff6", || fixtures::channel_handoff_body(6), 1_000_000);
        assert_seedings_agree(
            "counter3x3",
            || fixtures::fixed_counter_body(3, 3),
            1_000_000,
        );
    }

    /// One access of any class [`Access`] has, from `(class, id, write)`;
    /// a third of the draws are variable accesses.
    fn drawn_access((class, id, write): (u8, u64, bool), tasks: u32) -> Access {
        match class {
            0..=3 => Access::Var { id, write },
            4 => Access::Site(id),
            5 => Access::AnySite,
            6 => Access::Channel(id),
            7 => Access::Handle(id),
            8 => Access::Message,
            9 => Access::PoolQueue,
            10 => Access::ParkToken(id as u32 % tasks),
            _ => Access::TaskExit(id as u32 % tasks),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Random footprint sequences reach the classes no fixture
        /// produces (`AnySite`, `Message`, `PoolQueue`, concurrent
        /// readers of one variable) and must still seed exactly what
        /// the pairwise scan seeds.
        #[test]
        fn last_access_seeding_matches_the_pairwise_scan_on_random_footprints(
            tasks in 2u32..6,
            steps in prop::collection::vec(
                (0u32..5, prop::collection::vec((0u8..12, 0u64..3, any::<bool>()), 0..4)),
                0..41,
            ),
        ) {
            let infos: Vec<StepInfo> = steps
                .iter()
                .enumerate()
                .map(|(k, (task, _))| StepInfo {
                    kind: ChoiceKind::Task,
                    task: task % tasks,
                    ts: k as u64,
                    accesses: Vec::new(),
                })
                .collect();
            let foots: Vec<Vec<Access>> = steps
                .iter()
                .map(|(_, foot)| foot.iter().map(|&a| drawn_access(a, tasks)).collect())
                .collect();
            let [ours, reference] = both_seedings(&infos, &foots, tasks as usize);
            prop_assert_eq!(ours, reference);
        }
    }
}
