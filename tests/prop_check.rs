//! Property-based tests over the pdc-check record/replay contract.
//!
//! The checker's whole value rests on two promises: (1) a recorded
//! schedule is a *complete* description of a run, so replaying it
//! reproduces the canonical trace byte for byte; (2) the shrinker only
//! ever hands back schedules that still fail, so the minimized artifact
//! a student opens is a real counterexample, not a near miss. Both are
//! exercised here over randomized schedules and seeds rather than the
//! handful of fixtures the unit tests pin down.

use pdc::check::{
    enumerate_dfs, enumerate_dpor, explore_pct, fixtures, replay, Config, Schedule, ScheduleSummary,
};
use pdc::core::trace;
use pdc::sync::PdcMutex;
use proptest::prelude::*;
use std::sync::Arc;

fn quiet_cfg(seed: u64) -> Config {
    Config {
        seed,
        max_schedules: 64,
        shrink_budget: 32,
        ..Config::default()
    }
}

/// A randomized small checked body: two tasks, each running a short
/// program over one shared mutex-guarded counter and one bare shared
/// variable. The op alphabet deliberately mixes clean (locked) and
/// racy (bare) accesses plus pure yields, so the generated bodies span
/// clean, racy, and mixed verdicts.
fn random_body(specs: [Vec<u8>; 2]) -> impl Fn() + Send + Sync + 'static {
    move || {
        let counter = Arc::new(PdcMutex::new(0u64));
        let locked_var = trace::next_site_id();
        let bare_var = trace::next_site_id();
        let handles: Vec<_> = specs
            .iter()
            .cloned()
            .map(|ops| {
                let counter = Arc::clone(&counter);
                pdc::check::spawn(move || {
                    for op in ops {
                        match op % 4 {
                            0 => {
                                let mut g = counter.lock();
                                trace::record_var_read(locked_var);
                                let v = *g;
                                trace::record_var_write(locked_var);
                                *g = v + 1;
                            }
                            1 => trace::record_var_write(bare_var),
                            2 => trace::record_var_read(bare_var),
                            _ => pdc::check::yield_now(),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
    }
}

/// The distinct verdicts (outcome class + sorted defect kinds) a
/// schedule set exhibits.
fn verdict_set(set: &[ScheduleSummary]) -> Vec<(bool, Vec<String>)> {
    let mut v: Vec<(bool, Vec<String>)> =
        set.iter().map(|s| (s.ok, s.defect_kinds.clone())).collect();
    v.sort();
    v.dedup();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replay is a fixed point: running an *arbitrary* choice sequence
    /// through the lenient replayer records some actual schedule; that
    /// recorded schedule, replayed again, must reproduce the same
    /// recorded choices, the same outcome class, and a byte-identical
    /// canonical `pdc-trace/2` JSONL trace. The input choices are junk
    /// on purpose — ids that are never enabled fall back to the first
    /// enabled task, and the recorded schedule must absorb that.
    fn replaying_a_recorded_schedule_is_byte_identical(
        raw_choices in prop::collection::vec(0u32..6, 0..24),
        ops in 1u64..3,
    ) {
        let cfg = Config { shrink_budget: 0, ..quiet_cfg(1) };
        let arbitrary = Schedule {
            strategy: "replay".to_string(),
            seed: 0,
            choices: raw_choices,
        };
        let first = replay(fixtures::racy_counter_body(ops), &arbitrary, &cfg);
        let second = replay(fixtures::racy_counter_body(ops), &first.schedule, &cfg);
        prop_assert_eq!(&second.schedule.choices, &first.schedule.choices);
        prop_assert_eq!(
            format!("{:?}", second.outcome),
            format!("{:?}", first.outcome)
        );
        prop_assert_eq!(&second.trace_jsonl(), &first.trace_jsonl(),
            "replay of a recorded schedule diverged from the recording");
        prop_assert!(!first.trace_jsonl().is_empty());
    }

    /// Whatever PCT finds, the shrinker must preserve: the minimized
    /// schedule is no longer than the original, still fails when
    /// replayed, and survives a round-trip through its `pdc-check/1`
    /// JSON encoding with the verdict and trace intact.
    fn shrunk_failing_schedules_still_fail(seed in 1u64..2_000_000) {
        let cfg = quiet_cfg(seed);
        let report = explore_pct(fixtures::racy_counter_body(2), &cfg);
        let found = report.failure.expect("the racy counter must be caught");
        prop_assert!(
            found.minimal.choices.len() <= found.run.schedule.choices.len()
        );
        prop_assert!(found.minimal_run.failed(&cfg),
            "shrinker returned a schedule that no longer fails");

        let json = found.minimal.to_json();
        let parsed = Schedule::parse(&json).expect("schedule JSON round-trip");
        let rerun = replay(fixtures::racy_counter_body(2), &parsed, &cfg);
        prop_assert!(rerun.failed(&cfg),
            "replay of the JSON round-tripped minimal schedule passed");
        prop_assert_eq!(&rerun.trace_jsonl(), &found.minimal_run.trace_jsonl());
    }

    /// DPOR's soundness contract, both directions, over random small
    /// bodies: every schedule DPOR executes is one plain DFS also
    /// reaches (DPOR runs each branch through the same forced-prefix
    /// `Dfs` strategy, so its choice vectors must be a subset of the
    /// full enumeration), and when both explorations are complete the
    /// *verdict sets* are identical — pruning may drop redundant
    /// interleavings but never a behaviour class. A reduction that
    /// explores something DFS cannot is unsound; one that misses a
    /// verdict DFS finds is broken.
    fn dpor_is_a_sound_reduction_of_dfs(
        ops_a in prop::collection::vec(0u8..8, 0..4),
        ops_b in prop::collection::vec(0u8..8, 0..4),
    ) {
        let cfg = Config {
            max_schedules: 4_096,
            ..Config::default()
        };
        let specs = [ops_a, ops_b];
        let (dfs, dfs_complete) = enumerate_dfs(random_body(specs.clone()), &cfg);
        let (dpor, dpor_complete, _pruned) = enumerate_dpor(random_body(specs), &cfg);
        for s in &dpor {
            prop_assert!(
                dfs.iter().any(|d| d.choices == s.choices),
                "dpor executed a schedule plain dfs cannot reach: {:?}",
                s.choices
            );
        }
        prop_assert!(dpor.len() <= dfs.len());
        if dfs_complete && dpor_complete {
            prop_assert_eq!(
                verdict_set(&dfs),
                verdict_set(&dpor),
                "complete reductions must preserve the verdict set"
            );
        }
    }
}
