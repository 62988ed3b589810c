//! `e-check`: the schedule-count-vs-detection curve for the model
//! checker (paper §III, Table II races/deadlock rows).
//!
//! The lab's lesson in one table: how many *schedules* does it take to
//! catch a real concurrency bug? Naive stress testing answers "however
//! many the OS gives you" — here the checker controls the schedule, so
//! the question becomes quantitative. The curve shows PCT's detection
//! probability growing with the schedule budget when only the visible
//! symptom (the lost-update assertion) counts, and collapsing to
//! one schedule when each explored trace is also run through
//! `pdc-analyze` — the multiplier the tentpole exists for: analyzers ×
//! schedules, not analyzers × one lucky run. A last table times DPOR
//! proofs of growing counters: µs per schedule and per decision, the
//! evidence that a schedule's analysis and race seeding grow with its
//! decisions linearly, not quadratically.
//!
//! [`gate`] (`experiments --check`) is the soundness gate over the same
//! fixtures: every strategy finds the bugs, the exhaustive ones prove
//! the fixes, and a minimized schedule replays exactly.

use crate::verdict::{named, Expect, Registration, Verdicts};
use pdc_analyze::DefectKind;
use pdc_check::{
    explore_dfs, explore_dpor, explore_pct, fixtures, replay, replay_strict, Config, ExploreReport,
    Outcome, Schedule,
};
use pdc_core::report::{capture_tables, write_text_file, Table};

/// Seeds per budget row of the detection curve.
const SEEDS: u64 = 16;

/// Run the curves and the exhaustive-search summary, and snapshot the
/// tables as `pdc-tables/1` JSON under `target/pdc-check/` for the CI
/// artifact.
pub fn check() -> String {
    let (out, tables) = capture_tables(check_tables);
    let dir = std::path::Path::new("target/pdc-check");
    let json = format!(
        "{{\"schema\":\"pdc-tables/1\",\"experiments\":[{{\"id\":\"e-check\",\"tables\":[{}]}}]}}",
        tables.join(",")
    );
    if let Err(e) = write_text_file(&dir.join("echeck.curve.json"), &json) {
        eprintln!("e-check: could not write curve json: {e}");
    }
    out
}

fn check_tables() -> String {
    let mut out = String::new();

    // Detection-by-symptom: only a failing assertion counts, no trace
    // analysis. This is honest stress testing with a controlled
    // scheduler — detection is probabilistic in the budget.
    let mut curve = Table::new(
        "e-check: PCT schedules vs detection, racy counter (2 tasks x 2 ops)",
        &["budget", "mode", "runs detecting", "rate"],
    );
    for budget in [1usize, 2, 4, 8, 16] {
        let mut detected = 0u64;
        for seed in 0..SEEDS {
            let cfg = Config {
                max_schedules: budget,
                seed: 0x1000 + seed * 7919,
                fail_on_defects: false,
                shrink_budget: 0,
                ..Config::default()
            };
            if explore_pct(fixtures::racy_counter_body(2), &cfg)
                .failure
                .is_some()
            {
                detected += 1;
            }
        }
        curve.row(&[
            budget.to_string(),
            "panic only".to_string(),
            format!("{detected}/{SEEDS}"),
            format!("{:.2}", detected as f64 / SEEDS as f64),
        ]);
    }
    // Detection-by-analysis: every explored trace goes through the
    // pdc-analyze passes, and the race is in *every* interleaving's
    // trace — one schedule suffices regardless of the symptom.
    let cfg = Config {
        max_schedules: 1000,
        shrink_budget: 0,
        ..Config::default()
    };
    let analyzed = explore_pct(fixtures::racy_counter_body(2), &cfg);
    curve.row(&[
        analyzed.schedules_run.to_string(),
        "with pdc-analyze".to_string(),
        format!("{}/{}", u64::from(analyzed.failure.is_some()), 1),
        format!("{:.2}", f64::from(analyzed.failure.is_some() as u8)),
    ]);
    out.push_str(&curve.render());

    // The other direction: exhaustive DFS proves the fixed body clean,
    // and finds the AB-BA deadlock precisely.
    let dfs_cfg = Config {
        max_schedules: 50_000,
        ..Config::default()
    };
    let clean = explore_dfs(fixtures::fixed_counter_body(2, 1), &dfs_cfg);
    let dl_cfg = Config {
        max_schedules: 50_000,
        fail_on_defects: false,
        ..Config::default()
    };
    let deadlock = explore_dfs(fixtures::abba_deadlock_body(), &dl_cfg);
    let deadlock_outcome = match &deadlock.failure {
        Some(f) => match &f.run.outcome {
            Outcome::Deadlock(live) => format!("deadlock of tasks {live:?}"),
            other => format!("{other:?}"),
        },
        None => "none".to_string(),
    };
    let mut dfs = Table::new(
        "e-check: exhaustive DFS over bounded bodies",
        &["body", "schedules", "complete", "verdict"],
    );
    dfs.row(&[
        "fixed counter (2 tasks x 1 op)".to_string(),
        clean.schedules_run.to_string(),
        clean.complete.to_string(),
        if clean.passed() {
            "clean".to_string()
        } else {
            "FAILED".to_string()
        },
    ]);
    dfs.row(&[
        "AB-BA locks".to_string(),
        deadlock.schedules_run.to_string(),
        deadlock.complete.to_string(),
        deadlock_outcome,
    ]);
    out.push_str(&dfs.render());

    // The scaling curve the tentpole exists for: plain DFS enumerates
    // the full interleaving tree of embarrassingly-parallel workers and
    // drowns, while DPOR's persistent/sleep sets recognise the tasks as
    // independent and prove the same completeness in a handful of
    // schedules. Same budget on both sides; "complete" is the proof.
    let mut reduction = Table::new(
        "e-check: DPOR vs DFS, independent counters (n tasks x 1 op)",
        &[
            "tasks",
            "dfs schedules",
            "dfs complete",
            "dfs ms",
            "dpor schedules",
            "dpor pruned",
            "dpor complete",
            "dpor ms",
        ],
    );
    for tasks in [2u32, 3, 4] {
        let cfg = Config {
            max_schedules: 2_000,
            shrink_budget: 0,
            ..Config::default()
        };
        let t0 = std::time::Instant::now();
        let dfs_rep = explore_dfs(fixtures::independent_counters_body(tasks, 1), &cfg);
        let dfs_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let dpor_rep = explore_dpor(fixtures::independent_counters_body(tasks, 1), &cfg);
        let dpor_ms = t1.elapsed().as_secs_f64() * 1e3;
        reduction.row(&[
            tasks.to_string(),
            dfs_rep.schedules_run.to_string(),
            dfs_rep.complete.to_string(),
            format!("{dfs_ms:.1}"),
            dpor_rep.schedules_run.to_string(),
            dpor_rep.pruned.to_string(),
            dpor_rep.complete.to_string(),
            format!("{dpor_ms:.1}"),
        ]);
    }
    out.push_str(&reduction.render());

    // What one explored schedule costs as the body grows. Post-run
    // analysis and race seeding cost a constant per event and per
    // step, so µs per decision should stay roughly flat while the
    // tree and the schedules grow.
    let mut cost = Table::new(
        "e-check: cost per explored schedule",
        &[
            "body",
            "schedules",
            "decisions in first schedule",
            "us per schedule",
            "us per decision",
        ],
    );
    let cfg = Config {
        max_schedules: 1_000_000,
        ..Config::default()
    };
    for tasks in [2u32, 3, 4] {
        let leftmost = Schedule {
            strategy: "replay".into(),
            seed: 0,
            choices: Vec::new(),
        };
        let decisions = replay(fixtures::fixed_counter_body(tasks, 2), &leftmost, &cfg)
            .decisions
            .len();
        let t0 = std::time::Instant::now();
        let report = explore_dpor(fixtures::fixed_counter_body(tasks, 2), &cfg);
        let us = t0.elapsed().as_secs_f64() * 1e6 / report.schedules_run as f64;
        cost.row(&[
            format!("fixed counter ({tasks} tasks x 2 ops)"),
            report.schedules_run.to_string(),
            decisions.to_string(),
            format!("{us:.1}"),
            format!("{:.2}", us / decisions as f64),
        ]);
    }
    out.push_str(&cost.render());
    out
}

/// The check gate's verdicts.
pub fn registered() -> Registration {
    named(&[
        ("pct_flags_racy_counter", Expect::Detects),
        ("minimal_run_keeps_race", Expect::Detects),
        ("minimal_timeline_on_disk", Expect::Holds),
        ("replay_reproduces_verdict", Expect::Detects),
        ("dfs_proves_fixed_counter", Expect::Holds),
        ("dpor_proves_fixed_counter_in_fewer", Expect::Holds),
        ("dpor_flags_racy_counter", Expect::Detects),
        ("dpor_finds_abba_deadlock", Expect::Detects),
        ("dpor_completes_where_dfs_cannot", Expect::Holds),
    ])
}

/// `--check`: PCT must flag the racy counter within 1000 schedules and
/// its minimized schedule, written to disk, parsed back and
/// strict-replayed, must reproduce the race byte-identically; DFS must
/// prove the fixed counter clean; DPOR must prove it in strictly fewer
/// schedules, still catch both bugs, and finish where DFS cannot.
pub fn gate(v: &mut Verdicts) {
    let cfg = Config {
        max_schedules: 1000,
        ..Config::default()
    };
    let detection = |r: &ExploreReport| {
        let what = r.failure.as_ref().map_or("missed", |f| &f.description);
        format!("{} schedule(s): {what}", r.schedules_run)
    };
    let racy = explore_pct(fixtures::racy_counter_body(2), &cfg);
    v.check(
        "pct_flags_racy_counter",
        racy.failure.is_some(),
        detection(&racy),
    );

    // The fix is proven, not just stress-tested.
    let dfs_cfg = Config {
        max_schedules: 50_000,
        ..Config::default()
    };
    let fixed = explore_dfs(fixtures::fixed_counter_body(2, 1), &dfs_cfg);
    v.check(
        "dfs_proves_fixed_counter",
        fixed.complete && fixed.passed(),
        format!(
            "{} schedules, complete={}, failure={:?}",
            fixed.schedules_run,
            fixed.complete,
            fixed.failure.as_ref().map(|f| &f.description)
        ),
    );

    // The partial-order reduction, both ways: a reduction that misses
    // bugs is unsound; one that runs as many schedules as DFS is not a
    // reduction.
    let dpor_fixed = explore_dpor(fixtures::fixed_counter_body(2, 1), &dfs_cfg);
    v.check(
        "dpor_proves_fixed_counter_in_fewer",
        dpor_fixed.complete
            && dpor_fixed.passed()
            && dpor_fixed.schedules_run < fixed.schedules_run,
        format!(
            "{} vs dfs {} schedules, complete={}, passed={}, {} sleep-set prunes",
            dpor_fixed.schedules_run,
            fixed.schedules_run,
            dpor_fixed.complete,
            dpor_fixed.passed(),
            dpor_fixed.pruned
        ),
    );

    let dpor_racy = explore_dpor(fixtures::racy_counter_body(2), &cfg);
    v.check(
        "dpor_flags_racy_counter",
        dpor_racy.failure.is_some(),
        detection(&dpor_racy),
    );

    let dl_cfg = Config {
        max_schedules: 50_000,
        fail_on_defects: false,
        ..Config::default()
    };
    let dpor_dl = explore_dpor(fixtures::abba_deadlock_body(), &dl_cfg);
    let outcome = dpor_dl.failure.as_ref().map(|f| &f.run.outcome);
    v.check(
        "dpor_finds_abba_deadlock",
        matches!(outcome, Some(Outcome::Deadlock(_))),
        format!("{} schedules: {outcome:?}", dpor_dl.schedules_run),
    );

    let scale_cfg = Config {
        max_schedules: 200,
        ..Config::default()
    };
    let dfs_scale = explore_dfs(fixtures::independent_counters_body(4, 1), &scale_cfg);
    let dpor_scale = explore_dpor(fixtures::independent_counters_body(4, 1), &scale_cfg);
    v.check(
        "dpor_completes_where_dfs_cannot",
        !dfs_scale.complete && dpor_scale.complete && dpor_scale.passed(),
        format!(
            "budget 200: dpor complete={} passed={} in {}, dfs complete={} after {}",
            dpor_scale.complete,
            dpor_scale.passed(),
            dpor_scale.schedules_run,
            dfs_scale.complete,
            dfs_scale.schedules_run
        ),
    );

    // The record/replay contract, through the filesystem.
    let Some(found) = &racy.failure else {
        for name in [
            "minimal_run_keeps_race",
            "minimal_timeline_on_disk",
            "replay_reproduces_verdict",
        ] {
            v.check(name, false, "no minimal schedule to replay");
        }
        return;
    };
    let dir = std::path::Path::new("target/pdc-check");
    let sched_path = dir.join("minimal.schedule.json");
    write_text_file(&sched_path, &found.minimal.to_json()).expect("write minimal schedule");
    write_text_file(
        &dir.join("minimal.analyze.json"),
        &found.minimal_run.report.to_json(),
    )
    .expect("write minimal analyze report");
    write_text_file(
        &dir.join("minimal.timeline.html"),
        &pdc_core::timeline::render_html(
            "pdc-check minimal racy-counter schedule",
            &found.minimal_run.events,
        ),
    )
    .expect("write minimal timeline");
    v.file_contains(
        "minimal_run_keeps_race",
        &dir.join("minimal.analyze.json"),
        &["\"kind\":\"data_race\""],
    );
    v.file_contains(
        "minimal_timeline_on_disk",
        &dir.join("minimal.timeline.html"),
        &["<svg"],
    );

    // Strict replay: a schedule naming tasks the body never spawned is a
    // typed error here, not a mid-replay panic.
    let replay = std::fs::read_to_string(&sched_path)
        .map_err(|e| format!("unreadable: {e}"))
        .and_then(|text| Schedule::parse(&text).map_err(|e| format!("unparsable: {e}")))
        .and_then(|parsed| {
            replay_strict(fixtures::racy_counter_body(2), &parsed, &cfg)
                .map_err(|e| format!("strict replay rejected it: {e}"))
        });
    let (ok, observed) = match replay {
        Ok(rerun) => {
            let verdict_ok =
                rerun.failed(&cfg) && rerun.report.count_kind(DefectKind::DataRace) >= 1;
            let trace_ok = rerun.trace_jsonl() == found.minimal_run.trace_jsonl();
            let observed = format!(
                "{} choices: race verdict {verdict_ok}, byte-identical trace {trace_ok}",
                found.minimal.choices.len()
            );
            (verdict_ok && trace_ok, observed)
        }
        Err(e) => (false, e),
    };
    v.check("replay_reproduces_verdict", ok, observed);
    v.evidence("replay_reproduces_verdict", &sched_path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_experiment_reports_both_directions() {
        let out = check();
        assert!(out.contains("with pdc-analyze"));
        assert!(out.contains("deadlock of tasks"));
        assert!(out.contains("clean"));
        assert!(out.contains("DPOR vs DFS"));
        assert!(out.contains("cost per explored schedule"));
        let json = std::fs::read_to_string("target/pdc-check/echeck.curve.json")
            .expect("e-check writes its curve snapshot");
        assert!(json.starts_with("{\"schema\":\"pdc-tables/1\""));
        assert!(json.contains("DPOR vs DFS"));
    }
}
