//! The model checker, end to end: explore thread interleavings of a
//! racy counter until it breaks, shrink the failing schedule to a
//! minimal counterexample, replay it deterministically, and then prove
//! the mutex-fixed twin correct by exhausting every schedule — the
//! CS31 "your test passed 1000 times and is still wrong" lecture as a
//! runnable artifact.
//!
//! ```text
//! cargo run --example schedule_explorer
//! ```

use pdc::check::{explore_dfs, explore_pct, fixtures, replay, Config, Outcome, Schedule};

fn main() {
    println!("== pdc-check: explore schedules until the bug has nowhere to hide ==\n");

    // PCT exploration: randomized priorities with forced change points.
    // The lost-update assertion only trips on *some* interleavings, but
    // the controlled scheduler hunts them instead of hoping.
    let cfg = Config {
        max_schedules: 1000,
        ..Config::default()
    };
    println!("racy counter (2 tasks x 2 unsynchronised increments), PCT search:");
    let report = explore_pct(fixtures::racy_counter_body(2), &cfg);
    let found = report.failure.expect("the race must be found");
    println!(
        "  caught after {} schedule(s): {}",
        report.schedules_run, found.description
    );
    println!(
        "  original failing schedule: {} choices; shrunk to {}",
        found.run.schedule.choices.len(),
        found.minimal.choices.len()
    );

    // The minimal schedule is a portable artifact: serialize it, parse
    // it back, replay it — same verdict, byte-identical trace.
    let json = found.minimal.to_json();
    println!("\n  pdc-check/1 schedule file:\n    {json}");
    let parsed = Schedule::parse(&json).expect("round-trip");
    let rerun = replay(fixtures::racy_counter_body(2), &parsed, &cfg);
    assert!(rerun.failed(&cfg), "replay must reproduce the failure");
    assert_eq!(
        rerun.trace_jsonl(),
        found.minimal_run.trace_jsonl(),
        "replay must reproduce the exact canonical trace"
    );
    println!(
        "  replayed: verdict reproduced, trace byte-identical ({} events)",
        rerun.events.len()
    );

    // Exhaustive DFS: for a bounded body, "no schedule fails" is a
    // proof, not a statistic. The fixed counter has dozens of
    // interleavings; every one of them is clean.
    let dfs_cfg = Config {
        max_schedules: 50_000,
        ..Config::default()
    };
    println!("\nfixed counter (same increments inside a PdcMutex), exhaustive DFS:");
    let fixed = explore_dfs(fixtures::fixed_counter_body(2, 1), &dfs_cfg);
    assert!(fixed.complete, "the bounded body must be exhaustible");
    assert!(fixed.passed());
    println!(
        "  {} schedules enumerated, search complete, all clean — a proof for this body",
        fixed.schedules_run
    );

    // Deadlock as a schedule, not a hang: the AB-BA lock order is
    // driven into the fatal interleaving and reported as a precise
    // deterministic deadlock with the blocked task set.
    let dl_cfg = Config {
        max_schedules: 50_000,
        fail_on_defects: false,
        ..Config::default()
    };
    println!("\nAB-BA locks, DFS until the deadlock schedule:");
    let dl = explore_dfs(fixtures::abba_deadlock_body(), &dl_cfg);
    let found = dl.failure.expect("the deadlock must be reachable");
    match &found.minimal_run.outcome {
        Outcome::Deadlock(live) => println!(
            "  found after {} schedule(s): tasks {live:?} blocked with no enabled task",
            dl.schedules_run
        ),
        other => panic!("expected a deadlock, got {other:?}"),
    }

    println!("\nAll verdicts as expected: found, shrunk, replayed, and proven.");
}
