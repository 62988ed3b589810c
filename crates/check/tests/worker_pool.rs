//! The pooled task threads stay clean and bounded across explorations.
//!
//! One test in its own binary: it counts the process's threads, which
//! other tests running alongside it would disturb.

use pdc_check::{explore_dfs, explore_dpor, explore_pct, fixtures, workers, Config, Outcome};

/// The `Threads:` line of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn pooled_workers_stay_clean_and_bounded() {
    // A failing exploration first: lost-update panics in the body, then
    // shrink replays, all on the same workers.
    let lenient = Config {
        max_schedules: 50_000,
        fail_on_defects: false,
        ..Config::default()
    };
    let racy = explore_dfs(fixtures::racy_counter_body(2), &lenient);
    let failure = racy.failure.expect("the racy counter loses an update");
    assert!(
        matches!(failure.run.outcome, Outcome::Panic(_)),
        "{}",
        failure.description
    );

    // A clean proof on the workers the failures ran on.
    let cfg = Config {
        max_schedules: 50_000,
        ..Config::default()
    };
    let proof = explore_dpor(fixtures::fixed_counter_body(2, 2), &cfg);
    assert!(
        proof.passed() && proof.complete,
        "{:?}",
        proof.failure.map(|f| f.description)
    );

    let audit = workers::audit();
    assert!(audit.idle >= 1, "{audit:?}");
    assert_eq!(audit.dirty, 0, "a worker kept a task binding or trace");

    // 200 more schedules of a body with at most 4 live tasks (the root
    // and 3 counters) add at most 4 threads, however many ran before.
    #[cfg(target_os = "linux")]
    let before = os_threads();
    let loop_cfg = Config {
        max_schedules: 200,
        ..Config::default()
    };
    let many = explore_pct(fixtures::fixed_counter_body(3, 1), &loop_cfg);
    assert!(many.passed(), "{:?}", many.failure.map(|f| f.description));
    assert_eq!(many.schedules_run, 200);
    #[cfg(target_os = "linux")]
    {
        let after = os_threads();
        assert!(
            after <= before + 4,
            "threads grew from {before} to {after} over 200 schedules"
        );
    }
    assert_eq!(workers::audit().dirty, 0);
}
