//! Waiters that outlast the polling window park, and every hand-off
//! still reaches them.
//!
//! A `std::thread::sleep` is not a hook, so a task that sleeps keeps
//! the baton while it does. With 20 ms sleeps, every other thread of
//! the schedule — the other task, the root and the exploring thread at
//! the teardown barrier — stops polling and parks, so each grant, each
//! abort and the last exit must unpark its waiter.

use pdc_check::{explore_dpor, replay, spawn, Config, Outcome, Schedule};
use pdc_core::trace;
use pdc_sync::PdcMutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SLEEP: Duration = Duration::from_millis(20);

/// Two tasks increment a mutex-guarded counter, each sleeping `sleep`
/// while it holds the mutex; the root sleeps `sleep` in its last step.
fn sleepy_counter_body(sleep: Duration) -> impl Fn() + Send + Sync + 'static {
    move || {
        let counter = Arc::new(PdcMutex::new(0u64));
        let var = trace::next_site_id();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                spawn(move || {
                    let mut g = counter.lock();
                    trace::record_var_read(var);
                    let v = *g;
                    std::thread::sleep(sleep);
                    trace::record_var_write(var);
                    *g = v + 1;
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let total = *counter.lock();
        std::thread::sleep(sleep);
        assert_eq!(total, 2);
    }
}

#[test]
fn parked_waiters_explore_the_same_tree() {
    let cfg = Config::default();
    let quick = explore_dpor(sleepy_counter_body(Duration::ZERO), &cfg);
    let sleepy = explore_dpor(sleepy_counter_body(SLEEP), &cfg);
    for report in [&quick, &sleepy] {
        assert!(
            report.complete && report.passed(),
            "{:?}",
            report.failure.as_ref().map(|f| &f.description)
        );
    }
    assert_eq!(
        (sleepy.schedules_run, sleepy.pruned),
        (quick.schedules_run, quick.pruned)
    );
}

#[test]
fn an_abort_reaches_a_parked_waiter() {
    let body = || {
        let m = Arc::new(PdcMutex::new(()));
        let _held = m.lock();
        let waiter = Arc::clone(&m);
        let _h = spawn(move || drop(waiter.lock()));
        std::thread::sleep(SLEEP);
        panic!("boom while a parked task waits");
    };
    // Grant the task at the root's post-spawn yield, so it blocks on
    // the mutex the root holds before the root sleeps.
    let schedule = Schedule {
        strategy: "replay".into(),
        seed: 0,
        choices: vec![1],
    };
    let t = Instant::now();
    let run = replay(body, &schedule, &Config::default());
    let took = t.elapsed();
    assert_eq!(
        run.outcome,
        Outcome::Panic("boom while a parked task waits".into())
    );
    assert!(took < Duration::from_secs(1), "teardown took {took:?}");
}
