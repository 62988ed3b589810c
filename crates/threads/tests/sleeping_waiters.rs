//! Waiters sleep: once its polling window has passed, a thread that
//! waits for work or for a barrier partner reads `S` (sleeping) in
//! `/proc`, not `R` (running). This is its own test binary so that no
//! other test's pool workers share the process.
#![cfg(target_os = "linux")]

use pdc_sync::SenseBarrier;
use pdc_threads::pool::WorkStealingPool;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Name and scheduler state (`R`, `S`, ...) of each of this process's
/// threads whose name starts with `prefix`.
fn states(prefix: &str) -> Vec<(String, char)> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|entry| {
            let dir = entry.ok()?.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            if !name.starts_with(prefix) {
                return None;
            }
            // `tid (comm) state ...`: the state follows the last ')'.
            let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
            let state = stat[stat.rfind(')')? + 2..].chars().next()?;
            Some((name.trim().to_string(), state))
        })
        .collect()
}

/// After 50 ms (far past the polling window), sample `prefix`'s threads
/// 10 times over 150 ms: every sample finds `count` of them, all asleep.
fn assert_asleep(prefix: &str, count: usize) {
    thread::sleep(Duration::from_millis(50));
    for _ in 0..10 {
        let sample = states(prefix);
        assert_eq!(sample.len(), count, "{sample:?}");
        assert!(
            sample.iter().all(|&(_, state)| state == 'S'),
            "a waiter is not asleep: {sample:?}"
        );
        thread::sleep(Duration::from_millis(15));
    }
}

#[test]
fn idle_pool_workers_sleep() {
    let pool = WorkStealingPool::new(2);
    pool.spawn(|| {});
    pool.wait_idle();
    assert_asleep("pdc-worker-", 2);
    // A submit still wakes them.
    let (tx, rx) = mpsc::channel();
    pool.spawn(move || tx.send(()).unwrap());
    rx.recv_timeout(Duration::from_secs(2))
        .expect("a sleeping worker never woke for a submit");
    pool.wait_idle();
}

#[test]
fn a_barrier_waiter_sleeps_until_its_late_partner_arrives() {
    let barrier = Arc::new(SenseBarrier::new(2));
    let (tx, rx) = mpsc::channel();
    let waiter = Arc::clone(&barrier);
    thread::Builder::new()
        .name("barrier-waiter".into())
        .spawn(move || {
            waiter.wait();
            tx.send(()).unwrap();
        })
        .unwrap();
    // The partner comes 200 ms late: 50 ms, then 10 samples 15 ms apart.
    assert_asleep("barrier-waiter", 1);
    barrier.wait();
    rx.recv_timeout(Duration::from_secs(2))
        .expect("the waiter never returned");
}
