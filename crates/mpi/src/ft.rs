//! Fault tolerance: master-worker task farming with failure detection
//! and reassignment — CS87's "fault tolerance" topic as a deterministic
//! discrete-event simulation.
//!
//! The master owns a bag of independent tasks. Workers request a task,
//! compute for its duration, and report back. A worker may **crash** at
//! a scheduled time: the master's heartbeat detector notices after
//! `heartbeat_timeout` ticks and returns the orphaned task to the bag
//! (at-least-once semantics — the tests show a task can run twice, and
//! that the job still finishes with every task completed exactly once in
//! the *results*, because the master ignores duplicate completions).

//!
//! [`run_farm_traced`] additionally publishes `ft.executions`,
//! `ft.heartbeat_timeouts` (detections fired), and `ft.reassignments`
//! into a pdc-trace session.

use pdc_core::trace::TraceSession;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// The farm's heartbeat-timeout failure detector, extracted so live
/// systems can reuse it: `db::serve`'s front end feeds it "I heard from
/// shard p" observations plus a monotonically advancing clock, exactly
/// as the simulated master does with ticks. A peer silent for more than
/// `timeout` clock units is declared dead — once.
///
/// Clock units are whatever the caller advances (simulation ticks here,
/// elapsed ping intervals in the serving tier); the detector only
/// compares them.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    timeout: u64,
    last_seen: BTreeMap<usize, u64>,
    dead: BTreeSet<usize>,
}

impl HeartbeatMonitor {
    /// A detector that declares a registered peer dead when `timeout`
    /// clock units pass without a [`HeartbeatMonitor::heard`].
    pub fn new(timeout: u64) -> HeartbeatMonitor {
        assert!(timeout > 0, "a zero timeout declares everyone dead");
        HeartbeatMonitor {
            timeout,
            last_seen: BTreeMap::new(),
            dead: BTreeSet::new(),
        }
    }

    /// Start monitoring `peer`, treating `now` as its last sign of life.
    pub fn register(&mut self, peer: usize, now: u64) {
        self.last_seen.insert(peer, now);
    }

    /// Record a sign of life (heartbeat reply, any message) from `peer`.
    /// Ignored for peers already declared dead — a failure detection is
    /// never retracted.
    pub fn heard(&mut self, peer: usize, now: u64) {
        if !self.dead.contains(&peer) {
            if let Some(t) = self.last_seen.get_mut(&peer) {
                *t = (*t).max(now);
            }
        }
    }

    /// Declare `peer` dead on out-of-band evidence (e.g. its socket
    /// closed) without waiting for the timeout.
    pub fn mark_dead(&mut self, peer: usize) {
        if self.last_seen.remove(&peer).is_some() {
            self.dead.insert(peer);
        }
    }

    /// Peers whose silence exceeded the timeout as of `now`, in peer
    /// order. Each is declared dead and reported exactly once.
    pub fn expired(&mut self, now: u64) -> Vec<usize> {
        let timeout = self.timeout;
        let newly: Vec<usize> = self
            .last_seen
            .iter()
            .filter(|&(_, &seen)| now.saturating_sub(seen) > timeout)
            .map(|(&p, _)| p)
            .collect();
        for &p in &newly {
            self.last_seen.remove(&p);
            self.dead.insert(p);
        }
        newly
    }

    /// Whether `peer` has been declared dead.
    pub fn is_dead(&self, peer: usize) -> bool {
        self.dead.contains(&peer)
    }

    /// Registered peers not declared dead, in peer order.
    pub fn alive(&self) -> impl Iterator<Item = usize> + '_ {
        self.last_seen.keys().copied()
    }
}

/// One unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// Task id.
    pub id: u64,
    /// Ticks of compute it needs.
    pub duration: u64,
}

/// A scheduled worker crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// Which worker.
    pub worker: usize,
    /// The tick at which it dies.
    pub at_tick: u64,
}

/// Outcome of one simulated job.
#[derive(Debug, Clone)]
pub struct FarmOutcome {
    /// Tick at which the last task completed.
    pub makespan: u64,
    /// Tasks completed (ids, deduplicated).
    pub completed: Vec<u64>,
    /// Number of task *executions* (>= tasks when reassignment happened).
    pub executions: u64,
    /// Reassignments performed after detected failures.
    pub reassignments: u64,
    /// Workers alive at the end.
    pub survivors: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum WorkerState {
    Idle,
    /// Running (task index, finish tick).
    Running(usize, u64),
    Dead,
}

/// Simulate the task farm.
///
/// # Panics
/// Panics if `workers == 0` or every worker crashes before the job can
/// finish with none alive (the job would hang; the simulator detects
/// this and panics with a clear message instead).
pub fn run_farm(
    tasks: &[Task],
    workers: usize,
    crashes: &[Crash],
    heartbeat_timeout: u64,
) -> FarmOutcome {
    run_farm_inner(tasks, workers, crashes, heartbeat_timeout, None)
}

/// Like [`run_farm`], publishing `ft.executions`,
/// `ft.heartbeat_timeouts`, and `ft.reassignments` counters into
/// `session`.
///
/// `ft.heartbeat_timeouts` counts every detection that fired, including
/// ones whose orphaned task had already completed;
/// `ft.reassignments` counts only the tasks actually re-bagged, so
/// `ft.heartbeat_timeouts >= ft.reassignments`.
///
/// # Panics
/// Same conditions as [`run_farm`].
pub fn run_farm_traced(
    tasks: &[Task],
    workers: usize,
    crashes: &[Crash],
    heartbeat_timeout: u64,
    session: &TraceSession,
) -> FarmOutcome {
    run_farm_inner(tasks, workers, crashes, heartbeat_timeout, Some(session))
}

fn run_farm_inner(
    tasks: &[Task],
    workers: usize,
    crashes: &[Crash],
    heartbeat_timeout: u64,
    session: Option<&TraceSession>,
) -> FarmOutcome {
    assert!(workers > 0, "need at least one worker");
    let obs = session.map(|s| {
        (
            s.counter("ft.executions"),
            s.counter("ft.heartbeat_timeouts"),
            s.counter("ft.reassignments"),
        )
    });
    let mut crash_at: BTreeMap<usize, u64> = BTreeMap::new();
    for c in crashes {
        assert!(c.worker < workers, "crash for unknown worker {}", c.worker);
        crash_at.insert(c.worker, c.at_tick);
    }
    let mut pending: Vec<usize> = (0..tasks.len()).rev().collect(); // bag of task indices
    let mut state = vec![WorkerState::Idle; workers];
    let mut completed: HashSet<u64> = HashSet::new();
    let mut executions = 0u64;
    let mut reassignments = 0u64;
    // For failure detection: the task a dead worker held, and when its
    // death becomes *detectable* (death tick + timeout).
    let mut orphaned: Vec<(usize, u64)> = Vec::new(); // (task idx, detect tick)
    let mut tick = 0u64;
    let mut makespan = 0u64;

    loop {
        // 1. Crashes scheduled for this tick.
        for (&w, &at) in &crash_at {
            if at == tick && state[w] != WorkerState::Dead {
                if let WorkerState::Running(t, _) = state[w] {
                    orphaned.push((t, tick + heartbeat_timeout));
                }
                state[w] = WorkerState::Dead;
            }
        }
        // 2. Detected orphans return to the bag.
        let (detected, still): (Vec<_>, Vec<_>) =
            orphaned.into_iter().partition(|&(_, d)| d <= tick);
        orphaned = still;
        for (t, _) in detected {
            if let Some((_, timeouts, _)) = &obs {
                timeouts.inc();
            }
            if !completed.contains(&tasks[t].id) {
                pending.push(t);
                reassignments += 1;
                if let Some((_, _, reassigns)) = &obs {
                    reassigns.inc();
                }
            }
        }
        // 3. Completions.
        for st in state.iter_mut() {
            if let WorkerState::Running(t, finish) = *st {
                if finish <= tick {
                    completed.insert(tasks[t].id);
                    makespan = makespan.max(finish);
                    *st = WorkerState::Idle;
                }
            }
        }
        // 4. Dispatch.
        for st in state.iter_mut() {
            if *st == WorkerState::Idle {
                // Skip tasks that were completed while orphan-pending.
                while let Some(&t) = pending.last() {
                    if completed.contains(&tasks[t].id) {
                        pending.pop();
                    } else {
                        break;
                    }
                }
                if let Some(t) = pending.pop() {
                    *st = WorkerState::Running(t, tick + tasks[t].duration);
                    executions += 1;
                    if let Some((execs, _, _)) = &obs {
                        execs.inc();
                    }
                }
            }
        }
        // 5. Termination / liveness.
        if completed.len() == tasks.len() {
            break;
        }
        let alive = state.iter().filter(|s| **s != WorkerState::Dead).count();
        assert!(
            alive > 0,
            "every worker died with {} tasks incomplete",
            tasks.len() - completed.len()
        );
        tick += 1;
    }

    let mut ids: Vec<u64> = completed.into_iter().collect();
    ids.sort_unstable();
    FarmOutcome {
        makespan,
        completed: ids,
        executions,
        reassignments,
        survivors: state.iter().filter(|s| **s != WorkerState::Dead).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasks(n: u64, dur: u64) -> Vec<Task> {
        (0..n).map(|id| Task { id, duration: dur }).collect()
    }

    #[test]
    fn heartbeat_monitor_detects_silence_once() {
        let mut m = HeartbeatMonitor::new(3);
        m.register(1, 0);
        m.register(2, 0);
        assert_eq!(m.expired(3), Vec::<usize>::new(), "within timeout");
        m.heard(2, 3);
        // Tick 4: peer 1 has been silent for 4 > 3; peer 2 for 1.
        assert_eq!(m.expired(4), vec![1]);
        assert!(m.is_dead(1));
        assert_eq!(m.expired(4), Vec::<usize>::new(), "reported once");
        // A late heartbeat from a declared-dead peer changes nothing.
        m.heard(1, 5);
        assert!(m.is_dead(1));
        assert!(m.alive().eq([2]));
        // Peer 2 eventually expires too.
        assert_eq!(m.expired(100), vec![2]);
    }

    #[test]
    fn heartbeat_monitor_out_of_band_death() {
        let mut m = HeartbeatMonitor::new(10);
        m.register(4, 0);
        m.register(7, 0);
        m.mark_dead(7); // socket EOF: no need to wait out the timeout
        assert!(m.is_dead(7));
        assert!(m.alive().eq([4]));
        assert_eq!(m.expired(100), vec![4], "mark_dead peers never expire");
    }

    #[test]
    fn no_failures_completes_everything_once() {
        let ts = tasks(10, 5);
        let out = run_farm(&ts, 3, &[], 4);
        assert_eq!(out.completed, (0..10).collect::<Vec<_>>());
        assert_eq!(out.executions, 10, "no retries without failures");
        assert_eq!(out.reassignments, 0);
        assert_eq!(out.survivors, 3);
        // 10 tasks of 5 ticks on 3 workers: ceil(10/3) waves * 5.
        assert_eq!(out.makespan, 20);
    }

    #[test]
    fn crash_mid_task_reassigns_and_completes() {
        let ts = tasks(4, 10);
        // Worker 1 dies at tick 3 while running its first task.
        let out = run_farm(
            &ts,
            2,
            &[Crash {
                worker: 1,
                at_tick: 3,
            }],
            5,
        );
        assert_eq!(out.completed, vec![0, 1, 2, 3]);
        assert_eq!(out.survivors, 1);
        assert_eq!(out.reassignments, 1);
        assert_eq!(out.executions, 5, "the orphaned task ran twice");
    }

    #[test]
    fn detection_latency_delays_but_does_not_lose() {
        let ts = tasks(2, 4);
        let fast = run_farm(
            &ts,
            2,
            &[Crash {
                worker: 1,
                at_tick: 1,
            }],
            1,
        );
        let slow = run_farm(
            &ts,
            2,
            &[Crash {
                worker: 1,
                at_tick: 1,
            }],
            50,
        );
        assert_eq!(fast.completed, slow.completed);
        assert!(
            slow.makespan > fast.makespan,
            "longer timeout -> later recovery: {} vs {}",
            slow.makespan,
            fast.makespan
        );
    }

    #[test]
    fn idle_worker_crash_costs_nothing() {
        let ts = tasks(2, 3);
        // Worker 2 dies while idle (only 2 tasks for 3 workers).
        let out = run_farm(
            &ts,
            3,
            &[Crash {
                worker: 2,
                at_tick: 1,
            }],
            2,
        );
        assert_eq!(out.reassignments, 0);
        assert_eq!(out.makespan, 3);
    }

    #[test]
    fn cascading_failures_survive_with_one_worker() {
        let ts = tasks(6, 2);
        let crashes = [
            Crash {
                worker: 0,
                at_tick: 1,
            },
            Crash {
                worker: 1,
                at_tick: 3,
            },
            Crash {
                worker: 2,
                at_tick: 5,
            },
        ];
        let out = run_farm(&ts, 4, &crashes, 2);
        assert_eq!(out.completed.len(), 6);
        assert_eq!(out.survivors, 1);
        assert!(out.reassignments >= 1);
    }

    #[test]
    #[should_panic(expected = "every worker died")]
    fn total_failure_detected_not_hung() {
        let ts = tasks(3, 100);
        run_farm(
            &ts,
            2,
            &[
                Crash {
                    worker: 0,
                    at_tick: 1,
                },
                Crash {
                    worker: 1,
                    at_tick: 1,
                },
            ],
            2,
        );
    }

    #[test]
    fn completion_before_detection_avoids_rerun() {
        // Worker 1 crashes *after* finishing its task but the heartbeat
        // timeout is long: the completed task must not be re-run.
        let ts = tasks(2, 3);
        let out = run_farm(
            &ts,
            2,
            &[Crash {
                worker: 1,
                at_tick: 4,
            }],
            100,
        );
        assert_eq!(out.executions, 2, "no spurious re-execution");
        assert_eq!(out.reassignments, 0);
    }

    #[test]
    fn traced_farm_publishes_counters() {
        let ts = tasks(4, 10);
        let session = TraceSession::new();
        let out = run_farm_traced(
            &ts,
            2,
            &[Crash {
                worker: 1,
                at_tick: 3,
            }],
            5,
            &session,
        );
        let snap = session.snapshot();
        assert_eq!(snap.get("ft.executions"), out.executions);
        assert_eq!(snap.get("ft.reassignments"), out.reassignments);
        assert!(snap.get("ft.heartbeat_timeouts") >= snap.get("ft.reassignments"));
        assert_eq!(snap.get("ft.heartbeat_timeouts"), 1);
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        let ts = tasks(6, 4);
        let crashes = [Crash {
            worker: 0,
            at_tick: 2,
        }];
        let session = TraceSession::new();
        let a = run_farm(&ts, 3, &crashes, 3);
        let b = run_farm_traced(&ts, 3, &crashes, 3, &session);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.executions, b.executions);
    }

    #[test]
    fn uneven_durations_balance_across_survivors() {
        let ts: Vec<Task> = (0..8)
            .map(|id| Task {
                id,
                duration: 1 + (id % 4),
            })
            .collect();
        let out = run_farm(
            &ts,
            3,
            &[Crash {
                worker: 0,
                at_tick: 2,
            }],
            3,
        );
        assert_eq!(out.completed.len(), 8);
    }
}
