//! Table II experiments: CS31's systems topics.

use crate::WALL_REPS;
use pdc_arch::pipeline::{
    dependent_chain_trace, independent_alu_trace, load_use_trace, simulate, BranchPolicy,
    PipelineConfig,
};
use pdc_core::laws;
use pdc_core::report::{count_fmt, f, speedup_fmt, Table};
use pdc_core::rng::Rng;
use pdc_core::stats::{time_op, Timing};
use pdc_memsim::cache::{Cache, CacheConfig, ReplacementPolicy, WritePolicy};
use pdc_memsim::trace;
use pdc_os::sched::{simulate as sched_sim, Job, SchedPolicy};
use pdc_os::vm::{run as vm_run, ReplacePolicy, BELADY_STRING};
use pdc_sync::problems::{all_grab_left_schedule, run_threaded, simulate as phil_sim, Strategy};
use pdc_sync::{BoundedBuffer, PdcMutex, SpinLock, TicketLock};
use pdc_threads::sliceops::{par_exclusive_scan, par_reduce};
use std::sync::Mutex;

/// `u64`s summed and scanned by the slice-ops table.
const SLICE_LEN: usize = 200_000;
/// Threads and per-thread increments of the lock ladder.
const LADDER_THREADS: usize = 2;
const LADDER_ITERS: usize = 5_000;
/// Items one producer hands one consumer per producer-consumer run.
const BUFFER_ITEMS: u64 = 2_000;

/// Memory hierarchy: layout × organization sweep + replacement policies.
pub fn cache() -> String {
    let mut out = String::new();
    // Layout experiment (row vs col major) across associativity.
    let mut t = Table::new(
        "T2-cache — 64x64 f64 matrix walk, 4 KiB cache, 64 B lines",
        &["traversal", "organization", "misses", "miss rate"],
    );
    let orgs: Vec<(&str, CacheConfig)> = vec![
        ("direct-mapped", CacheConfig::direct_mapped(64, 64)),
        (
            "2-way",
            CacheConfig {
                line_size: 64,
                sets: 32,
                ways: 2,
                replacement: ReplacementPolicy::Lru,
                write: WritePolicy::WriteBackAllocate,
            },
        ),
        ("fully-assoc", CacheConfig::fully_associative(64, 64)),
    ];
    for (walk, tr) in [
        ("row-major", trace::matrix_row_major(0, 64, 64)),
        ("col-major", trace::matrix_col_major(0, 64, 64)),
    ] {
        for (name, cfg) in &orgs {
            let mut c = Cache::new(*cfg);
            let s = c.run_trace(&tr);
            t.row(&[
                walk.to_string(),
                name.to_string(),
                s.misses.to_string(),
                f(s.miss_rate(), 3),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push('\n');
    // Replacement policies on a loop-with-hot-line trace.
    let mut t = Table::new(
        "T2-cache — replacement policy on hot+streaming trace (1 set, 4 ways)",
        &["policy", "misses"],
    );
    let mk_trace = || {
        let mut tr = Vec::new();
        for i in 1..500u64 {
            tr.push((0u64, false));
            tr.push((i * 64, false));
        }
        tr
    };
    for (name, pol) in [
        ("LRU", ReplacementPolicy::Lru),
        ("FIFO", ReplacementPolicy::Fifo),
        ("Random", ReplacementPolicy::Random),
    ] {
        let mut c = Cache::new(CacheConfig {
            line_size: 64,
            sets: 1,
            ways: 4,
            replacement: pol,
            write: WritePolicy::WriteBackAllocate,
        });
        let s = c.run_trace(&mk_trace());
        t.row(&[name.to_string(), s.misses.to_string()]);
    }
    out.push_str(&t.render());
    out
}

/// OS: scheduling metrics and page-replacement (with Belady's anomaly).
pub fn os() -> String {
    let mut out = String::new();
    let jobs = vec![Job::new(0, 24), Job::new(0, 3), Job::new(0, 3)];
    let mut t = Table::new(
        "T2-os — CPU scheduling, textbook workload (24/3/3 at t=0)",
        &[
            "policy",
            "avg wait",
            "avg turnaround",
            "avg response",
            "ctx switches",
        ],
    );
    for (name, policy) in [
        ("FCFS", SchedPolicy::Fcfs),
        ("SJF", SchedPolicy::Sjf),
        ("RR q=4", SchedPolicy::RoundRobin { quantum: 4 }),
        ("MLFQ q0=4", SchedPolicy::Mlfq { base_quantum: 4 }),
    ] {
        let m = sched_sim(policy, &jobs);
        t.row(&[
            name.to_string(),
            f(m.avg_waiting(), 2),
            f(m.avg_turnaround(), 2),
            f(m.avg_response(), 2),
            m.context_switches.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    let mut t = Table::new(
        "T2-os — page faults on the Belady string (FIFO anomaly!)",
        &["frames", "FIFO", "LRU", "Clock", "OPT"],
    );
    for frames in [3usize, 4] {
        t.row(&[
            frames.to_string(),
            vm_run(ReplacePolicy::Fifo, frames, &BELADY_STRING)
                .faults
                .to_string(),
            vm_run(ReplacePolicy::Lru, frames, &BELADY_STRING)
                .faults
                .to_string(),
            vm_run(ReplacePolicy::Clock, frames, &BELADY_STRING)
                .faults
                .to_string(),
            vm_run(ReplacePolicy::Opt, frames, &BELADY_STRING)
                .faults
                .to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Synchronization: dining philosophers across strategies.
pub fn sync() -> String {
    let n = 5;
    let mut t = Table::new(
        "T2-sync — dining philosophers, adversarial all-grab-left schedule",
        &["strategy", "deadlocked", "cycle size", "meals eaten"],
    );
    for (name, strat) in [
        ("naive (left-first)", Strategy::Naive),
        ("global order", Strategy::Ordered),
        ("arbitrator (n-1)", Strategy::Arbitrator),
    ] {
        let out = phil_sim(strat, n, 2, &all_grab_left_schedule(n), 100_000);
        t.row(&[
            name.to_string(),
            out.deadlocked.to_string(),
            out.cycle
                .as_ref()
                .map_or("-".into(), |c| c.len().to_string()),
            out.meals.iter().sum::<u32>().to_string(),
        ]);
    }
    let mut s = t.render();
    // Real threads for the deadlock-free strategies.
    let mut t = Table::new(
        "T2-sync — real threads (50 meals each, 5 philosophers)",
        &["strategy", "total meals", "all fed?"],
    );
    for (name, strat) in [
        ("global order", Strategy::Ordered),
        ("arbitrator", Strategy::Arbitrator),
    ] {
        let out = run_threaded(strat, 5, 50);
        t.row(&[
            name.to_string(),
            out.meals.iter().sum::<u32>().to_string(),
            out.meals.iter().all(|&m| m == 50).to_string(),
        ]);
    }
    s.push('\n');
    s.push_str(&t.render());
    s.push('\n');
    s.push_str(&producer_consumer());
    s
}

/// Producer-consumer throughput on real threads, by buffer capacity: a
/// capacity-1 buffer hands off every item, a larger one lets the pair
/// run ahead of each other.
fn producer_consumer() -> String {
    let mut t = Table::new(
        format!(
            "T2-sync — bounded buffer on real threads: 1 producer, 1 consumer, {} items",
            count_fmt(BUFFER_ITEMS)
        ),
        &["capacity", "median (us)", "items/ms"],
    );
    for cap in [1usize, 16, 256] {
        let timing = time_op(WALL_REPS, || {
            let buf = BoundedBuffer::new(cap);
            std::thread::scope(|s| {
                s.spawn(|| (0..BUFFER_ITEMS).for_each(|i| buf.put(i)));
                s.spawn(|| (0..BUFFER_ITEMS).map(|_| buf.take()).sum::<u64>())
                    .join()
                    .unwrap()
            })
        });
        let secs = timing.median.as_secs_f64();
        t.row(&[
            cap.to_string(),
            f(secs * 1e6, 1),
            f(BUFFER_ITEMS as f64 / (secs * 1e3), 1),
        ]);
    }
    t.render()
}

/// Multicore and threads on real hardware: data-parallel slice ops
/// against a serial loop, and the lock ladder under contention.
pub fn threads() -> String {
    let mut out = slice_ops();
    out.push('\n');
    out.push_str(&lock_ladder());
    out
}

fn slice_ops() -> String {
    let mut rng = Rng::new(22);
    let data: Vec<u64> = (0..SLICE_LEN).map(|_| rng.gen_range(1_000)).collect();
    let serial = time_op(WALL_REPS, || data.iter().sum::<u64>());
    let rows = [
        ("serial sum", 1, serial),
        (
            "par_reduce (sum)",
            2,
            time_op(WALL_REPS, || {
                par_reduce(&data, 2, 0u64, |&x| x, |a, b| a + b)
            }),
        ),
        (
            "par_exclusive_scan (+)",
            2,
            time_op(WALL_REPS, || {
                par_exclusive_scan(&data, 2, 0u64, |a, b| a + b)
            }),
        ),
    ];
    let mut t = Table::new(
        format!(
            "T2-threads — slice ops on real threads, n = {} u64",
            count_fmt(SLICE_LEN as u64)
        ),
        &["op", "workers", "median (us)", "vs serial sum"],
    );
    for (op, workers, timing) in rows {
        t.row(&[
            op.to_string(),
            workers.to_string(),
            f(timing.median.as_secs_f64() * 1e6, 1),
            speedup_fmt(serial.median.as_secs_f64() / timing.median.as_secs_f64()),
        ]);
    }
    t.render()
}

/// `LADDER_THREADS` threads each add 1 to one shared counter
/// `LADDER_ITERS` times through `incr`.
fn contend<L: Sync>(lock: &L, incr: impl Fn(&L) + Sync) {
    std::thread::scope(|s| {
        for _ in 0..LADDER_THREADS {
            s.spawn(|| (0..LADDER_ITERS).for_each(|_| incr(lock)));
        }
    });
}

/// Time `run` like [`time_op`]; `run` also returns a contention count,
/// reported as the median over every run.
fn time_counted(mut run: impl FnMut() -> u64) -> (Timing, u64) {
    let mut counts = Vec::new();
    let timing = time_op(WALL_REPS, || counts.push(run()));
    counts.sort_unstable();
    (timing, counts[counts.len() / 2])
}

fn lock_ladder() -> String {
    let (spin, spins) = time_counted(|| {
        let l = SpinLock::new(0u64);
        contend(&l, |l| *l.lock() += 1);
        l.contention_spins()
    });
    let ticket = time_op(WALL_REPS, || {
        let l = TicketLock::new(0u64);
        contend(&l, |l| *l.lock() += 1);
    });
    let (mutex, parks) = time_counted(|| {
        let l = PdcMutex::new(0u64);
        contend(&l, |l| *l.lock() += 1);
        l.park_count()
    });
    let std_mutex = time_op(WALL_REPS, || {
        let l = Mutex::new(0u64);
        contend(&l, |l| *l.lock().unwrap() += 1);
    });
    let increments = (LADDER_THREADS * LADDER_ITERS) as u64;
    let mut t = Table::new(
        format!(
            "T2-threads — lock ladder: {LADDER_THREADS} threads x {} increments of one counter",
            count_fmt(LADDER_ITERS as u64)
        ),
        &["lock", "median (us)", "ns/increment", "spins", "parks"],
    );
    let count = |c: Option<u64>| c.map_or("-".into(), count_fmt);
    for (name, timing, spins, parks) in [
        ("SpinLock", spin, Some(spins), None),
        ("TicketLock", ticket, None, None),
        ("PdcMutex", mutex, None, Some(parks)),
        ("std Mutex", std_mutex, None, None),
    ] {
        let secs = timing.median.as_secs_f64();
        t.row(&[
            name.to_string(),
            f(secs * 1e6, 1),
            f(secs * 1e9 / increments as f64, 1),
            count(spins),
            count(parks),
        ]);
    }
    t.render()
}

/// Amdahl/Gustafson curves: the law tables students fill in.
pub fn amdahl() -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "T2-amdahl — Amdahl speedup by serial fraction",
        &["p", "s=0.01", "s=0.05", "s=0.10", "s=0.25"],
    );
    for p in [1usize, 2, 4, 8, 16, 64, 1024] {
        t.row(&[
            p.to_string(),
            speedup_fmt(laws::amdahl_speedup(0.01, p)),
            speedup_fmt(laws::amdahl_speedup(0.05, p)),
            speedup_fmt(laws::amdahl_speedup(0.10, p)),
            speedup_fmt(laws::amdahl_speedup(0.25, p)),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    let mut t = Table::new(
        "T2-amdahl — Gustafson scaled speedup (same fractions)",
        &["p", "s=0.05 amdahl", "s=0.05 gustafson"],
    );
    for p in [2usize, 8, 64, 1024] {
        t.row(&[
            p.to_string(),
            speedup_fmt(laws::amdahl_speedup(0.05, p)),
            speedup_fmt(laws::gustafson_speedup(0.05, p)),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Pipelining and superscalar: CPI across hazard profiles.
pub fn pipeline() -> String {
    let mut t = Table::new(
        "T2-pipeline — 5-stage pipeline CPI by workload and configuration",
        &[
            "workload",
            "config",
            "CPI",
            "stalls",
            "flushes",
            "speedup vs unpipelined",
        ],
    );
    let workloads: Vec<(&str, Vec<pdc_arch::pipeline::PipeOp>)> = vec![
        ("independent ALU", independent_alu_trace(10_000)),
        ("dependence chain", dependent_chain_trace(10_000)),
        ("load-use loop", load_use_trace(5_000)),
    ];
    let configs: Vec<(&str, PipelineConfig)> = vec![
        ("forwarding", PipelineConfig::default()),
        (
            "no forwarding",
            PipelineConfig {
                forwarding: false,
                ..Default::default()
            },
        ),
        (
            "dual-issue",
            PipelineConfig {
                width: 2,
                ..Default::default()
            },
        ),
        (
            "perfect branches",
            PipelineConfig {
                branch_policy: BranchPolicy::Perfect,
                ..Default::default()
            },
        ),
    ];
    for (wname, tr) in &workloads {
        for (cname, cfg) in &configs {
            let r = simulate(cfg, tr);
            t.row(&[
                wname.to_string(),
                cname.to_string(),
                f(r.cpi(), 3),
                count_fmt(r.stall_cycles),
                count_fmt(r.flush_cycles),
                speedup_fmt(r.speedup_vs_unpipelined(5)),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn belady_anomaly_visible_in_table() {
        let out = super::os();
        assert!(out.contains("anomaly"));
        // FIFO at 3 frames = 9, at 4 frames = 10.
        assert!(out.contains('9') && out.contains("10"));
    }

    #[test]
    fn philosopher_table_shows_deadlock_only_for_naive() {
        let out = super::sync();
        assert!(out.contains("true"), "naive deadlocks");
        assert!(out.contains("false"), "fixes do not");
    }
}
