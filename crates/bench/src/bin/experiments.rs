//! Regenerate every paper-table reproduction.
//!
//! ```text
//! experiments                 # run everything (also writes the tables JSON)
//! experiments --list          # list experiment ids
//! experiments --exp <id>      # run one (also writes the tables JSON)
//! experiments --trace [path]  # run a cross-subsystem traced workload
//!                             # and dump the pdc-trace/2 JSON snapshot
//!                             # (default path: target/pdc-trace/experiments.trace.json)
//! experiments --analyze       # run a data-race-free cross-subsystem workload
//!                             # plus the known-defect fixtures through
//!                             # pdc-analyze, write both pdc-analyze/1 reports
//!                             # (experiments.analyze.json and
//!                             # experiments.fixtures.analyze.json), and exit
//!                             # non-zero unless every verdict matches
//! experiments --shard         # run the DHT-sharded KV as 1 process (threads)
//!                             # AND as router+shard OS processes over loopback
//!                             # TCP, assert the final states are identical,
//!                             # write the merged pdc-trace/3 snapshot
//!                             # (target/pdc-trace/shard/merged.trace.json),
//!                             # and exit non-zero unless the multi-process
//!                             # trace passes pdc-analyze clean
//! experiments --serve         # run the live-traffic failover gate: a
//!                             # closed-loop load generator over the
//!                             # replicated sharded KV with one shard
//!                             # process killed mid-run; writes latency
//!                             # percentiles (pdc-tables/1), the merged
//!                             # pdc-trace/3 snapshot, and its analyze
//!                             # report under target/pdc-trace/serve/,
//!                             # and exits non-zero if any acked write
//!                             # was lost, no promotion happened, or the
//!                             # shrunk survivor trace analyzes dirty
//! experiments --wire          # run the wire gate: in one 3-rank mesh
//!                             # world, child↔child traffic direct (one
//!                             # hop) and relayed through rank 0 (two
//!                             # hops); checks hop counts (the parent
//!                             # forwards nothing, rank 0 relays every
//!                             # relayed frame), measures α/β per path,
//!                             # and requires the relay to cost more α
//!                             # and to shift the coalescing crossover
//!                             # n*=α/β right, next to the with_hops(2)
//!                             # model; writes the comparison as
//!                             # pdc-tables/1 JSON under
//!                             # target/pdc-trace/wire/
//! experiments --check         # run the pdc-check soundness gate: PCT must
//!                             # flag the racy counter within 1000 schedules,
//!                             # exhaustive DFS must prove the fixed counter
//!                             # clean, and replaying the minimized schedule
//!                             # written to target/pdc-check/minimal.schedule.json
//!                             # must reproduce the race verdict byte-for-byte;
//!                             # exits non-zero on any mismatch
//! experiments --render [path] # run a compact traced workload (threads + MPI
//!                             # collectives) and render it as a self-contained
//!                             # HTML timeline (default path:
//!                             # target/pdc-trace/experiments.timeline.html)
//! ```
//!
//! Every printed table is also captured as JSON: `--trace` embeds its
//! summary table in the snapshot's `tables` array, and the run-all /
//! `--exp` modes write `target/pdc-trace/experiments.tables.json` with
//! one entry per experiment (see EXPERIMENTS.md for the format).

use pdc_analyze::{fixtures, DefectKind, Report};
use pdc_bench::registry;
use pdc_core::machine::{MachineConfig, SimMachine};
use pdc_core::report::{capture_tables, write_text_file, Table};
use pdc_core::trace::{self, TraceSession};
use pdc_extmem::{multiply_into, OocMatrix};
use pdc_gpu::device::Phase;
use pdc_gpu::{Device, ThreadCtx};
use pdc_memsim::{Cache, CacheConfig, CoherenceSim, Protocol};
use pdc_threads::WorkStealingPool;

/// Drive every traced subsystem — pool, machine, MPI collectives, the
/// fault-tolerant farm, the GPU model, the external-memory model, and
/// the cache/coherence simulators — through one [`TraceSession`] and
/// write the resulting `pdc-trace/2` snapshot (summary table embedded)
/// to `path`.
fn run_traced_workload(path: &std::path::Path) {
    let session = TraceSession::new();

    let ((), tables) = capture_tables(|| {
        // pool.*: 200 tiny tasks across 4 workers.
        let pool = WorkStealingPool::with_trace(4, session.clone());
        for i in 0..200u64 {
            pool.spawn(move || {
                std::hint::black_box(i.wrapping_mul(i));
            });
        }
        pool.wait_idle();

        // machine.*: two BSP supersteps plus a critical section.
        let mut machine = SimMachine::with_trace(MachineConfig::with_cores(4), &session);
        for _ in 0..2 {
            machine.parallel_even(1_000, 4);
            machine.barrier(4);
        }
        machine.critical_each(4, 8);

        // mpi.* / coll.*: an allreduce and a barrier across 4 ranks,
        // each bracketed by coll_begin/coll_end marks.
        let (_, _) = pdc_mpi::World::run_traced(4, &session, |rank| {
            let sum = pdc_mpi::coll::allreduce(rank, rank.id() as u64, |a, b| a + b);
            pdc_mpi::coll::barrier::<u64, _>(rank);
            sum
        });

        pdc_mpi::ft::run_farm_traced(
            &(0..8)
                .map(|id| pdc_mpi::ft::Task { id, duration: 3 })
                .collect::<Vec<_>>(),
            3,
            &[pdc_mpi::ft::Crash {
                worker: 1,
                at_tick: 2,
            }],
            2,
            &session,
        );

        // gpu.*: a two-phase staging kernel (global → shared → global),
        // 2 blocks × 64 threads, one kernel event per launch.
        let mut dev = Device::new(256);
        dev.attach_trace(&session);
        let host: Vec<i64> = (0..128).collect();
        dev.upload(0, &host);
        let phases: Vec<Phase<'_>> = vec![
            Box::new(|t: &mut ThreadCtx<'_>| {
                let v = t.read_global(t.gtid());
                t.write_shared(t.tid(), 2 * v);
            }),
            Box::new(|t: &mut ThreadCtx<'_>| {
                let v = t.read_shared(t.tid());
                t.write_global(128 + t.gtid(), v);
            }),
        ];
        dev.launch(2, 64, 64, &phases);

        // io.*: a block-reader scan over a small file, plus an
        // out-of-core matrix multiply through three buffer pools.
        let mut disk = pdc_extmem::Disk::new(8);
        disk.attach_trace(&session);
        let file = disk.create_file((0..64i64).collect());
        let mut reader = disk.reader(file);
        let mut checksum = 0i64;
        while let Some(v) = reader.next() {
            checksum = checksum.wrapping_add(v);
        }
        std::hint::black_box(checksum);
        disk.write_file(file, (0..64i64).rev().collect());

        let n = 8;
        let mut ma = OocMatrix::from_fn(n, 4, 4, |i, j| (i + j) as f64);
        let mut mb = OocMatrix::from_fn(n, 4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        let mut mc = OocMatrix::from_fn(n, 4, 4, |_, _| 0.0);
        ma.attach_trace(&session);
        mb.attach_trace(&session);
        mc.attach_trace(&session);
        multiply_into(&mut ma, &mut mb, &mut mc, 4);

        // cache.*: a thrashing scan through a direct-mapped cache, then
        // a MESI ping-pong producing invalidations and an S→M upgrade.
        let mut cache = Cache::new(CacheConfig::direct_mapped(64, 16));
        cache.attach_trace(&session);
        for i in 0..512u64 {
            cache.access((i * 64) % 4096, i % 4 == 0);
        }
        let mut coh = CoherenceSim::new(Protocol::Mesi, 2, 64);
        coh.attach_trace(&session);
        coh.access(0, 0, false);
        coh.access(1, 0, false);
        coh.access(1, 0, true);
        coh.access(0, 0, false);

        // The summary table: one row per key family, rendered to
        // stdout and captured into the snapshot's `tables` array.
        let snap = session.snapshot();
        let mut t = Table::new(
            "Traced workload summary (pdc-trace/2)",
            &["key family", "example counter", "value"],
        );
        for (family, key) in [
            ("pool.*", "pool.executed"),
            ("machine.*", "machine.barriers"),
            ("mpi.*", "mpi.msgs"),
            ("coll.*", "coll.allreduce"),
            ("gpu.*", "gpu.launches"),
            ("io.*", "io.reads"),
            ("cache.*", "cache.misses"),
        ] {
            t.row(&[
                family.to_string(),
                key.to_string(),
                snap.get(key).to_string(),
            ]);
        }
        print!("{}", t.render());
    });

    let json =
        session.to_json_with_tables(&[("source", "experiments --trace".to_string())], &tables);
    write_text_file(path, &json).expect("write trace snapshot");
    println!("pdc-trace snapshot written to {}", path.display());
    println!("{json}");
}

/// A deliberately data-race-free workload spanning every instrumented
/// subsystem: a work-stealing pool incrementing a mutex-protected
/// counter, a fork-join diamond, the BSP machine with its critical
/// section, MPI collectives, rwlock readers/writer, a oncecell
/// publication, a sense barrier, a bounded-buffer pipeline, and both
/// deadlock-free philosopher strategies. `pdc-analyze` must find
/// nothing here — this is the false-positive gate.
fn drf_workload_session() -> TraceSession {
    use pdc_sync::{BoundedBuffer, OnceCell, PdcMutex, PdcRwLock, SenseBarrier};
    let session = TraceSession::new();

    // Pool + mutex-protected shared counter: every access inside the
    // guard, recorded under each worker's own trace actor.
    let counter = std::sync::Arc::new(PdcMutex::new(0u64));
    let var_counter = trace::next_site_id();
    let pool = pdc_threads::WorkStealingPool::with_trace(4, session.clone());
    for _ in 0..64 {
        let counter = std::sync::Arc::clone(&counter);
        pool.spawn(move || {
            let mut g = counter.lock();
            trace::record_var_read(var_counter);
            let v = *g;
            trace::record_var_write(var_counter);
            *g = v + 1;
        });
    }
    pool.wait_idle();
    assert_eq!(*counter.lock(), 64);

    // Fork-join diamond: parent initialises, child reads after the
    // fork edge, parent resumes after the join edge.
    trace::install_sync_trace(session.thread(0));
    let var_join = trace::next_site_id();
    trace::record_var_write(var_join);
    let (a, b) = pdc_threads::join(
        || 21u64,
        || {
            trace::record_var_read(var_join);
            21u64
        },
    );
    std::hint::black_box(a + b);

    // BSP machine supersteps plus its modeled critical section.
    let mut machine = SimMachine::with_trace(MachineConfig::with_cores(4), &session);
    machine.parallel_even(1_000, 4);
    machine.barrier(4);
    machine.critical_each(4, 8);
    trace::clear_sync_trace();

    // MPI: matched collectives across 4 ranks.
    let (_, _) = pdc_mpi::World::run_traced(4, &session, |rank| {
        let sum = pdc_mpi::coll::allreduce(rank, rank.id() as u64, |a, b| a + b);
        pdc_mpi::coll::barrier::<u64, _>(rank);
        sum
    });

    // RwLock readers/writer, a oncecell publication, and a barrier-
    // published value, all on real threads with their own actors.
    let rw = PdcRwLock::new(0u64);
    let var_rw = trace::next_site_id();
    let cell: OnceCell<u64> = OnceCell::new();
    let var_cell = trace::next_site_id();
    let bar = SenseBarrier::new(3);
    let var_bar = trace::next_site_id();
    std::thread::scope(|s| {
        for t in 0..3u32 {
            let session = &session;
            let (rw, cell, bar) = (&rw, &cell, &bar);
            s.spawn(move || {
                trace::install_sync_trace(session.thread(30 + t));
                for _ in 0..8 {
                    if t == 0 {
                        let mut g = rw.write();
                        trace::record_var_write(var_rw);
                        *g += 1;
                    } else {
                        let g = rw.read();
                        trace::record_var_read(var_rw);
                        std::hint::black_box(*g);
                    }
                }
                let v = cell.get_or_init(|| {
                    trace::record_var_write(var_cell);
                    7u64
                });
                trace::record_var_read(var_cell);
                std::hint::black_box(*v);
                if t == 0 {
                    trace::record_var_write(var_bar);
                }
                bar.wait();
                trace::record_var_read(var_bar);
                trace::clear_sync_trace();
            });
        }
    });

    // Bounded-buffer pipeline: pulse edges only, item ownership moves
    // with the item.
    let buf: BoundedBuffer<u64> = BoundedBuffer::new(4);
    std::thread::scope(|s| {
        let (buf_p, buf_c) = (&buf, &buf);
        let session = &session;
        s.spawn(move || {
            trace::install_sync_trace(session.thread(40));
            for i in 0..16u64 {
                buf_p.put(i);
            }
            trace::clear_sync_trace();
        });
        s.spawn(move || {
            trace::install_sync_trace(session.thread(41));
            let mut sum = 0u64;
            for _ in 0..16 {
                sum += buf_c.take();
            }
            std::hint::black_box(sum);
            trace::clear_sync_trace();
        });
    });

    // Deadlock-free philosophers: global ordering, then the arbitrator
    // (whose raw ring must come back gate-suppressed, not as a defect).
    use pdc_sync::problems::{lucky_sequential_schedule, simulate_traced, Strategy};
    let schedule = lucky_sequential_schedule(5, 1);
    simulate_traced(Strategy::Ordered, 5, 1, &schedule, 10_000, &session);
    simulate_traced(Strategy::Arbitrator, 5, 1, &schedule, 10_000, &session);

    session
}

/// `--analyze`: the self-gating soundness check. The DRF workload must
/// analyze clean, the known-defect fixtures must each be flagged for
/// the right reason, and the known-good fixtures must be clean. Any
/// mismatch exits non-zero, which is what CI's analyze-gate step
/// relies on.
fn run_analyze() {
    let mut failures: Vec<String> = Vec::new();
    let mut check = |name: &str, report: &Report, ok: bool, expect: &str| {
        if !ok {
            failures.push(format!(
                "{name}: expected {expect}, got {} defect(s): {:?}",
                report.defects.len(),
                report
                    .defects
                    .iter()
                    .map(|d| d.kind.name())
                    .collect::<Vec<_>>()
            ));
        }
    };

    let session = drf_workload_session();
    let workload = pdc_analyze::analyze(&session);
    check(
        "drf_workload",
        &workload,
        workload.clean() && workload.dropped == 0,
        "a clean report with no dropped events",
    );

    let racy = pdc_analyze::analyze(&fixtures::racy_counter_session());
    check(
        "racy_counter",
        &racy,
        racy.count_kind(DefectKind::DataRace) >= 1
            && racy.count_kind(DefectKind::LocksetViolation) >= 1,
        "both a data_race and a lockset_violation",
    );
    let fixed = pdc_analyze::analyze(&fixtures::fixed_counter_session());
    check("fixed_counter", &fixed, fixed.clean(), "a clean report");
    let (dl_session, _) = fixtures::deadlocky_philosophers_session(5);
    let deadlocky = pdc_analyze::analyze(&dl_session);
    check(
        "deadlocky_philosophers",
        &deadlocky,
        deadlocky.count_kind(DefectKind::LockOrderCycle) >= 1,
        "a predicted lock_order_cycle",
    );
    let (ord_session, _) = fixtures::ordered_philosophers_session(5);
    let ordered = pdc_analyze::analyze(&ord_session);
    check(
        "ordered_philosophers",
        &ordered,
        ordered.clean(),
        "a clean report",
    );
    let (arb_session, _) = fixtures::arbitrator_philosophers_session(5);
    let arbitrator = pdc_analyze::analyze(&arb_session);
    check(
        "arbitrator_philosophers",
        &arbitrator,
        arbitrator.clean() && arbitrator.gated_cycles.len() == 1,
        "a clean report with the ring gate-suppressed",
    );
    let mpi = pdc_analyze::analyze(&fixtures::mpi_mismatch_session());
    check(
        "mpi_mismatch",
        &mpi,
        mpi.count_kind(DefectKind::MpiUnmatchedSend) >= 1
            && mpi.count_kind(DefectKind::MpiCollectiveOrder) >= 1
            && mpi.count_kind(DefectKind::MpiUnmatchedCollective) >= 1,
        "all three MPI lint kinds",
    );

    let named: Vec<(&str, &Report, &str)> = vec![
        ("drf_workload", &workload, "clean"),
        ("racy_counter", &racy, "race + lockset"),
        ("fixed_counter", &fixed, "clean"),
        ("deadlocky_philosophers", &deadlocky, "lock-order cycle"),
        ("ordered_philosophers", &ordered, "clean"),
        ("arbitrator_philosophers", &arbitrator, "clean (gated ring)"),
        ("mpi_mismatch", &mpi, "3 MPI lints"),
    ];
    let mut t = Table::new(
        "pdc-analyze self-test (experiments --analyze)",
        &["workload", "events", "defects", "gated", "expected"],
    );
    for (name, r, expect) in &named {
        t.row(&[
            name.to_string(),
            r.events_analyzed.to_string(),
            r.defects.len().to_string(),
            r.gated_cycles.len().to_string(),
            expect.to_string(),
        ]);
    }
    print!("{}", t.render());

    write_text_file(
        std::path::Path::new("target/pdc-trace/experiments.analyze.json"),
        &workload.to_json(),
    )
    .expect("write analyze report");
    let mut fx = String::from("{\"schema\":\"pdc-analyze/1\",\"mode\":\"fixtures\",\"fixtures\":[");
    for (i, (name, r, _)) in named.iter().skip(1).enumerate() {
        if i > 0 {
            fx.push(',');
        }
        fx.push_str(&format!(
            "{{\"name\":\"{name}\",\"report\":{}}}",
            r.to_json()
        ));
    }
    fx.push_str("]}");
    write_text_file(
        std::path::Path::new("target/pdc-trace/experiments.fixtures.analyze.json"),
        &fx,
    )
    .expect("write fixtures report");
    println!("analyze reports written to target/pdc-trace/experiments.analyze.json");
    println!("               and to target/pdc-trace/experiments.fixtures.analyze.json");

    if failures.is_empty() {
        println!("analyze gate: all {} verdicts match", named.len());
    } else {
        for f in &failures {
            eprintln!("analyze gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// `--shard`: the multi-process determinism gate. One op script runs
/// through the DHT-sharded KV three ways — single process unbatched,
/// single process batched, and as `1 + SHARDS` OS processes over
/// loopback TCP with batching — and every way must land on the same
/// final state. The wire run's per-process pdc-trace snapshots are
/// merged into one `pdc-trace/3` document, which must carry nonzero
/// per-process `mpi.msgs` and analyze clean. Children re-executed by
/// [`pdc_mpi::WireWorld`] re-enter this function (dispatched in `main`
/// before argument parsing) and never return from `run_wire`.
fn run_shard_gate() {
    use pdc_db::sharded;
    const SHARDS: usize = 3;
    let ops = sharded::script(64, 2_000, 0x5EED);
    let opts = pdc_mpi::WireOptions::for_args(SHARDS + 1, "shard-gate", &["--shard"])
        .traced("target/pdc-trace/shard");
    // Children exit inside this call; everything below is parent-only.
    let wire = sharded::run_wire(&opts, SHARDS, &ops, true);

    let (plain_state, plain_stats) = sharded::run_local(SHARDS, &ops, false);
    let (batched_state, batched_stats) = sharded::run_local(SHARDS, &ops, true);
    let merged = wire.trace.as_ref().expect("traced wire run");
    let report = pdc_analyze::analyze_merged(merged);

    let mut failures: Vec<String> = Vec::new();
    if wire.results[0] != plain_state {
        failures.push("multi-process state diverged from single-process".into());
    }
    if batched_state != plain_state {
        failures.push("batched routing changed the final state".into());
    }
    if batched_stats.messages >= plain_stats.messages {
        failures.push(format!(
            "batching did not reduce messages ({} vs {})",
            batched_stats.messages, plain_stats.messages
        ));
    }
    for p in &merged.processes {
        if p.counters.get("mpi.msgs").copied().unwrap_or(0) == 0 {
            failures.push(format!("process {} recorded zero mpi.msgs", p.process));
        }
    }
    if merged.counter("db.shard_ops") != ops.len() as u64 {
        failures.push(format!(
            "shards served {} of {} ops",
            merged.counter("db.shard_ops"),
            ops.len()
        ));
    }
    if !report.clean() {
        failures.push(format!(
            "pdc-analyze flagged the merged trace: {:?}",
            report
                .defects
                .iter()
                .map(|d| d.kind.name())
                .collect::<Vec<_>>()
        ));
    }

    let mut t = Table::new(
        "shard gate (experiments --shard) — 2000 ops, 3 shards + router",
        &["run", "processes", "messages", "keys left"],
    );
    t.row(&[
        "threads, unbatched".into(),
        "1".into(),
        plain_stats.messages.to_string(),
        plain_state.len().to_string(),
    ]);
    t.row(&[
        "threads, batched".into(),
        "1".into(),
        batched_stats.messages.to_string(),
        batched_state.len().to_string(),
    ]);
    t.row(&[
        "OS processes, batched".into(),
        (SHARDS + 1).to_string(),
        wire.stats.messages.to_string(),
        wire.results[0].len().to_string(),
    ]);
    print!("{}", t.render());

    let path = std::path::Path::new("target/pdc-trace/shard/merged.trace.json");
    write_text_file(
        path,
        &merged.to_json(&[("source", "experiments --shard".to_string())]),
    )
    .expect("write merged trace");
    println!("merged pdc-trace/3 snapshot written to {}", path.display());
    write_text_file(
        std::path::Path::new("target/pdc-trace/shard/merged.analyze.json"),
        &report.to_json(),
    )
    .expect("write merged analyze report");

    if failures.is_empty() {
        println!(
            "shard gate: states identical across {} runs, {} events analyzed clean",
            3, report.events_analyzed
        );
    } else {
        for f in &failures {
            eprintln!("shard gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// `--check`: the model-checker soundness gate, CI's check-gate step.
/// Seven verdicts, each printed as a greppable line and any mismatch
/// exits non-zero:
///
/// 1. PCT exploration must flag the racy counter fixture within 1000
///    schedules (the "finds the bug" direction);
/// 2. exhaustive DFS over the 2-thread/1-op fixed counter must
///    terminate `complete` with every schedule clean (the "no false
///    alarm" direction);
/// 3. the minimized failing schedule is written to
///    `target/pdc-check/minimal.schedule.json`, parsed back from disk,
///    and strict-replayed — the replay must reproduce the race verdict
///    and a byte-identical canonical trace (the record/replay
///    contract);
/// 4. DPOR must prove the same fixed counter clean with the same
///    `complete` certificate in *strictly fewer* schedules than DFS
///    (the reduction is real, not a renamed DFS);
/// 5. DPOR must still flag the racy counter (pruning never drops a
///    behaviour class);
/// 6. DPOR must still find the AB-BA deadlock precisely;
/// 7. DPOR must finish the independent-counters body `complete` at a
///    budget where DFS provably cannot (the scaling claim).
///
/// The minimal run's analyze report and HTML timeline land next to the
/// schedule for artifact upload.
fn run_check_gate() {
    use pdc_check::{
        explore_dfs, explore_dpor, explore_pct, fixtures as check_fx, replay_strict, Config,
        Outcome,
    };

    let mut failures: Vec<String> = Vec::new();
    let cfg = Config {
        max_schedules: 1000,
        ..Config::default()
    };

    // Direction 1: the bug is found.
    let racy = explore_pct(check_fx::racy_counter_body(2), &cfg);
    match &racy.failure {
        Some(found) => {
            println!(
                "check gate: racy counter flagged after {} schedule(s) via pct: {}",
                racy.schedules_run, found.description
            );
            if found.minimal_run.report.count_kind(DefectKind::DataRace) == 0 {
                failures.push(format!(
                    "minimal schedule's trace lost the data_race verdict: {:?}",
                    found
                        .minimal_run
                        .report
                        .defects
                        .iter()
                        .map(|d| d.kind.name())
                        .collect::<Vec<_>>()
                ));
            }
        }
        None => failures.push(format!(
            "pct missed the racy counter in {} schedules",
            racy.schedules_run
        )),
    }

    // Direction 2: the fix is proven, not just stress-tested.
    let dfs_cfg = Config {
        max_schedules: 50_000,
        ..Config::default()
    };
    let fixed = explore_dfs(check_fx::fixed_counter_body(2, 1), &dfs_cfg);
    if fixed.complete && fixed.passed() {
        println!(
            "check gate: fixed counter proven clean by exhaustive dfs ({} schedules, complete)",
            fixed.schedules_run
        );
    } else {
        failures.push(format!(
            "dfs verdict on the fixed counter: complete={}, failure={:?}",
            fixed.complete,
            fixed.failure.as_ref().map(|f| &f.description)
        ));
    }

    // The record/replay contract, through the filesystem like a student
    // (or CI artifact consumer) would exercise it.
    let dir = std::path::Path::new("target/pdc-check");
    if let Some(found) = &racy.failure {
        let sched_path = dir.join("minimal.schedule.json");
        write_text_file(&sched_path, &found.minimal.to_json()).expect("write minimal schedule");
        println!(
            "minimized pdc-check/1 schedule ({} choices) written to {}",
            found.minimal.choices.len(),
            sched_path.display()
        );
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

        let reread = std::fs::read_to_string(&sched_path).expect("re-read minimal schedule");
        match pdc_check::Schedule::parse(&reread) {
            // Strict replay: a schedule naming tasks the body never
            // spawned is a typed error here, not a mid-replay panic.
            Ok(parsed) => match replay_strict(check_fx::racy_counter_body(2), &parsed, &cfg) {
                Ok(rerun) => {
                    let verdict_ok =
                        rerun.failed(&cfg) && rerun.report.count_kind(DefectKind::DataRace) >= 1;
                    let trace_ok = rerun.trace_jsonl() == found.minimal_run.trace_jsonl();
                    if verdict_ok && trace_ok {
                        println!(
                            "check gate: minimal schedule replay reproduced the race verdict byte-identically"
                        );
                    } else {
                        failures.push(format!(
                            "replay of the written schedule diverged: verdict_ok={verdict_ok}, trace_ok={trace_ok}"
                        ));
                    }
                }
                Err(e) => failures.push(format!("strict replay rejected the schedule: {e}")),
            },
            Err(e) => failures.push(format!("written schedule failed to parse: {e}")),
        }
    }

    // Directions 4-7: the partial-order reduction, both ways. A
    // reduction that misses bugs is unsound; one that runs as many
    // schedules as DFS is not a reduction.
    let dpor_fixed = explore_dpor(check_fx::fixed_counter_body(2, 1), &dfs_cfg);
    if dpor_fixed.complete && dpor_fixed.passed() && dpor_fixed.schedules_run < fixed.schedules_run
    {
        println!(
            "check gate: dpor proves fixed counter clean in strictly fewer schedules than dfs ({} vs {}, {} sleep-set prunes)",
            dpor_fixed.schedules_run, fixed.schedules_run, dpor_fixed.pruned
        );
    } else {
        failures.push(format!(
            "dpor on the fixed counter: complete={}, passed={}, schedules {} vs dfs {}",
            dpor_fixed.complete,
            dpor_fixed.passed(),
            dpor_fixed.schedules_run,
            fixed.schedules_run
        ));
    }

    let dpor_racy = explore_dpor(check_fx::racy_counter_body(2), &cfg);
    match &dpor_racy.failure {
        Some(found) => println!(
            "check gate: dpor flags racy counter after {} schedule(s): {}",
            dpor_racy.schedules_run, found.description
        ),
        None => failures.push(format!(
            "dpor missed the racy counter in {} schedules",
            dpor_racy.schedules_run
        )),
    }

    let dl_cfg = Config {
        max_schedules: 50_000,
        fail_on_defects: false,
        ..Config::default()
    };
    let dpor_dl = explore_dpor(check_fx::abba_deadlock_body(), &dl_cfg);
    match dpor_dl.failure.as_ref().map(|f| &f.run.outcome) {
        Some(Outcome::Deadlock(live)) => println!(
            "check gate: dpor finds ab-ba deadlock of tasks {live:?} ({} schedules)",
            dpor_dl.schedules_run
        ),
        other => failures.push(format!("dpor on AB-BA locks returned {other:?}")),
    }

    let scale_cfg = Config {
        max_schedules: 200,
        ..Config::default()
    };
    let dfs_scale = explore_dfs(check_fx::independent_counters_body(4, 1), &scale_cfg);
    let dpor_scale = explore_dpor(check_fx::independent_counters_body(4, 1), &scale_cfg);
    if !dfs_scale.complete && dpor_scale.complete && dpor_scale.passed() {
        println!(
            "check gate: dpor completes a body dfs could not finish at equal budget ({} schedules vs {}+ for dfs)",
            dpor_scale.schedules_run, dfs_scale.schedules_run
        );
    } else {
        failures.push(format!(
            "scaling direction: dfs complete={} ({} schedules), dpor complete={} passed={} ({} schedules)",
            dfs_scale.complete,
            dfs_scale.schedules_run,
            dpor_scale.complete,
            dpor_scale.passed(),
            dpor_scale.schedules_run
        ));
    }

    let mut t = Table::new(
        "pdc-check soundness gate (experiments --check)",
        &["direction", "strategy", "schedules", "verdict"],
    );
    t.row(&[
        "racy counter is flagged".into(),
        "pct".into(),
        racy.schedules_run.to_string(),
        racy.failure
            .as_ref()
            .map_or("MISSED".into(), |f| f.description.clone()),
    ]);
    t.row(&[
        "fixed counter is clean".into(),
        "dfs (exhaustive)".into(),
        fixed.schedules_run.to_string(),
        if fixed.complete && fixed.passed() {
            "clean, complete".into()
        } else {
            "FAILED".into()
        },
    ]);
    t.row(&[
        "replay reproduces the verdict".into(),
        "strict replay".into(),
        "1".into(),
        if failures.is_empty() {
            "byte-identical".into()
        } else {
            "see failures".into()
        },
    ]);
    t.row(&[
        "fixed counter, reduced".into(),
        "dpor".into(),
        format!(
            "{} (dfs: {})",
            dpor_fixed.schedules_run, fixed.schedules_run
        ),
        if dpor_fixed.complete && dpor_fixed.passed() {
            "clean, complete".into()
        } else {
            "FAILED".into()
        },
    ]);
    t.row(&[
        "racy counter, reduced".into(),
        "dpor".into(),
        dpor_racy.schedules_run.to_string(),
        dpor_racy
            .failure
            .as_ref()
            .map_or("MISSED".into(), |f| f.description.clone()),
    ]);
    t.row(&[
        "AB-BA deadlock, reduced".into(),
        "dpor".into(),
        dpor_dl.schedules_run.to_string(),
        dpor_dl
            .failure
            .as_ref()
            .map_or("MISSED".into(), |f| f.description.clone()),
    ]);
    t.row(&[
        "independent counters scale".into(),
        "dpor vs dfs @200".into(),
        format!(
            "{} vs {}+",
            dpor_scale.schedules_run, dfs_scale.schedules_run
        ),
        if dpor_scale.complete && !dfs_scale.complete {
            "dpor complete, dfs out of budget".into()
        } else {
            "FAILED".into()
        },
    ]);
    print!("{}", t.render());

    if failures.is_empty() {
        println!("check gate: all 7 verdicts match");
    } else {
        for f in &failures {
            eprintln!("check gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// `--render`: run a compact traced workload spanning threads and MPI
/// collectives and emit it as a self-contained HTML timeline — the
/// trace-viewer stub from the roadmap. No scripts, no assets: the file
/// opens from `target/` in any browser.
fn run_render(path: &std::path::Path) {
    use pdc_sync::PdcMutex;
    let session = TraceSession::new();

    // Threads: a fork-join diamond plus a short mutex hand-off, so the
    // timeline shows fork/join arrows-worth of markers and lock pairs.
    trace::install_sync_trace(session.thread(0));
    let counter = std::sync::Arc::new(PdcMutex::new(0u64));
    let var = trace::next_site_id();
    let c2 = std::sync::Arc::clone(&counter);
    let (a, b) = pdc_threads::join(
        move || {
            for _ in 0..2 {
                let mut g = counter.lock();
                trace::record_var_write(var);
                *g += 1;
            }
            1u64
        },
        move || {
            for _ in 0..2 {
                let mut g = c2.lock();
                trace::record_var_write(var);
                *g += 1;
            }
            1u64
        },
    );
    std::hint::black_box(a + b);
    trace::clear_sync_trace();

    // MPI: 4 ranks through an allreduce and a barrier — the coll
    // begin/end pairs become the shaded spans in the rendering.
    let (_, _) = pdc_mpi::World::run_traced(4, &session, |rank| {
        let sum = pdc_mpi::coll::allreduce(rank, rank.id() as u64, |a, b| a + b);
        pdc_mpi::coll::barrier::<u64, _>(rank);
        sum
    });

    let events = session.events();
    let html = pdc_core::timeline::render_html(
        "pdc-trace timeline — fork-join + mutex + MPI collectives",
        &events,
    );
    write_text_file(path, &html).expect("write timeline html");
    println!(
        "timeline rendered: {} events across {} actors to {}",
        events.len(),
        {
            let mut actors: Vec<u32> = events.iter().map(|e| e.actor).collect();
            actors.sort_unstable();
            actors.dedup();
            actors.len()
        },
        path.display()
    );
}

/// Write the captured per-experiment tables as one JSON document next
/// to the trace snapshot (same directory, fixed name).
fn write_tables_json(entries: &[(&str, Vec<String>)]) {
    let mut json = String::from("{\"schema\":\"pdc-tables/1\",\"experiments\":[");
    for (i, (id, tables)) in entries.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"id\":\"{id}\",\"tables\":[{}]}}",
            tables.join(",")
        ));
    }
    json.push_str("]}");
    let path = std::path::Path::new("target/pdc-trace/experiments.tables.json");
    write_text_file(path, &json).expect("write tables json");
    println!("tables JSON written to {}", path.display());
}

fn main() {
    // Wire children re-exec this binary; route them straight back into
    // the world they belong to before any argument handling.
    if let Some(world) = pdc_mpi::WireWorld::child_world_id() {
        if world == pdc_bench::exp_serve::WORLD_ID || world == pdc_bench::exp_scenario::WORLD_ID {
            pdc_db::serve::run_shard_child();
        }
        if world.starts_with(pdc_bench::exp_scenario::WC_WIRE_PREFIX) {
            pdc_db::run_wire_wordcount_child(
                &pdc_bench::exp_scenario::wordcount_wire_spec(),
                &world,
            );
        }
        if world == pdc_bench::exp_wire::WORLD_ID {
            pdc_bench::exp_wire::reenter();
        }
        run_shard_gate();
        unreachable!("wire child returned from its world");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reg = registry();
    match args.as_slice() {
        [flag] if flag == "--list" => {
            for e in &reg {
                let kind = if e.gate { " [gate]" } else { "" };
                println!("{:16} {}{kind}", e.id, e.anchor);
            }
        }
        [flag, rest @ ..] if flag == "--trace" && rest.len() <= 1 => {
            let default = "target/pdc-trace/experiments.trace.json".to_string();
            let path = rest.first().unwrap_or(&default);
            run_traced_workload(std::path::Path::new(path));
        }
        [flag] if flag == "--analyze" => run_analyze(),
        [flag] if flag == "--shard" => run_shard_gate(),
        [flag] if flag == "--serve" => pdc_bench::exp_serve::run_serve_gate(),
        [flag] if flag == "--wire" => pdc_bench::exp_wire::run_wire_gate(),
        [flag] if flag == "--scenario" => pdc_bench::exp_scenario::run_scenario_gate(),
        [flag] if flag == "--span" => pdc_bench::exp_span::run_span_gate(),
        [flag] if flag == "--check" => run_check_gate(),
        [flag, rest @ ..] if flag == "--render" && rest.len() <= 1 => {
            let default = "target/pdc-trace/experiments.timeline.html".to_string();
            let path = rest.first().unwrap_or(&default);
            run_render(std::path::Path::new(path));
        }
        [flag, id] if flag == "--exp" => match reg.iter().find(|e| e.id == *id) {
            Some(e) => {
                let (out, tables) = capture_tables(e.run);
                println!("=== {} — {}\n", e.id, e.anchor);
                println!("{out}");
                write_tables_json(&[(e.id, tables)]);
            }
            None => {
                eprintln!("unknown experiment {id:?}; try --list");
                std::process::exit(1);
            }
        },
        [] => {
            let mut entries = Vec::new();
            // Gates self-check, spawn OS processes, and exit non-zero on
            // failure — they run behind their own flags, not the sweep.
            for e in reg.iter().filter(|e| !e.gate) {
                let (out, tables) = capture_tables(e.run);
                println!("=== {} — {}\n", e.id, e.anchor);
                println!("{out}");
                entries.push((e.id, tables));
            }
            write_tables_json(&entries);
        }
        _ => {
            eprintln!(
                "usage: experiments [--list | --exp <id> | --trace [path] | --analyze | --shard | --serve | --wire | --scenario | --span | --check | --render [path]]"
            );
            std::process::exit(2);
        }
    }
}
