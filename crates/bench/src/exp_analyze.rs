//! `experiments --analyze`: a data-race-free workload spanning every
//! instrumented subsystem must analyze clean, each known-defect fixture
//! must be flagged for the right reason, and each fix must come back
//! clean; both `pdc-analyze/1` reports are read back from disk.

use crate::verdict::{named, Expect, Registration, Verdicts};
use pdc_analyze::{fixtures, DefectKind, Report};
use pdc_core::machine::{MachineConfig, SimMachine};
use pdc_core::report::write_text_file;
use pdc_core::trace::{self, TraceSession};
use std::path::Path;

/// A deliberately data-race-free workload spanning every instrumented
/// subsystem: a work-stealing pool incrementing a mutex-protected
/// counter, a fork-join diamond, the BSP machine with its critical
/// section, MPI collectives, rwlock readers/writer, a oncecell
/// publication, a sense barrier, a bounded-buffer pipeline, and both
/// deadlock-free philosopher strategies. `pdc-analyze` must find
/// nothing here — this is the false-positive gate.
pub fn drf_workload_session() -> TraceSession {
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

/// Every analyzed workload, named as in the fixtures report, and the
/// direction its verdict checks: a `Detects` workload must be flagged
/// for the right reason, a `Holds` one must come back clean.
const WORKLOADS: [(&str, Expect); 7] = [
    ("drf_workload", Expect::Holds),
    ("racy_counter", Expect::Detects),
    ("fixed_counter", Expect::Holds),
    ("deadlocky_philosophers", Expect::Detects),
    ("ordered_philosophers", Expect::Holds),
    ("arbitrator_philosophers", Expect::Holds),
    ("mpi_mismatch", Expect::Detects),
];

/// The gate's verdicts: one per workload, then each report read back.
pub fn registered() -> Registration {
    let mut out = named(&WORKLOADS);
    out.extend(named(&[
        ("workload_report_on_disk", Expect::Holds),
        ("fixtures_report_on_disk", Expect::Detects),
    ]));
    out
}

/// Run the DRF workload and every fixture through pdc-analyze.
pub fn gate(v: &mut Verdicts) {
    use DefectKind::*;
    let reports = [
        pdc_analyze::analyze(&drf_workload_session()),
        pdc_analyze::analyze(&fixtures::racy_counter_session()),
        pdc_analyze::analyze(&fixtures::fixed_counter_session()),
        pdc_analyze::analyze(&fixtures::deadlocky_philosophers_session(5).0),
        pdc_analyze::analyze(&fixtures::ordered_philosophers_session(5).0),
        pdc_analyze::analyze(&fixtures::arbitrator_philosophers_session(5).0),
        pdc_analyze::analyze(&fixtures::mpi_mismatch_session()),
    ];
    let has = |r: &Report, kinds: &[DefectKind]| kinds.iter().all(|&k| r.count_kind(k) >= 1);
    let [workload, racy, fixed, deadlocky, ordered, arbitrator, mpi] = &reports;
    let expected = [
        workload.clean() && workload.dropped == 0,
        has(racy, &[DataRace, LocksetViolation]),
        fixed.clean(),
        has(deadlocky, &[LockOrderCycle]),
        ordered.clean(),
        // The arbitrator's raw ring comes back gate-suppressed.
        arbitrator.clean() && arbitrator.gated_cycles.len() == 1,
        has(
            mpi,
            &[MpiUnmatchedSend, MpiCollectiveOrder, MpiUnmatchedCollective],
        ),
    ];
    for (((name, _), r), ok) in WORKLOADS.iter().zip(&reports).zip(expected) {
        let kinds: Vec<&str> = r.defects.iter().map(|d| d.kind.name()).collect();
        v.check(
            name,
            ok,
            format!(
                "{} events, {} dropped, defects {kinds:?}, {} gated cycle(s)",
                r.events_analyzed,
                r.dropped,
                r.gated_cycles.len()
            ),
        );
    }

    let workload_report = Path::new("target/pdc-trace/experiments.analyze.json");
    let fixtures_report = Path::new("target/pdc-trace/experiments.fixtures.analyze.json");
    write_text_file(workload_report, &workload.to_json()).expect("write analyze report");
    let fx: Vec<String> = WORKLOADS[1..]
        .iter()
        .zip(&reports[1..])
        .map(|((name, _), r)| format!("{{\"name\":\"{name}\",\"report\":{}}}", r.to_json()))
        .collect();
    write_text_file(
        fixtures_report,
        &format!(
            "{{\"schema\":\"pdc-analyze/1\",\"mode\":\"fixtures\",\"fixtures\":[{}]}}",
            fx.join(",")
        ),
    )
    .expect("write fixtures report");
    v.file_contains(
        "workload_report_on_disk",
        workload_report,
        &[
            "\"schema\":\"pdc-analyze/1\"",
            "\"clean\":true",
            "\"defects\":[]",
        ],
    );
    v.file_contains(
        "fixtures_report_on_disk",
        fixtures_report,
        &[
            "\"kind\":\"data_race\"",
            "\"kind\":\"lockset_violation\"",
            "\"kind\":\"lock_order_cycle\"",
            "\"kind\":\"mpi_unmatched_send\"",
            "\"kind\":\"mpi_collective_order\"",
        ],
    );
}
