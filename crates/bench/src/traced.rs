//! `experiments --trace`: one workload through every traced subsystem,
//! judged by `pdc-analyze` and by its own counters.
//!
//! The workload drives the pool, the simulated machine, MPI ranks and
//! collectives, the fault-tolerant farm, the GPU model, the
//! external-memory model and the cache/coherence simulators through one
//! [`TraceSession`]. It is race-free by construction, so [`problems`]
//! expects a clean report, a non-zero counter in every family it
//! drives, and the event kinds that mark barriers, kernels and
//! collectives.

use pdc_analyze::Report;
use pdc_core::machine::{MachineConfig, SimMachine};
use pdc_core::report::{capture_tables, Table};
use pdc_core::trace::TraceSession;
use pdc_extmem::{multiply_into, OocMatrix};
use pdc_gpu::device::Phase;
use pdc_gpu::{Device, ThreadCtx};
use pdc_memsim::{Cache, CacheConfig, CoherenceSim, Protocol};
use pdc_threads::WorkStealingPool;

/// One `(family, counter)` per counter family the workload drives;
/// each counter must end the run non-zero.
pub const FAMILIES: [(&str, &str); 8] = [
    ("pool.*", "pool.executed"),
    ("machine.*", "machine.barriers"),
    ("mpi.*", "mpi.msgs"),
    ("coll.*", "coll.allreduce"),
    ("ft.*", "ft.reassignments"),
    ("gpu.*", "gpu.launches"),
    ("io.*", "io.pool_fetches"),
    ("cache.*", "cache.misses"),
];

/// Event kinds the snapshot must carry.
pub const EVENT_KINDS: [&str; 4] = ["barrier", "kernel", "coll_begin", "coll_end"];

/// Run the workload on `session`, print its summary table (one row per
/// entry of [`FAMILIES`]) and return the table as captured JSON, for the
/// snapshot's `tables` array.
pub fn workload(session: &TraceSession) -> Vec<String> {
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
        let mut machine = SimMachine::with_trace(MachineConfig::with_cores(4), session);
        for _ in 0..2 {
            machine.parallel_even(1_000, 4);
            machine.barrier(4);
        }
        machine.critical_each(4, 8);

        // mpi.* / coll.*: an allreduce and a barrier across 4 ranks,
        // each bracketed by coll_begin/coll_end marks.
        let (_, _) = pdc_mpi::World::run_traced(4, session, |rank| {
            let sum = pdc_mpi::coll::allreduce(rank, rank.id() as u64, |a, b| a + b);
            pdc_mpi::coll::barrier::<u64, _>(rank);
            sum
        });

        // ft.*: a farm that loses one of three workers mid-run.
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
            session,
        );

        // gpu.*: a two-phase staging kernel (global → shared → global),
        // 2 blocks × 64 threads, one kernel event per launch.
        let mut dev = Device::new(256);
        dev.attach_trace(session);
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
        disk.attach_trace(session);
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
        ma.attach_trace(session);
        mb.attach_trace(session);
        mc.attach_trace(session);
        multiply_into(&mut ma, &mut mb, &mut mc, 4);

        // cache.*: a thrashing scan through a direct-mapped cache, then
        // a MESI ping-pong producing invalidations and an S→M upgrade.
        let mut cache = Cache::new(CacheConfig::direct_mapped(64, 16));
        cache.attach_trace(session);
        for i in 0..512u64 {
            cache.access((i * 64) % 4096, i % 4 == 0);
        }
        let mut coh = CoherenceSim::new(Protocol::Mesi, 2, 64);
        coh.attach_trace(session);
        coh.access(0, 0, false);
        coh.access(1, 0, false);
        coh.access(1, 0, true);
        coh.access(0, 0, false);

        let snap = session.snapshot();
        let mut t = Table::new(
            "Traced workload summary (pdc-trace/2)",
            &["key family", "example counter", "value"],
        );
        for (family, key) in FAMILIES {
            t.row(&[
                family.to_string(),
                key.to_string(),
                snap.get(key).to_string(),
            ]);
        }
        print!("{}", t.render());
    });
    tables
}

/// Everything that fails the run: each defect in `report`, dropped
/// events, a zero counter from [`FAMILIES`], a missing kind from
/// [`EVENT_KINDS`]. Empty means the run passed.
pub fn problems(session: &TraceSession, report: &Report) -> Vec<String> {
    let mut out: Vec<String> = report.defects.iter().map(|d| d.to_json()).collect();
    if report.dropped > 0 {
        out.push(format!("{} trace events dropped", report.dropped));
    }
    let snap = session.snapshot();
    for (_, key) in FAMILIES {
        if snap.get(key) == 0 {
            out.push(format!("counter {key} is 0"));
        }
    }
    let events = session.events();
    for kind in EVENT_KINDS {
        if !events.iter().any(|e| e.kind.as_str() == kind) {
            out.push(format!("no {kind} event"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_workload_is_clean_and_drives_every_family() {
        let session = TraceSession::new();
        workload(&session);
        let report = pdc_analyze::analyze(&session);
        assert!(report.clean(), "{}", report.to_json());
        assert_eq!(report.dropped, 0);
        let snap = session.snapshot();
        for key in [
            "pool.executed",
            "machine.barriers",
            "mpi.msgs",
            "coll.allreduce",
            "gpu.launches",
            "io.pool_fetches",
            "cache.misses",
        ] {
            assert!(snap.get(key) > 0, "{key} is 0");
        }
        let events = session.events();
        for kind in ["barrier", "kernel", "coll_begin", "coll_end"] {
            assert!(
                events.iter().any(|e| e.kind.as_str() == kind),
                "no {kind} event"
            );
        }
        assert_eq!(problems(&session, &report), Vec::<String>::new());
    }
}
