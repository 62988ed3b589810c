//! Regenerate every paper-table reproduction.
//!
//! ```text
//! experiments                 # run everything (also writes the tables JSON)
//! experiments --list          # list experiment ids and gates
//! experiments --exp <id>      # run one (also writes the tables JSON)
//! experiments --trace [path]  # run a cross-subsystem traced workload
//!                             # and dump the pdc-trace/2 JSON snapshot
//!                             # (default path: target/pdc-trace/experiments.trace.json)
//! experiments --analyze       # gate: pdc-analyze flags each defect, clears each fix
//! experiments --shard         # gate: threads and OS processes reach one KV state
//! experiments --serve         # gate: no acked write lost across a shard kill
//! experiments --wire          # gate: one-hop mesh vs a two-hop relay, alpha-beta
//! experiments --scenario      # gate: every workload agrees on >=2 backends
//! experiments --span          # gate: span <= work, Theta fits, Brent's bound
//! experiments --check         # gate: pdc-check finds bugs, proves fixes, replays
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
//!
//! Each gate (`--analyze` … `--check`, see `pdc_bench::gates`) records its
//! verdicts to `target/pdc-verdicts/<gate>.json` (`pdc-verdicts/1`),
//! prints them as one table, and exits 1 on any missing or failed one.

use pdc_bench::{gates, registry, run_gate};
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
        pdc_bench::exp_shard::reenter();
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reg = registry();
    let gates = gates();
    let gate = match args.as_slice() {
        [flag] => gates
            .iter()
            .find(|g| flag.strip_prefix("--") == Some(g.name)),
        _ => None,
    };
    if let Some(g) = gate {
        return run_gate(g);
    }
    match args.as_slice() {
        [flag] if flag == "--list" => print!("{}", pdc_bench::list()),
        [flag, rest @ ..] if flag == "--trace" && rest.len() <= 1 => {
            let default = "target/pdc-trace/experiments.trace.json".to_string();
            let path = rest.first().unwrap_or(&default);
            run_traced_workload(std::path::Path::new(path));
        }
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
            for e in &reg {
                let (out, tables) = capture_tables(e.run);
                println!("=== {} — {}\n", e.id, e.anchor);
                println!("{out}");
                entries.push((e.id, tables));
            }
            write_tables_json(&entries);
        }
        _ => {
            let flags: Vec<String> = gates.iter().map(|g| format!("--{}", g.name)).collect();
            eprintln!(
                "usage: experiments [--list | --exp <id> | --trace [path] | --render [path] | {}]",
                flags.join(" | ")
            );
            std::process::exit(2);
        }
    }
}
