//! `experiments --scenario`: the cross-backend workload gate.
//!
//! Every real workload in the workspace — Game of Life, the ray
//! tracer, external merge sort, MapReduce word count, iterative
//! pagerank — runs through the [`pdc_core::scenario`] seam on every
//! backend it supports, at three problem sizes, three timed
//! repetitions each. Word count additionally runs on `mpi-wire`: the
//! same sharded-KV shuffle over real OS processes on loopback TCP,
//! with each re-exec'd rank reconstructing the identical op stream
//! from a seed/size-carrying world id. The gate passes only if the
//! seam's contracts hold:
//!
//! * **Backend equality** — every backend reproduces the identical
//!   `Outcome` digest at every size (for extsort the digest also folds
//!   in the measured I/O count, so "same block-transfer schedule" is
//!   part of equality).
//! * **Analyze clean** — `pdc_analyze::analyze` over each kept run's
//!   trace reports zero defects, with no dropped events.
//! * **Valid tables** — every speedup/crossover row has a positive
//!   duration and a finite positive speedup (no NaN, no zero-division).
//! * **Speedup direction** — for the compute-bound workloads (life,
//!   ray) the threads backend beats sequential at the largest size.
//! * **Serve shuffle** — word count re-counted through the *full*
//!   `db::serve` TCP stack (one `PUT word 1` per token; the store's
//!   version counter is the reduce) digests identically to the seam's
//!   sequential count — the serving tier's first non-synthetic client.
//!
//! Speedup and crossover tables land under `target/pdc-trace/scenario/`
//! as `pdc-tables/1` JSON for the CI artifact.
//!
//! Like `--serve` and `--wire` this is a *gate*: it records verdicts
//! and exits non-zero on a failed one, so it runs behind its own flag
//! rather than inside the run-everything sweep.

use crate::verdict::{Expect, Registration, Verdicts};
use pdc_core::report::write_text_file;
use pdc_core::scenario::{
    run_scenario, AnalyzeVerdict, Backend, Scenario, ScenarioConfig, ScenarioReport,
};
use pdc_core::trace::TraceSession;
use pdc_db::serve::{self, ServeOptions};
use pdc_db::wordcount::{count_sequential, counts_from_kv, digest_counts, gen_docs, tokenize};
use pdc_mpi::kv_tcp::TcpKvClient;
use pdc_mpi::WireOptions;

/// World id the serve-shuffle comparison's shard children dispatch on
/// (see `experiments::main`).
pub const WORLD_ID: &str = "scenario-gate";

/// World-id prefix of the wordcount `mpi-wire` backend's rank children
/// (the full id carries the run's seed and size; see
/// [`wordcount_wire_spec`] and `experiments::main`).
pub const WC_WIRE_PREFIX: &str = "scenario-wordcount-wire";

const TRACE_DIR: &str = "target/pdc-trace/scenario";
const SEED: u64 = 0x05CE_AA10 ^ 9;
const REPEATS: u32 = 3;

/// Shards for the serve-backed word count.
const SERVE_SHARDS: usize = 3;
/// Documents pushed through the serving tier (closed-loop TCP, so the
/// corpus is deliberately smaller than the in-process sweep's largest).
const SERVE_DOCS: usize = 40;

/// Every scenario's sizes, small → large for the crossover column; the
/// speedup verdict uses the largest. The span gate sweeps the same.
pub(crate) const SWEEPS: [(&str, [usize; 3]); 5] = [
    ("life", [48, 96, 192]),
    ("ray", [64, 128, 192]),
    ("extsort", [4_000, 20_000, 60_000]),
    ("wordcount", [40, 120, 360]),
    ("pagerank", [64, 192, 512]),
];

/// Compute-bound scenarios, where threads must beat sequential.
const SPEEDUP: [&str; 2] = ["life", "ray"];

/// The swept sizes of scenario `name`.
pub(crate) fn sweep(name: &str) -> Vec<usize> {
    let (_, sizes) = SWEEPS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no sweep for scenario {name}"));
    sizes.to_vec()
}

/// The scenario gate's verdicts: each scenario's contracts, then the
/// serve shuffle.
pub fn registered() -> Registration {
    let mut names = Vec::new();
    for (s, _) in SWEEPS {
        for check in ["outcomes_identical", "analyze_clean", "tables_valid"] {
            names.push(format!("{s}_{check}"));
        }
        if SPEEDUP.contains(&s) {
            names.push(format!("{s}_threads_speedup"));
        }
        names.push(format!("{s}_tables_on_disk"));
    }
    names.push("serve_shuffle_acked".to_string());
    names.push("serve_shuffle_digest_matches".to_string());
    names.push("combined_tables_on_disk".to_string());
    names.into_iter().map(|n| (n, Expect::Holds)).collect()
}

/// The wire spec for wordcount's `mpi-wire` backend: children re-exec
/// `experiments --scenario` and `main` routes them to
/// [`pdc_db::run_wire_wordcount_child`] by this prefix.
pub fn wordcount_wire_spec() -> pdc_db::WireSpec {
    pdc_db::WireSpec {
        world_prefix: WC_WIRE_PREFIX.to_string(),
        child_args: vec!["--scenario".to_string()],
        trace_dir: Some(format!("{TRACE_DIR}/wordcount-wire").into()),
    }
}

/// The real analyzer, condensed to the seam's verdict type.
fn analyzer(session: &TraceSession) -> AnalyzeVerdict {
    let report = pdc_analyze::analyze(session);
    AnalyzeVerdict {
        clean: report.clean(),
        defects: report.defects.len(),
        events: report.events_analyzed,
    }
}

/// Run one scenario's sweep and record its contracts.
fn gate_scenario(scenario: &dyn Scenario, v: &mut Verdicts) -> ScenarioReport {
    let name = scenario.name();
    let cfg = ScenarioConfig::new(SEED, &sweep(name)).with_repeats(REPEATS);
    let report = run_scenario(scenario, &cfg, &analyzer);

    v.check(
        &format!("{name}_outcomes_identical"),
        report.outcomes_agree(),
        format!(
            "{} runs on {}; mismatches {:?}",
            report.runs.len(),
            report.backend_labels().join(", "),
            report.mismatches()
        ),
    );
    let events: usize = report.runs.iter().map(|r| r.analyze.events).sum();
    let defects: usize = report.runs.iter().map(|r| r.analyze.defects).sum();
    let dropped: u64 = report.runs.iter().map(|r| r.dropped).sum();
    v.check(
        &format!("{name}_analyze_clean"),
        report.all_clean() && dropped == 0,
        format!("{events} events, {defects} defects, {dropped} dropped"),
    );
    v.check(
        &format!("{name}_tables_valid"),
        report.rows_valid(),
        format!(
            "{} rows: duration > 0, speedup finite and > 0",
            report.runs.len()
        ),
    );

    // Speedup direction: compute-bound workloads must profit from
    // threads at the largest size (min-of-three timing on both sides).
    // Wall-clock parallel speedup needs real parallel hardware, so on a
    // single-core host the verdict is a skip — the digest/analyze
    // contracts above still gate there.
    if SPEEDUP.contains(&name) {
        let verdict = format!("{name}_threads_speedup");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let largest = *cfg.sizes.last().expect("non-empty sweep");
        let threads = Backend::Threads { workers: 4 };
        let speedup = report.speedup(&threads, largest);
        // Both sides' times, so a failure shows whether seq got faster
        // or threads slower.
        let ms = |backend: &Backend| {
            report
                .runs
                .iter()
                .find(|r| r.size == largest && &r.backend == backend)
                .map_or(f64::NAN, |r| r.nanos as f64 / 1e6)
        };
        let observed = speedup.map_or(format!("no threads run at n={largest}"), |s| {
            format!(
                "threads {s:.2}x at n={largest} on {cores} cores (seq {:.3} ms, threads {:.3} ms)",
                ms(&Backend::Sequential),
                ms(&threads)
            )
        });
        if cores < 2 && speedup.is_some() {
            v.skip(&verdict, format!("single-core host: {observed}"));
        } else {
            v.check(&verdict, speedup.is_some_and(|s| s > 1.0), observed);
        }
    }

    print!("{}", report.speedup_table().render());
    print!("{}", report.crossover_table().render());
    report
}

/// Re-count the gate corpus through the live serving tier: one
/// `PUT word 1` per token over real TCP, counts read back as the
/// store's final versions. Records whether every PUT was acked and
/// returns the digest of the recovered table.
fn serve_shuffle_digest(v: &mut Verdicts) -> u64 {
    let docs = gen_docs(SEED, SERVE_DOCS);
    let session = TraceSession::with_capacity(1 << 18);
    let opts = ServeOptions::new(
        SERVE_SHARDS,
        WireOptions::for_args(SERVE_SHARDS, WORLD_ID, &["--scenario"]).traced(TRACE_DIR),
    );
    let handle = serve::start(opts, &session).expect("start serving tier");
    let mut client = TcpKvClient::connect(handle.addr()).expect("client connect");
    let mut puts = 0u64;
    for doc in &docs {
        for word in tokenize(doc) {
            let reply = client
                .call(&format!("PUT {word} 1"))
                .expect("closed-loop put");
            assert!(!reply.starts_with("ERR"), "PUT {word} -> {reply:?}");
            puts += 1;
        }
    }
    assert_eq!(client.call("QUIT").expect("quit"), "BYE");
    let outcome = handle.finish();
    let counts = counts_from_kv(&outcome.state);
    v.check(
        "serve_shuffle_acked",
        outcome.acked.len() as u64 == puts,
        format!(
            "{} of {puts} PUTs acked, {} distinct words over {SERVE_SHARDS} TCP shards",
            outcome.acked.len(),
            counts.len()
        ),
    );
    digest_counts(&counts)
}

/// Run every scenario's sweep and the serve shuffle, recording verdicts.
pub fn gate(v: &mut Verdicts) {
    let scenarios: Vec<Box<dyn Scenario>> = vec![
        Box::new(pdc_life::LifeScenario),
        Box::new(pdc_ray::RayScenario),
        Box::new(pdc_extmem::ExtsortScenario),
        Box::new(pdc_db::WordCountScenario::new().with_wire(wordcount_wire_spec())),
        Box::new(pdc_db::PageRankScenario),
    ];
    let reports: Vec<ScenarioReport> = scenarios
        .iter()
        .map(|s| gate_scenario(s.as_ref(), v))
        .collect();

    // The serving stack as an out-of-process word counter: its digest
    // must match the seam's sequential count of the same corpus.
    let seam_digest = digest_counts(&count_sequential(&gen_docs(SEED, SERVE_DOCS)));
    let served_digest = serve_shuffle_digest(v);
    v.check(
        "serve_shuffle_digest_matches",
        served_digest == seam_digest,
        format!("served {served_digest:#018x}, seam {seam_digest:#018x}"),
    );

    // Artifacts: one pdc-tables/1 document per scenario plus a combined
    // index, each read back.
    let dir = std::path::Path::new(TRACE_DIR);
    for r in &reports {
        let path = dir.join(format!("{}.tables.json", r.scenario));
        write_text_file(&path, &r.to_json()).expect("write scenario tables json");
        v.file_contains(
            &format!("{}_tables_on_disk", r.scenario),
            &path,
            &["\"schema\":\"pdc-tables/1\""],
        );
    }
    let combined = format!(
        "{{\"schema\":\"pdc-tables/1\",\"experiments\":[{}]}}",
        reports
            .iter()
            .map(|r| format!(
                "{{\"id\":\"scenario-{}\",\"tables\":[{},{}]}}",
                r.scenario,
                r.speedup_table().to_json(),
                r.crossover_table().to_json()
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    let path = dir.join("scenario.tables.json");
    write_text_file(&path, &combined).expect("write combined json");
    v.file_contains(
        "combined_tables_on_disk",
        &path,
        &[
            "\"schema\":\"pdc-tables/1\"",
            "\"id\":\"scenario-wordcount\"",
        ],
    );
}
