//! `experiments --span`: the empirical work/span gate.
//!
//! Every scenario sweep from the `--scenario` gate re-runs here with the
//! fork-join DAG reconstruction of [`pdc_analyze::span`] applied to each
//! kept trace: empirical **work** (total attributed steps), **span**
//! (longest weighted path over program order + Fork/Join + channel/lock
//! happens-before edges), and **parallelism** `W/S`. The gate passes
//! only if the profiler's outputs obey the theory the curriculum
//! teaches (CLRS ch. 27):
//!
//! * **Span ≤ work** — on every backend at every size; the longest path
//!   through the DAG can never exceed the sum of all its weights.
//! * **Declared Θ tracking** — each scenario's measured sequential work
//!   curve-fits its declared Θ-class over the size sweep (life/ray
//!   Θ(n²), extsort Θ(n log n), wordcount/pagerank Θ(n)) via
//!   [`pdc_core::workspan::Bounds::fit`]; a deliberately wrong class is
//!   also checked to *fail*, so the fit discriminates both directions.
//! * **Brent's bound** — for life/ray/extsort on the threads backend at
//!   every size, measured wall-clock `T_P` sits within a generous
//!   constant band of the predicted `c·(W/P + S)` where `c` is the
//!   per-step cost calibrated from the same machine's sequential run.
//!   Wall-clock needs real parallel hardware, so a single-core host
//!   downgrades this to a visible skip.
//! * **Parallelism direction** — at least one compute-bound scenario's
//!   measured parallelism grows from the smallest to the largest size.
//! * **Serial chain** — a single-strand trace reports parallelism
//!   exactly 1 (span == work), the degenerate case every formula must
//!   anchor.
//!
//! Artifacts land under `target/pdc-trace/span/` and are read back as
//! verdicts: a combined `pdc-span-tables/1` JSON of every
//! work/span/parallelism row, a representative `pdc-span/1` report, and
//! a timeline HTML whose critical-path events render in a distinct lane
//! color.

use crate::exp_scenario::{sweep, SWEEPS};
use crate::verdict::{named, Expect, Registration, Verdicts};
use pdc_analyze::{analyze_span, analyze_span_session, SpanReport};
use pdc_core::report::{write_text_file, Table};
use pdc_core::scenario::{
    run_scenario, AnalyzeVerdict, Backend, BackendRun, Scenario, ScenarioConfig,
};
use pdc_core::timeline::render_html_with_path;
use pdc_core::trace::{EventKind, TraceSession, MARK_STEPS};
use pdc_core::workspan::{Bounds, Theta, WorkSpan};

const TRACE_DIR: &str = "target/pdc-trace/span";
const SEED: u64 = 0x05CE_AA10 ^ 10;
const REPEATS: u32 = 3;
/// Workers every scenario's threads backend uses.
const POOL_WORKERS: usize = 4;
/// Tolerance for the Θ curve fits (max/min ratio spread over the sweep).
const FIT_TOL: f64 = 1.5;
/// Both-direction slack on the Brent prediction. Wall-clock carries
/// thread-spawn and scheduling constants the DAG does not model, so the
/// band is generous; it still catches a profiler whose work or span is
/// off by orders of magnitude.
const BRENT_SLACK: f64 = 32.0;

/// Scenarios whose threads wall-clock is held to Brent's bound.
const BRENT: [&str; 3] = ["life", "ray", "extsort"];

/// The span gate's verdicts, per scenario and Brent size from the
/// `--scenario` gate's sweeps: both gates testify about the same runs.
pub fn registered() -> Registration {
    let mut out = named(&[
        ("span_le_work", Expect::Holds),
        ("work_attributed", Expect::Holds),
    ]);
    for (name, _) in SWEEPS {
        out.push((format!("{name}_work_tracks_declared"), Expect::Holds));
    }
    out.push(("fit_rejects_wrong_class".to_string(), Expect::Detects));
    for name in BRENT {
        for size in sweep(name) {
            out.push((format!("{name}_brent_n{size}"), Expect::Holds));
        }
    }
    out.extend(named(&[
        ("parallelism_grows", Expect::Holds),
        ("serial_chain_parallelism_one", Expect::Holds),
        ("span_tables_on_disk", Expect::Holds),
        ("span_report_on_disk", Expect::Holds),
        ("critical_path_highlighted", Expect::Holds),
    ]));
    out
}

/// Declared Θ-class of each scenario's *sequential* work — what one
/// strand executing the whole problem must cost. (The declared span
/// classes of the underlying algorithms live with the algorithms
/// themselves: `pdc_algos::mergesort::declared_bounds`,
/// `pdc_pram::algos::declared_bounds`, `pdc_db::pagerank::declared_bounds`.)
fn declared_work(name: &str) -> Theta {
    match name {
        // n is the board side; 8 generations of n² cells.
        "life" => Theta::Quadratic,
        // n is the image width; height scales with it.
        "ray" => Theta::Quadratic,
        "extsort" => Theta::NLogN,
        "wordcount" => Theta::Linear,
        "pagerank" => pdc_db::pagerank::declared_bounds().work,
        other => panic!("no declared work for scenario {other}"),
    }
}

/// One measured row of the span tables.
struct SpanRow {
    scenario: &'static str,
    backend: String,
    size: usize,
    nanos: u64,
    report: SpanReport,
    is_sequential: bool,
    is_threads: bool,
}

/// The span pass itself is the verdict here; the analyzer hook just
/// reports the event count (the `--scenario` gate already runs the
/// defect analyzer over identical sweeps).
fn event_counter(session: &TraceSession) -> AnalyzeVerdict {
    AnalyzeVerdict {
        clean: true,
        defects: 0,
        events: session.events().len(),
    }
}

/// Sweep one scenario and reduce every kept run to a [`SpanRow`].
fn sweep_scenario(scenario: &dyn Scenario) -> Vec<SpanRow> {
    let name = scenario.name();
    let cfg = ScenarioConfig::new(SEED, &sweep(name)).with_repeats(REPEATS);
    let report = run_scenario(scenario, &cfg, &event_counter);
    report
        .runs
        .iter()
        .map(|r: &BackendRun| SpanRow {
            scenario: name,
            backend: r.backend.to_string(),
            size: r.size,
            nanos: r.nanos,
            report: analyze_span(&r.events),
            is_sequential: r.backend == Backend::Sequential,
            is_threads: matches!(r.backend, Backend::Threads { .. }),
        })
        .collect()
}

/// Span ≤ work on every trace, and every trace attributed at least one
/// step of work: each verdict passes only if every row does.
fn gate_span_le_work(rows: &[SpanRow], v: &mut Verdicts) {
    let at = |r: &SpanRow| format!("{} on {} at n={}", r.scenario, r.backend, r.size);
    let over: Vec<String> = rows
        .iter()
        .filter(|r| r.report.span > r.report.work)
        .map(|r| format!("{}: span {} > work {}", at(r), r.report.span, r.report.work))
        .collect();
    let idle: Vec<String> = rows.iter().filter(|r| r.report.work == 0).map(at).collect();
    v.check(
        "span_le_work",
        over.is_empty(),
        format!("{} traces; span > work on {over:?}", rows.len()),
    );
    v.check(
        "work_attributed",
        idle.is_empty(),
        format!("{} traces; no work on {idle:?}", rows.len()),
    );
}

/// Each scenario's measured sequential work tracks its declared
/// Θ-class, and a deliberately wrong class is rejected.
fn gate_declared_fit(rows: &[SpanRow], v: &mut Verdicts) {
    let sequential = |name: &str| -> Vec<(u64, WorkSpan)> {
        rows.iter()
            .filter(|r| r.scenario == name && r.is_sequential)
            .map(|r| {
                let w = r.report.work.max(r.report.span);
                (r.size as u64, WorkSpan::new(w, r.report.span))
            })
            .collect()
    };
    for (name, _) in SWEEPS {
        let theta = declared_work(name);
        // A sequential trace is one strand, so its span class equals its
        // work class; fitting both sides of the declaration checks that
        // the profiler agrees.
        let (wfit, sfit) = Bounds::new(theta, theta).fit(&sequential(name), FIT_TOL);
        v.check(
            &format!("{name}_work_tracks_declared"),
            wfit.ok && sfit.ok,
            format!(
                "{}: work spread {:.2}, span spread {:.2}, tol {FIT_TOL}",
                theta.label(),
                wfit.spread,
                sfit.spread
            ),
        );
    }

    // The discriminating direction: life's Θ(n²) work must NOT fit a
    // linear declaration, or the fit proves nothing.
    let (wrong, _) = Bounds::new(Theta::Linear, Theta::Linear).fit(&sequential("life"), FIT_TOL);
    v.check(
        "fit_rejects_wrong_class",
        !wrong.ok,
        format!(
            "life work as {}: spread {:.2}, tol {FIT_TOL}",
            Theta::Linear.label(),
            wrong.spread
        ),
    );
}

/// Brent's bound. Calibrate the per-step cost `c = T_seq/W_seq` at each
/// size, predict `T_P ≈ c·(W_P/P + S_P)` from the threads trace, and
/// require the measurement within [`BRENT_SLACK`] of the prediction in
/// both directions. Returns the measured-vs-predicted JSON rows.
fn gate_brent(rows: &[SpanRow], v: &mut Verdicts) -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json_rows = Vec::new();
    for name in BRENT {
        for size in sweep(name) {
            let verdict = format!("{name}_brent_n{size}");
            let find = |pick: fn(&SpanRow) -> bool| {
                rows.iter()
                    .find(|r| r.scenario == name && r.size == size && pick(r))
            };
            let (Some(seq), Some(par)) = (find(|r| r.is_sequential), find(|r| r.is_threads)) else {
                v.check(&verdict, false, "missing sequential or threads run");
                continue;
            };
            if seq.report.work == 0 {
                v.check(&verdict, false, "no sequential work to calibrate against");
                continue;
            }
            let c = seq.nanos as f64 / seq.report.work as f64;
            let predicted =
                c * (par.report.work as f64 / POOL_WORKERS as f64 + par.report.span as f64);
            let ratio = par.nanos as f64 / predicted;
            json_rows.push(format!(
                "{{\"scenario\":\"{name}\",\"n\":{size},\"measured_ns\":{},\"predicted_ns\":{:.0},\"ratio\":{ratio:.4}}}",
                par.nanos, predicted
            ));
            let observed = format!(
                "measured {:.2}ms vs predicted W/P+S {:.2}ms, ratio {ratio:.2} (band [{:.3}, {BRENT_SLACK}], {cores} cores)",
                par.nanos as f64 / 1e6,
                predicted / 1e6,
                1.0 / BRENT_SLACK
            );
            if cores < 2 {
                v.skip(&verdict, format!("single-core host: {observed}"));
            } else {
                v.check(
                    &verdict,
                    (1.0 / BRENT_SLACK..=BRENT_SLACK).contains(&ratio),
                    observed,
                );
            }
        }
    }
    json_rows
}

/// Measured parallelism grows with size for at least one compute-bound
/// scenario's threads backend.
fn gate_parallelism_growth(rows: &[SpanRow], v: &mut Verdicts) {
    let compute_bound = ["life", "ray", "extsort", "pagerank"];
    let mut grew = Vec::new();
    for name in compute_bound {
        let sizes = sweep(name);
        let (first, last) = (sizes[0], *sizes.last().expect("non-empty sweep"));
        let at = |n: usize| {
            rows.iter()
                .find(|r| r.scenario == name && r.is_threads && r.size == n)
                .map(|r| r.report.parallelism())
        };
        if let (Some(small), Some(large)) = (at(first), at(last)) {
            if large > small {
                grew.push(format!("{name} {small:.2} -> {large:.2}"));
            }
        }
    }
    v.check(
        "parallelism_grows",
        !grew.is_empty(),
        format!("grew on [{}] of {compute_bound:?}", grew.join("; ")),
    );
}

/// A purely serial chain — one strand, no forks — must report
/// span == work and parallelism exactly 1.
fn gate_serial_chain(v: &mut Verdicts) {
    let session = TraceSession::with_capacity(1 << 8);
    let strand = session.thread(1);
    for _ in 0..64 {
        strand.record(EventKind::Mark, MARK_STEPS, 7);
    }
    let report = analyze_span_session(&session);
    let par = report.parallelism();
    v.check(
        "serial_chain_parallelism_one",
        report.span == report.work && report.work == 64 * 7 && par == 1.0,
        format!(
            "work {} span {} parallelism {par} (expected 448/448/1)",
            report.work, report.span
        ),
    );
}

/// Write the combined tables JSON, a representative `pdc-span/1`
/// document, and the critical-path timeline HTML, and read each back.
fn write_artifacts(rows: &[SpanRow], brent_json: &[String], table: &Table, v: &mut Verdicts) {
    let dir = std::path::Path::new(TRACE_DIR);
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"scenario\":\"{}\",\"backend\":\"{}\",\"n\":{},\"work\":{},\"span\":{},\"parallelism\":{:.4},\"events\":{}}}",
                r.scenario,
                r.backend,
                r.size,
                r.report.work,
                r.report.span,
                r.report.parallelism(),
                r.report.events
            )
        })
        .collect();
    let combined = format!(
        "{{\"schema\":\"pdc-span-tables/1\",\"rows\":[{}],\"brent\":[{}],\"table\":{}}}",
        row_json.join(","),
        brent_json.join(","),
        table.to_json()
    );
    write_text_file(&dir.join("span.tables.json"), &combined).expect("write span tables json");
    v.file_contains(
        "span_tables_on_disk",
        &dir.join("span.tables.json"),
        &["\"schema\":\"pdc-span-tables/1\""],
    );

    // Representative run for the pdc-span/1 document and the timeline:
    // ray on threads at its largest size (pool forks, steals, and a
    // heavy compute path make the critical path worth looking at).
    let scenario = pdc_ray::RayScenario;
    let sizes = [*sweep("ray").last().expect("non-empty sweep")];
    let cfg = ScenarioConfig::new(SEED, &sizes);
    let rep = run_scenario(&scenario, &cfg, &event_counter);
    let run = rep
        .runs
        .iter()
        .find(|r| matches!(r.backend, Backend::Threads { .. }))
        .expect("ray has a threads backend");
    let span = analyze_span(&run.events);
    write_text_file(&dir.join("ray.threads.span.json"), &span.to_json())
        .expect("write pdc-span/1 json");
    let html = render_html_with_path(
        &format!("ray on {} at n={} — critical path", run.backend, run.size),
        &run.events,
        &span.critical_ts(),
    );
    write_text_file(&dir.join("critical-path.timeline.html"), &html)
        .expect("write critical path html");
    v.file_contains(
        "span_report_on_disk",
        &dir.join("ray.threads.span.json"),
        &["\"schema\":\"pdc-span/1\""],
    );
    v.file_contains(
        "critical_path_highlighted",
        &dir.join("critical-path.timeline.html"),
        &["class=\"crit\"", "critical path 1/"],
    );
}

/// Profile every scenario sweep and record the verdicts.
pub fn gate(v: &mut Verdicts) {
    let scenarios: Vec<Box<dyn Scenario>> = vec![
        Box::new(pdc_life::LifeScenario),
        Box::new(pdc_ray::RayScenario),
        Box::new(pdc_extmem::ExtsortScenario),
        Box::new(pdc_db::WordCountScenario::new()),
        Box::new(pdc_db::PageRankScenario),
    ];
    let mut rows: Vec<SpanRow> = Vec::new();
    for s in &scenarios {
        rows.extend(sweep_scenario(s.as_ref()));
    }

    let mut table = Table::new(
        "empirical work/span per scenario x backend x size",
        &[
            "scenario",
            "backend",
            "n",
            "work",
            "span",
            "parallelism",
            "events",
        ],
    );
    for r in &rows {
        table.row(&[
            r.scenario.to_string(),
            r.backend.clone(),
            r.size.to_string(),
            r.report.work.to_string(),
            r.report.span.to_string(),
            format!("{:.2}", r.report.parallelism()),
            r.report.events.to_string(),
        ]);
    }
    print!("{}", table.render());

    gate_span_le_work(&rows, v);
    gate_declared_fit(&rows, v);
    let brent_json = gate_brent(&rows, v);
    gate_parallelism_growth(&rows, v);
    gate_serial_chain(v);
    write_artifacts(&rows, &brent_json, &table, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(work: u64, span: u64) -> SpanRow {
        SpanRow {
            scenario: "life",
            backend: "seq".to_string(),
            size: 48,
            nanos: 1,
            report: SpanReport {
                work,
                span,
                events: 1,
                critical: Vec::new(),
            },
            is_sequential: true,
            is_threads: false,
        }
    }

    #[test]
    fn one_bad_row_fails_span_le_work_and_work_attributed() {
        let names = named(&[
            ("span_le_work", Expect::Holds),
            ("work_attributed", Expect::Holds),
        ]);
        let mut v = Verdicts::new("span", names.clone());
        gate_span_le_work(&[row(10, 4), row(3, 5), row(0, 0)], &mut v);
        let problems = v.problems();
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].starts_with("span_le_work: failed"));
        assert!(problems[1].starts_with("work_attributed: failed"));

        let mut clean = Verdicts::new("span", names);
        gate_span_le_work(&[row(10, 4)], &mut clean);
        assert!(clean.problems().is_empty());
    }
}
