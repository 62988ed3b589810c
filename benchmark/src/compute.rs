//! The compute workload: every scenario on every backend it offers,
//! through `Scenario::run`, with backends interleaved inside each pass
//! so that drift in the host hits all of them alike.

use crate::spans::Spans;
use crate::{E2e, Metrics, Scale, Tally};
use pdc_core::scenario::{Backend, Outcome, Scenario, ScenarioCtx, DRIVER_ACTOR};
use pdc_core::stats::Samples;
use pdc_core::trace::{self, TraceSession};
use pdc_db::{PageRankScenario, WireSpec, WordCountScenario};
use std::collections::BTreeMap;
use std::time::Instant;

/// World-id prefix of the wordcount `mpi-wire` rank children.
pub const WC_WIRE_PREFIX: &str = "bench-wordcount-wire";
/// Set-ups (scenarios built, sequential reference digests computed) per
/// untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Seconds one pass took at the commit that introduced the benchmark;
/// `--seconds` divided by this fixes the timed pass count.
const PASS_S: f64 = 0.6;
/// Workers and ranks of the parallel backends: the host's two cores.
const PARALLEL: usize = 2;

/// How wordcount's `mpi-wire` ranks re-enter this binary: with no
/// arguments, since `main` dispatches them before parsing any.
pub fn wire_spec() -> WireSpec {
    WireSpec {
        world_prefix: WC_WIRE_PREFIX.to_string(),
        child_args: Vec::new(),
        trace_dir: None,
    }
}

/// Which backend family a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Seq,
    Threads,
    Mpi,
    Wire,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Seq, Kind::Threads, Kind::Mpi, Kind::Wire];

    fn tag(self) -> &'static str {
        match self {
            Kind::Seq => "seq",
            Kind::Threads => "threads",
            Kind::Mpi => "mpi",
            Kind::Wire => "wire",
        }
    }
}

/// One scenario × backend call.
struct Cell {
    scenario: usize,
    kind: Kind,
    backend: Backend,
    size: usize,
    /// `<scenario>.<kind>`, e.g. `life.threads`.
    key: String,
}

/// What one pass measured.
struct Pass {
    /// Per-cell call time, ms, in cell order.
    cell_ms: Vec<f64>,
    pass_ms: f64,
    /// Per-cell trace sessions, kept for the traced pass's analysis.
    sessions: Vec<TraceSession>,
}

/// The scenarios, their cells, and the sequential reference digests.
struct Compute {
    seed: u64,
    scenarios: Vec<Box<dyn Scenario>>,
    cells: Vec<Cell>,
    /// Sequential digest per (scenario, size).
    refs: BTreeMap<(usize, usize), u64>,
}

impl Compute {
    fn new(seed: u64, smoke: bool) -> Compute {
        let pick = |full: usize, tiny: usize| if smoke { tiny } else { full };
        let scenarios: Vec<(Box<dyn Scenario>, usize)> = vec![
            (Box::new(pdc_life::LifeScenario), pick(512, 24)),
            (Box::new(pdc_ray::RayScenario), pick(512, 24)),
            (Box::new(pdc_extmem::ExtsortScenario), pick(500_000, 2_000)),
            (Box::new(PageRankScenario), pick(4_096, 64)),
            (
                Box::new(WordCountScenario::new().with_wire(wire_spec())),
                pick(2_000, 20),
            ),
        ];
        let wire_size = pick(1_000, 10);
        let mut cells = Vec::new();
        for (i, (s, size)) in scenarios.iter().enumerate() {
            let offered = s.backends();
            let mut add = |kind: Kind, backend: Backend, size: usize| {
                let key = format!("{}.{}", s.name(), kind.tag());
                cells.push(Cell {
                    scenario: i,
                    kind,
                    backend,
                    size,
                    key,
                });
            };
            add(Kind::Seq, Backend::Sequential, *size);
            add(Kind::Threads, Backend::Threads { workers: PARALLEL }, *size);
            if offered
                .iter()
                .any(|b| matches!(b, Backend::Mpi { wire: false, .. }))
            {
                let backend = Backend::Mpi {
                    ranks: PARALLEL,
                    wire: false,
                };
                add(Kind::Mpi, backend, *size);
            }
            if let Some(wire) = offered
                .into_iter()
                .find(|b| matches!(b, Backend::Mpi { wire: true, .. }))
            {
                add(Kind::Wire, wire, wire_size);
            }
        }
        let mut compute = Compute {
            seed,
            scenarios: scenarios.into_iter().map(|(s, _)| s).collect(),
            cells,
            refs: BTreeMap::new(),
        };
        let sizes: Vec<(usize, usize)> =
            compute.cells.iter().map(|c| (c.scenario, c.size)).collect();
        for (scenario, size) in sizes {
            if !compute.refs.contains_key(&(scenario, size)) {
                let (out, _, _) = compute.call(scenario, &Backend::Sequential, size, false);
                compute.refs.insert((scenario, size), out.digest);
            }
        }
        compute
    }

    /// One `Scenario::run` on a fresh session; when `traced`, the
    /// driver strand records into it the way `run_scenario` arranges.
    fn call(
        &self,
        scenario: usize,
        backend: &Backend,
        size: usize,
        traced: bool,
    ) -> (Outcome, f64, TraceSession) {
        let session = TraceSession::with_capacity(1 << 16);
        let ctx = ScenarioCtx {
            seed: self.seed,
            size,
            session: &session,
        };
        let prev = traced.then(|| trace::install_sync_trace(session.thread(DRIVER_ACTOR)));
        let t0 = Instant::now();
        let out = self.scenarios[scenario].run(backend, &ctx);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match prev {
            Some(Some(p)) => {
                trace::install_sync_trace(p);
            }
            Some(None) => {
                trace::clear_sync_trace();
            }
            None => {}
        }
        (out, ms, session)
    }

    /// Every cell once; with `spans`, a `compute.pass` span per pass and
    /// one child span per call.
    fn pass(&self, index: u64, mut spans: Option<&mut Spans>, tally: &mut Tally) -> Pass {
        let traced = spans.is_some();
        let pass_span = spans.as_mut().map(|s| s.open("compute.pass", index, None));
        let t0 = Instant::now();
        let mut cell_ms = Vec::with_capacity(self.cells.len());
        let mut sessions = Vec::new();
        for c in &self.cells {
            let span = spans
                .as_mut()
                .map(|s| s.open(format!("compute.{}", c.key), index, pass_span));
            let (out, ms, session) = self.call(c.scenario, &c.backend, c.size, traced);
            if let (Some(s), Some(id)) = (spans.as_mut(), span) {
                s.close(id);
            }
            tally.attempted += 1;
            if out.digest != self.refs[&(c.scenario, c.size)] {
                tally.fail_op(format!(
                    "{} n={}: digest {:#018x} differs from seq",
                    c.key, c.size, out.digest
                ));
            }
            cell_ms.push(ms);
            if traced {
                sessions.push(session);
            }
        }
        let pass_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let (Some(s), Some(id)) = (spans, pass_span) {
            s.close(id);
        }
        Pass {
            cell_ms,
            pass_ms,
            sessions,
        }
    }

    /// Per-pass sum of the cells of one backend family, ms.
    fn kind_ms(&self, pass: &Pass, kind: Kind) -> f64 {
        self.cells
            .iter()
            .zip(&pass.cell_ms)
            .filter(|(c, _)| c.kind == kind)
            .map(|(_, ms)| ms)
            .sum()
    }
}

/// Timed passes for a run of `--seconds`.
pub fn timed_passes(scale: &Scale) -> usize {
    if scale.smoke {
        2
    } else {
        ((scale.seconds / PASS_S).round() as usize).max(5)
    }
}

/// The untraced pass: an untimed set-up and warm-up pass, then the timed
/// passes with `SETUPS` timed set-ups spread among them, so that one slow
/// moment of the host does not decide their median.
pub fn measure(seed: u64, scale: &Scale, tally: &mut Tally) -> E2e {
    let mut compute = Compute::new(seed, scale.smoke);
    compute.pass(0, None, tally);
    let timed = timed_passes(scale);
    let every = timed.div_ceil(SETUPS);
    let mut setup_s = Vec::new();
    let mut passes = Vec::with_capacity(timed);
    for i in 0..timed {
        if i % every == 0 {
            let t0 = Instant::now();
            compute = Compute::new(seed, scale.smoke);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        passes.push(compute.pass(i as u64 + 1, None, tally));
    }
    let pass_ms: Vec<f64> = passes.iter().map(|p| p.pass_ms).collect();
    let lat_us: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cell_ms.iter().map(|ms| ms * 1e3))
        .collect();
    E2e::from_latencies(
        setup_s,
        compute.cells.len() as f64 / (Samples::from_vec(pass_ms).median() / 1e3),
        lat_us,
    )
}

/// The traced pass: one warm-up, then `passes` traced passes. The first
/// traced pass's sessions feed the program's own analyses (span
/// parallelism, pool and message counters, analyzer throughput).
pub fn layers(
    seed: u64,
    scale: &Scale,
    passes: usize,
    spans: &mut Spans,
    out: &mut Metrics,
    tally: &mut Tally,
) {
    let compute = Compute::new(seed, scale.smoke);
    compute.pass(0, None, tally);
    let runs: Vec<Pass> = (0..passes.max(1))
        .map(|i| {
            let mut pass = compute.pass(i as u64 + 1, Some(&mut *spans), tally);
            if i > 0 {
                pass.sessions.clear();
            }
            pass
        })
        .collect();

    let call_ms =
        |key: &str| Samples::from_vec(spans.durations_ms(&format!("compute.{key}"))).median();
    for c in &compute.cells {
        out.put(format!("compute.{}_ms", c.key), call_ms(&c.key), "ms");
    }
    for kind in Kind::ALL {
        let sums: Vec<f64> = runs.iter().map(|p| compute.kind_ms(p, kind)).collect();
        out.put(
            format!("compute.{}_ms", kind.tag()),
            Samples::from_vec(sums).median(),
            "ms",
        );
    }

    let first = &runs[0];
    let mut events = 0usize;
    let (mut analyzed, mut analyze_s) = (0usize, 0.0f64);
    for (c, session) in compute.cells.iter().zip(&first.sessions) {
        events += session.events().len();
        let t0 = Instant::now();
        analyzed += pdc_analyze::analyze(session).events_analyzed;
        analyze_s += t0.elapsed().as_secs_f64();
        let name = compute.scenarios[c.scenario].name();
        let snap = session.snapshot();
        match c.kind {
            Kind::Seq => out.put(
                format!("compute.{name}.speedup_threads"),
                call_ms(&format!("{name}.seq")) / call_ms(&format!("{name}.threads")),
                "x",
            ),
            Kind::Threads => {
                let parallelism = pdc_analyze::analyze_span_session(session).parallelism();
                out.put(format!("compute.{name}.parallelism"), parallelism, "x");
                out.put(
                    format!("compute.{name}.pool_steals"),
                    snap.get("pool.steals") as f64,
                    "count",
                );
                out.put(
                    format!("compute.{name}.pool_executed"),
                    snap.get("pool.executed") as f64,
                    "count",
                );
            }
            Kind::Mpi => out.put(
                format!("compute.{name}.mpi_msgs"),
                snap.get("mpi.msgs") as f64,
                "count",
            ),
            Kind::Wire => {}
        }
    }
    out.put("trace.events_per_pass", events as f64, "count");
    out.put("analyze.events_per_s", analyzed as f64 / analyze_s, "1/s");
    out.put(
        "compute.harness_ms",
        Samples::from_vec(spans.self_ms("compute.pass")).median(),
        "ms",
    );
}
