//! The `Scenario` × `Backend` execution seam.
//!
//! The workload crates (`pdc-life`, `pdc-ray`, `pdc-extmem`, `pdc-db`)
//! each grew their own sequential / threaded / distributed entry
//! points. This module extracts the shared shape: a [`Scenario`]
//! generates its input deterministically from a seed, runs the same
//! work on any [`Backend`] it supports, and condenses the result into a
//! canonical [`Outcome`] digest so cross-backend equality is one `u64`
//! comparison. The [`run_scenario`] driver owns everything around the
//! workload — a fresh [`TraceSession`] per run, wall-clock timing, an
//! injected analyzer verdict (this crate sits below `pdc-analyze`, so
//! the analysis pass arrives as a closure), and the `pdc-tables/1`
//! speedup/crossover tables the bench gate greps.
//!
//! The speedup/crossover framing is the curriculum's core performance
//! topic (Amdahl/Gustafson in [`crate::laws`]); here it is measured on
//! real end-to-end applications rather than microbenchmarks —
//! Strout's "applications-first" argument turned into a harness.

use crate::report::{f, json_escape, speedup_fmt, Table};
use crate::trace::{self, Event, TraceSession};
use std::fmt;
use std::time::Instant;

/// Actor id the driver's own thread records under while a scenario
/// runs (see [`run_scenario`]): just below the automatic range so it
/// never collides with worker indices, ranks, or
/// [`trace::AUTO_ACTOR_BASE`] siblings.
pub const DRIVER_ACTOR: u32 = trace::AUTO_ACTOR_BASE - 1;

/// Where a scenario's work executes.
///
/// The enum is deliberately closed: every workload crate matches on it
/// and panics on backends it does not list in
/// [`Scenario::backends`], so a typo'd backend fails loudly instead of
/// silently running sequentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded reference implementation — the speedup baseline.
    Sequential,
    /// The work-stealing pool (`pdc-threads`) with this many workers.
    Threads {
        /// Worker thread count.
        workers: usize,
    },
    /// Message-passing ranks (`pdc-mpi`).
    Mpi {
        /// Rank count.
        ranks: usize,
        /// `false` = in-process `LocalTransport` threads; `true` =
        /// re-exec'd OS processes over loopback TCP (`WireWorld`).
        /// Wire runs need child re-exec dispatch, so only binaries
        /// that install it (the `experiments` gate) offer them.
        wire: bool,
    },
    /// The deterministic GPU simulator (`pdc-gpu`).
    GpuSim,
}

impl Backend {
    /// Stable short label used in tables, JSON, and counter rows.
    pub fn label(&self) -> String {
        match self {
            Backend::Sequential => "seq".to_string(),
            Backend::Threads { workers } => format!("threads({workers})"),
            Backend::Mpi { ranks, wire: false } => format!("mpi-local({ranks})"),
            Backend::Mpi { ranks, wire: true } => format!("mpi-wire({ranks})"),
            Backend::GpuSim => "gpusim".to_string(),
        }
    }

    /// Everything except the sequential baseline.
    pub fn is_parallel(&self) -> bool {
        !matches!(self, Backend::Sequential)
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(out, "{}", self.label())
    }
}

/// Incremental FNV-1a (64-bit) — the workspace's canonical outcome
/// digest. Not cryptographic; chosen because it is trivially portable
/// and stable across platforms and backends.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Start a fresh digest.
    pub fn new() -> Self {
        Digest(Self::OFFSET)
    }

    /// Fold in raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold in one `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Fold in a string (bytes plus a length separator, so `["ab","c"]`
    /// and `["a","bc"]` digest differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest value so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// The canonical result of one scenario run: what the run produced,
/// condensed so that two backends can be compared for equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Canonical digest of the full result (grid cells, PPM bytes,
    /// sorted records, word counts, ...). Equal digests across backends
    /// is the seam's correctness contract.
    pub digest: u64,
    /// Work units processed (cell updates, pixels, records, words) —
    /// the scenario's own notion of problem size, for throughput rows.
    pub items: u64,
    /// One-line human summary (`"pop=412"`, `"lum=87.3"`).
    pub detail: String,
}

/// Everything a scenario needs to run once: the deterministic input
/// seed, the problem scale (scenario-interpreted: grid side, image
/// width, record count, document count), and the trace session the
/// backend should publish counters and events into.
pub struct ScenarioCtx<'a> {
    /// Seed for deterministic input generation.
    pub seed: u64,
    /// Problem scale.
    pub size: usize,
    /// Per-run trace session (fresh for every backend × size).
    pub session: &'a TraceSession,
}

/// A workload that can execute on several backends.
///
/// The contract: for a fixed `(seed, size)`, [`Scenario::run`] must
/// return the same [`Outcome::digest`] on every backend listed by
/// [`Scenario::backends`] — bit-equal results, not statistically
/// similar ones. Implementations panic on backends they do not list.
pub trait Scenario {
    /// Stable scenario id (`"life"`, `"ray"`, `"extsort"`, `"wordcount"`).
    fn name(&self) -> &'static str;
    /// The backends this scenario supports, baseline first.
    fn backends(&self) -> Vec<Backend>;
    /// Generate the input from `ctx.seed`/`ctx.size`, execute on
    /// `backend`, trace into `ctx.session`, and digest the result.
    fn run(&self, backend: &Backend, ctx: &ScenarioCtx<'_>) -> Outcome;
}

/// The injected analyzer's verdict on one run's trace. `pdc-core` sits
/// below `pdc-analyze` in the crate graph, so [`run_scenario`] takes
/// the analysis as a closure producing this summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeVerdict {
    /// No defects found.
    pub clean: bool,
    /// Defects found (0 when clean).
    pub defects: usize,
    /// Events the analyzer saw.
    pub events: usize,
}

/// Driver configuration for [`run_scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Input-generation seed, shared by every run.
    pub seed: u64,
    /// Problem scales to sweep, ascending.
    pub sizes: Vec<usize>,
    /// Wall-clock repetitions per (backend, size); the fastest run is
    /// kept (its session and verdict too). Every repetition must
    /// reproduce the same digest — the driver asserts it.
    pub repeats: u32,
}

impl ScenarioConfig {
    /// One-repetition config (property tests); gates use more repeats.
    pub fn new(seed: u64, sizes: &[usize]) -> Self {
        ScenarioConfig {
            seed,
            sizes: sizes.to_vec(),
            repeats: 1,
        }
    }

    /// Set the repetition count.
    pub fn with_repeats(mut self, repeats: u32) -> Self {
        assert!(repeats >= 1, "need at least one repetition");
        self.repeats = repeats;
        self
    }
}

/// One `(backend, size)` cell of a scenario sweep.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Backend that executed.
    pub backend: Backend,
    /// Problem scale.
    pub size: usize,
    /// Canonical result.
    pub outcome: Outcome,
    /// Fastest wall-clock time across the repetitions, clamped to
    /// ≥ 1 ns so speedup rows can never divide by zero.
    pub nanos: u64,
    /// The injected analyzer's verdict on the kept run's trace.
    pub analyze: AnalyzeVerdict,
    /// Events the kept run's session dropped (full buffers).
    pub dropped: u64,
    /// The kept (fastest) run's full event stream, ts-sorted — the
    /// input the span pass consumes for empirical work/span.
    pub events: Vec<Event>,
}

/// The full sweep of one scenario: every backend at every size.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's name.
    pub scenario: String,
    /// The seed all runs shared.
    pub seed: u64,
    /// All runs, grouped by size (ascending), backends in declaration
    /// order within a size.
    pub runs: Vec<BackendRun>,
}

impl ScenarioReport {
    /// The sizes swept, ascending.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.runs.iter().map(|r| r.size).collect();
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    }

    /// The distinct backend labels, in first-appearance order.
    pub fn backend_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        for r in &self.runs {
            let l = r.backend.label();
            if !labels.contains(&l) {
                labels.push(l);
            }
        }
        labels
    }

    /// The baseline (sequential) time for `size`, falling back to the
    /// first run at that size if the scenario has no sequential
    /// backend.
    pub fn baseline_nanos(&self, size: usize) -> Option<u64> {
        self.runs
            .iter()
            .find(|r| r.size == size && r.backend == Backend::Sequential)
            .or_else(|| self.runs.iter().find(|r| r.size == size))
            .map(|r| r.nanos)
    }

    /// Speedup of one run against its size's baseline.
    pub fn speedup_of(&self, run: &BackendRun) -> f64 {
        match self.baseline_nanos(run.size) {
            Some(base) => base as f64 / run.nanos as f64,
            None => f64::NAN,
        }
    }

    /// Speedup for a specific `(backend, size)` cell, if present.
    pub fn speedup(&self, backend: &Backend, size: usize) -> Option<f64> {
        self.runs
            .iter()
            .find(|r| r.size == size && &r.backend == backend)
            .map(|r| self.speedup_of(r))
    }

    /// Whether every backend produced the same digest at every size —
    /// the seam's cross-backend equality contract.
    pub fn outcomes_agree(&self) -> bool {
        self.mismatches().is_empty()
    }

    /// Human-readable descriptions of every digest disagreement.
    pub fn mismatches(&self) -> Vec<String> {
        let mut out = Vec::new();
        for size in self.sizes() {
            let at: Vec<&BackendRun> = self.runs.iter().filter(|r| r.size == size).collect();
            if let Some(first) = at.first() {
                for r in &at[1..] {
                    if r.outcome.digest != first.outcome.digest {
                        out.push(format!(
                            "{} n={size}: {} digest {:#018x} != {} digest {:#018x}",
                            self.scenario,
                            r.backend,
                            r.outcome.digest,
                            first.backend,
                            first.outcome.digest
                        ));
                    }
                }
            }
        }
        out
    }

    /// Whether the injected analyzer found every run clean.
    pub fn all_clean(&self) -> bool {
        self.runs.iter().all(|r| r.analyze.clean)
    }

    /// Whether every table row is well-formed: positive duration, and a
    /// finite positive speedup. (The driver clamps durations to ≥ 1 ns,
    /// so this holds by construction; the gate asserts it anyway.)
    pub fn rows_valid(&self) -> bool {
        self.runs.iter().all(|r| {
            let s = self.speedup_of(r);
            r.nanos >= 1 && s.is_finite() && s > 0.0
        })
    }

    /// The smallest swept size at which `backend` reaches speedup ≥ 1
    /// — the crossover point where parallelism starts paying.
    pub fn crossover_size(&self, backend: &Backend) -> Option<usize> {
        self.sizes()
            .into_iter()
            .find(|&n| self.speedup(backend, n).is_some_and(|s| s >= 1.0))
    }

    /// The per-run speedup table: one row per `(size, backend)`.
    pub fn speedup_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "scenario {} — speedup vs sequential (seed {:#x})",
                self.scenario, self.seed
            ),
            &[
                "n", "backend", "time ms", "speedup", "items", "digest", "analyze",
            ],
        );
        for r in &self.runs {
            t.row(&[
                r.size.to_string(),
                r.backend.label(),
                f(r.nanos as f64 / 1e6, 3),
                speedup_fmt(self.speedup_of(r)),
                r.outcome.items.to_string(),
                format!("{:#018x}", r.outcome.digest),
                if r.analyze.clean {
                    format!("clean ({} events)", r.analyze.events)
                } else {
                    format!("{} DEFECTS", r.analyze.defects)
                },
            ]);
        }
        t
    }

    /// The crossover table: one row per parallel backend, speedup at
    /// each size plus the crossover size (first size with speedup ≥ 1).
    pub fn crossover_table(&self) -> Table {
        let sizes = self.sizes();
        let mut headers: Vec<String> = vec!["backend".to_string()];
        headers.extend(sizes.iter().map(|n| format!("n={n}")));
        headers.push("crossover n".to_string());
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            format!("scenario {} — crossover", self.scenario),
            &header_refs,
        );
        let mut seen: Vec<Backend> = Vec::new();
        for r in &self.runs {
            if !r.backend.is_parallel() || seen.contains(&r.backend) {
                continue;
            }
            seen.push(r.backend);
            let mut cells: Vec<String> = vec![r.backend.label()];
            for &n in &sizes {
                cells.push(match self.speedup(&r.backend, n) {
                    Some(s) => speedup_fmt(s),
                    None => "-".to_string(),
                });
            }
            cells.push(
                self.crossover_size(&r.backend)
                    .map_or("-".to_string(), |n| n.to_string()),
            );
            t.row(&cells);
        }
        t
    }

    /// Export the speedup and crossover tables as one `pdc-tables/1`
    /// JSON document (the format EXPERIMENTS.md specifies, extended
    /// with `scenario` and `seed` fields).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"pdc-tables/1\",\"scenario\":\"{}\",\"seed\":{},\"tables\":[{},{}]}}",
            json_escape(&self.scenario),
            self.seed,
            self.speedup_table().to_json(),
            self.crossover_table().to_json()
        )
    }
}

/// Run `scenario` on every backend it supports at every configured
/// size: fresh [`TraceSession`] per run, `scenario.*` counters, timing
/// (fastest of `cfg.repeats`, clamped to ≥ 1 ns), and the injected
/// `analyzer` verdict over the kept run's trace.
///
/// # Panics
/// Panics if `cfg` has no sizes, or if a repetition reproduces a
/// different digest than the first (scenarios must be deterministic).
pub fn run_scenario(
    scenario: &dyn Scenario,
    cfg: &ScenarioConfig,
    analyzer: &dyn Fn(&TraceSession) -> AnalyzeVerdict,
) -> ScenarioReport {
    assert!(
        !cfg.sizes.is_empty(),
        "scenario sweep needs at least one size"
    );
    assert!(cfg.repeats >= 1, "need at least one repetition");
    let mut runs = Vec::new();
    for &size in &cfg.sizes {
        for backend in scenario.backends() {
            let mut best: Option<(u64, Outcome, TraceSession)> = None;
            for _ in 0..cfg.repeats {
                let session = TraceSession::with_capacity(1 << 16);
                let ctx = ScenarioCtx {
                    seed: cfg.seed,
                    size,
                    session: &session,
                };
                // The driver's thread records under DRIVER_ACTOR for
                // the duration of the run, so sequential code paths
                // (and `trace::record_steps` attribution in them) land
                // in the session without every scenario threading a
                // handle through. The previous trace (if the caller
                // nested) is restored afterwards.
                let prev = trace::install_sync_trace(session.thread(DRIVER_ACTOR));
                let t0 = Instant::now();
                let outcome = scenario.run(&backend, &ctx);
                let nanos = (t0.elapsed().as_nanos() as u64).max(1);
                match prev {
                    Some(p) => {
                        trace::install_sync_trace(p);
                    }
                    None => {
                        trace::clear_sync_trace();
                    }
                }
                session.counter("scenario.runs").inc();
                session.counter("scenario.items").add(outcome.items);
                if let Some((_, first, _)) = &best {
                    assert_eq!(
                        outcome.digest,
                        first.digest,
                        "{} on {} at n={size}: digest changed between repetitions",
                        scenario.name(),
                        backend
                    );
                }
                if best.as_ref().is_none_or(|(t, _, _)| nanos < *t) {
                    best = Some((nanos, outcome, session));
                }
            }
            let (nanos, outcome, session) = best.expect("at least one repetition");
            let analyze = analyzer(&session);
            runs.push(BackendRun {
                backend,
                size,
                outcome,
                nanos,
                analyze,
                dropped: session.dropped(),
                events: session.events(),
            });
        }
    }
    ScenarioReport {
        scenario: scenario.name().to_string(),
        seed: cfg.seed,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scenario: sum the first `size` outputs of the seeded RNG.
    /// "Threads" just chunks the same sum, so digests agree.
    struct SumScenario;

    impl Scenario for SumScenario {
        fn name(&self) -> &'static str {
            "sum"
        }

        fn backends(&self) -> Vec<Backend> {
            vec![Backend::Sequential, Backend::Threads { workers: 2 }]
        }

        fn run(&self, backend: &Backend, ctx: &ScenarioCtx<'_>) -> Outcome {
            let data = crate::rng::Rng::new(ctx.seed).u64_vec(ctx.size);
            let total: u64 = match backend {
                Backend::Sequential => data.iter().fold(0u64, |a, &v| a.wrapping_add(v)),
                Backend::Threads { workers } => data
                    .chunks(ctx.size.div_ceil(*workers).max(1))
                    .map(|c| c.iter().fold(0u64, |a, &v| a.wrapping_add(v)))
                    .fold(0u64, u64::wrapping_add),
                other => panic!("sum scenario does not support {other}"),
            };
            ctx.session.counter("sum.values").add(ctx.size as u64);
            // Attribute one step per summed value: the driver installs
            // a sync trace, so this lands in the session's events.
            trace::record_steps(ctx.size as u64);
            let mut d = Digest::new();
            d.write_u64(total);
            Outcome {
                digest: d.finish(),
                items: ctx.size as u64,
                detail: format!("total={total}"),
            }
        }
    }

    fn no_analyzer(_: &TraceSession) -> AnalyzeVerdict {
        AnalyzeVerdict {
            clean: true,
            defects: 0,
            events: 0,
        }
    }

    #[test]
    fn driver_sweeps_all_backends_and_sizes() {
        let cfg = ScenarioConfig::new(7, &[10, 100]).with_repeats(2);
        let report = run_scenario(&SumScenario, &cfg, &no_analyzer);
        assert_eq!(report.runs.len(), 4);
        assert!(report.outcomes_agree(), "{:?}", report.mismatches());
        assert!(report.all_clean());
        assert!(report.rows_valid());
        assert_eq!(report.sizes(), vec![10, 100]);
        assert_eq!(report.backend_labels(), vec!["seq", "threads(2)"]);
    }

    #[test]
    fn driver_installs_sync_trace_and_keeps_events() {
        let report = run_scenario(&SumScenario, &ScenarioConfig::new(5, &[16]), &no_analyzer);
        for r in &report.runs {
            let marks: Vec<_> = r
                .events
                .iter()
                .filter(|e| e.kind == crate::trace::EventKind::Mark)
                .collect();
            assert_eq!(marks.len(), 1, "one step mark per run on {}", r.backend);
            assert_eq!(marks[0].actor, DRIVER_ACTOR);
            assert_eq!(marks[0].a, crate::trace::MARK_STEPS);
            assert_eq!(marks[0].b, 16);
        }
        // The driver cleared its trace: nothing records afterwards.
        assert!(!trace::record_steps(1));
    }

    #[test]
    fn digests_differ_across_seeds_but_not_backends() {
        let a = run_scenario(&SumScenario, &ScenarioConfig::new(1, &[64]), &no_analyzer);
        let b = run_scenario(&SumScenario, &ScenarioConfig::new(2, &[64]), &no_analyzer);
        assert_ne!(a.runs[0].outcome.digest, b.runs[0].outcome.digest);
        assert_eq!(a.runs[0].outcome.digest, a.runs[1].outcome.digest);
    }

    #[test]
    fn tables_and_json_are_well_formed() {
        let cfg = ScenarioConfig::new(3, &[8, 32]);
        let report = run_scenario(&SumScenario, &cfg, &no_analyzer);
        let speed = report.speedup_table().render();
        assert!(speed.contains("threads(2)"));
        let cross = report.crossover_table().render();
        assert!(cross.contains("n=8") && cross.contains("crossover n"));
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"pdc-tables/1\""));
        assert!(json.contains("\"scenario\":\"sum\""));
    }

    #[test]
    fn nanos_never_zero_and_speedups_finite() {
        let report = run_scenario(&SumScenario, &ScenarioConfig::new(0, &[1]), &no_analyzer);
        for r in &report.runs {
            assert!(r.nanos >= 1);
            let s = report.speedup_of(r);
            assert!(s.is_finite() && s > 0.0);
        }
    }

    #[test]
    fn digest_is_order_sensitive_and_separator_safe() {
        let mut a = Digest::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn backend_labels_are_stable() {
        assert_eq!(Backend::Sequential.label(), "seq");
        assert_eq!(Backend::Threads { workers: 4 }.label(), "threads(4)");
        assert_eq!(
            Backend::Mpi {
                ranks: 3,
                wire: false
            }
            .label(),
            "mpi-local(3)"
        );
        assert_eq!(
            Backend::Mpi {
                ranks: 3,
                wire: true
            }
            .label(),
            "mpi-wire(3)"
        );
        assert_eq!(Backend::GpuSim.label(), "gpusim");
        assert!(!Backend::Sequential.is_parallel());
        assert!(Backend::GpuSim.is_parallel());
    }
}
