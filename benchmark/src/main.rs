//! `benchmark`: one command for the served KV, the scenario backends and
//! the DPOR proofs, measured end to end and layer by layer.
//!
//! ```text
//! benchmark [--workload serve-mixed|serve-shuffle|compute|check]
//!           [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! With one workload and one `--trace` value the run happens in this
//! process and its last stdout line is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! measures the per-layer ones. Leaving out `--workload` or `--trace`
//! runs every missing combination, each in a fresh child process of
//! this binary. See README.md for the workloads and metrics.

mod check;
mod compute;
mod layers;
mod serve;
mod spans;
mod sys;

use pdc_core::stats::Samples;
use pdc_mpi::WireWorld;
use spans::Spans;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Where run records and span logs land, relative to the working
/// directory (the repository root).
const OUT_DIR: &str = "target/bench";

/// How long and how large one run is.
pub struct Scale {
    /// Tiny inputs for the integration test.
    pub smoke: bool,
    /// Sizes the fixed work of a run: `--seconds` at the nominal rates
    /// measured when the benchmark was introduced.
    pub seconds: f64,
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Record one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Operations attempted and failed, plus any other broken invariant.
#[derive(Default)]
pub struct Tally {
    /// Operations sent to the system under test.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    problems: u64,
    notes: Vec<String>,
}

impl Tally {
    /// One operation failed.
    pub fn fail_op(&mut self, what: String) {
        self.fail_ops(1, what);
    }

    /// `n` operations failed for one reason.
    pub fn fail_ops(&mut self, n: u64, what: String) {
        self.failed += n;
        self.problem(what);
    }

    /// An invariant broke (every failed op is also one).
    pub fn problem(&mut self, what: String) {
        self.problems += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    /// Fold in another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems += other.problems;
        self.notes.extend(
            other
                .notes
                .into_iter()
                .take(20usize.saturating_sub(self.notes.len())),
        );
    }
}

/// What an untraced workload run measured. A run that failed before
/// timing anything leaves NaNs, which the result flags.
pub struct E2e {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Completed ops per second of the timed phase.
    pub ops_per_s: f64,
    /// Median op latency, µs.
    pub p50_us: f64,
    /// Timed ops.
    pub samples: usize,
    /// Summed peak resident sets of the child processes still serving at
    /// the end of the timed phase, MiB.
    pub children_rss_mb: f64,
}

impl Default for E2e {
    fn default() -> E2e {
        E2e {
            setup_s: f64::NAN,
            ops_per_s: f64::NAN,
            p50_us: f64::NAN,
            samples: 0,
            children_rss_mb: 0.0,
        }
    }
}

impl E2e {
    /// Summarise the set-ups' seconds and every timed op's latency (µs).
    pub fn from_latencies(setup_s: Vec<f64>, ops_per_s: f64, lat_us: Vec<f64>) -> E2e {
        let median = |v: Vec<f64>| {
            if v.is_empty() {
                f64::NAN
            } else {
                Samples::from_vec(v).median()
            }
        };
        E2e {
            setup_s: median(setup_s),
            ops_per_s,
            samples: lat_us.len(),
            p50_us: median(lat_us),
            children_rss_mb: 0.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeMixed,
    ServeShuffle,
    Compute,
    Check,
}

const WORKLOADS: [Workload; 4] = [
    Workload::ServeMixed,
    Workload::ServeShuffle,
    Workload::Compute,
    Workload::Check,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeShuffle => "serve-shuffle",
            Workload::Compute => "compute",
            Workload::Check => "check",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The serve traffic this workload sends; the others' traced passes
    /// probe the serve layers with the mixed traffic.
    fn traffic(self) -> serve::Traffic {
        match self {
            Workload::ServeShuffle => serve::Traffic::Shuffle,
            _ => serve::Traffic::Mixed,
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
}

const USAGE: &str =
    "usage: benchmark [--workload serve-mixed|serve-shuffle|compute|check] [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(parsed)
}

/// Route a re-executed wire child into the world it belongs to. Never
/// returns in a child; returns at once in an ordinary process.
fn dispatch_wire_child() {
    let Some(world) = WireWorld::child_world_id() else {
        return;
    };
    if world == serve::WORLD {
        pdc_db::serve::run_shard_child();
    }
    if world.starts_with(compute::WC_WIRE_PREFIX) {
        pdc_db::run_wire_wordcount_child(&compute::wire_spec(), &world);
    }
    if world == layers::WORLD_PINGPONG {
        WireWorld::run(&layers::pingpong_opts(), layers::pingpong);
    }
    if world == layers::WORLD_EMPTY {
        WireWorld::run(&layers::empty_opts(), layers::empty);
    }
    eprintln!("benchmark: wire child for unknown world {world:?}");
    std::process::exit(2);
}

/// End-to-end metrics, untraced.
fn untraced(w: Workload, seed: u64, scale: &Scale, out: &mut Metrics, tally: &mut Tally) {
    let e2e = match w {
        Workload::ServeMixed | Workload::ServeShuffle => {
            serve::measure(w.traffic(), seed, scale, tally)
        }
        Workload::Compute => compute::measure(seed, scale, tally),
        Workload::Check => check::measure(seed, scale, tally),
    };
    println!("samples = {}", e2e.samples);
    out.put("setup_s", e2e.setup_s, "s");
    out.put("ops_per_s", e2e.ops_per_s, "1/s");
    out.put("p50_us", e2e.p50_us, "us");
    out.put(
        "peak_rss_mb",
        sys::self_rss_mb() + e2e.children_rss_mb,
        "MB",
    );
}

/// Per-layer metrics. The result of every `--trace 1` run must carry
/// every per-layer metric `BENCHMARK.json` declares, so every layer is
/// measured in every workload's traced run: the workload's own layers at
/// its own size and traffic, the others by one short probe each. The
/// serve part runs first, so this process's memory high-water mark
/// after it (`serve.fe_rss_mb`) is the front end's and the clients'.
fn traced(w: Workload, seed: u64, scale: &Scale, out: &mut Metrics, tally: &mut Tally) {
    let mut spans = Spans::new(Instant::now());
    let traffic = w.traffic();
    let served = serve::layers(traffic, seed, scale, &mut spans, out, tally);
    let compute_passes = if w == Workload::Compute {
        compute::timed_passes(scale) / 2
    } else {
        1
    };
    compute::layers(seed, scale, compute_passes, &mut spans, out, tally);
    let check_passes = if w == Workload::Check {
        check::timed_passes(scale) / 2
    } else {
        1
    };
    check::layers(seed, scale, check_passes, &mut spans, out, tally);
    let replay_ns = layers::replay(&serve::op_gen(traffic, seed, scale), scale, &mut spans, out);
    let alpha_us = layers::wire(&mut spans, out, tally);
    // The part of a served op's median no single-layer replay explains:
    // front-end event loop, scheduling, and syscalls beyond α.
    out.put(
        "serve.residual_us",
        served.p50_us - (served.frames_per_op * alpha_us + replay_ns / 1e3),
        "us",
    );
    let path = format!("{OUT_DIR}/{}.spans.json", w.name());
    if let Err(e) = std::fs::write(&path, spans.to_json()) {
        tally.problem(format!("write {path}: {e}"));
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One workload, one pass, in this process. Returns whether every check
/// held.
fn run_one(w: Workload, args: &Args, trace: bool) -> bool {
    let load_start = sys::loadavg();
    let t0 = Instant::now();
    let scale = Scale {
        smoke: args.smoke,
        seconds: args.seconds,
    };
    let (mut out, mut tally) = (Metrics::default(), Tally::default());
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        tally.problem(format!("create {OUT_DIR}: {e}"));
    }
    if trace {
        traced(w, args.seed, &scale, &mut out, &mut tally);
    } else {
        untraced(w, args.seed, &scale, &mut out, &mut tally);
    }

    let mut metrics = Vec::new();
    for (name, value, unit) in &out.0 {
        println!("{name} = {value} {unit}");
        let value = if value.is_finite() {
            value.to_string()
        } else {
            tally.problem(format!("{name} is {value}"));
            "null".into()
        };
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let record = format!(
        "{{\"workload\":{},\"trace\":{},\"seed\":{},\"seconds\":{},\"smoke\":{},\"commit\":{},\"nproc\":{},\"loadavg_start\":{},\"loadavg_end\":{},\"wall_s\":{}}}",
        json_str(w.name()),
        u8::from(trace),
        args.seed,
        args.seconds,
        args.smoke,
        json_str(&sys::git_commit()),
        sys::nproc(),
        json_str(&load_start),
        json_str(&sys::loadavg()),
        t0.elapsed().as_secs_f64()
    );
    let correct = tally.problems == 0;
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(",")
    );
    let path = format!("{OUT_DIR}/{}.trace{}.run.json", w.name(), u8::from(trace));
    if let Err(e) = std::fs::write(&path, format!("{{\"run\":{record},\"result\":{result}}}\n")) {
        eprintln!("benchmark: write {path}: {e}");
    }
    for note in &tally.notes {
        eprintln!("benchmark: {}: {note}", w.name());
    }
    println!("run {record}");
    println!("{result}");
    correct
}

/// Run every selected workload × pass in a fresh child process.
fn run_children(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return false;
        }
    };
    let workloads: Vec<Workload> = args.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let traces: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut ok = true;
    for w in workloads {
        for &trace in &traces {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                w.name(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .args([
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!(
                        "benchmark: {} trace={} exited {status}",
                        w.name(),
                        u8::from(trace)
                    );
                    ok = false;
                }
                Err(e) => {
                    eprintln!("benchmark: spawn {}: {e}", w.name());
                    ok = false;
                }
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    dispatch_wire_child();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.workload, args.trace) {
        (Some(w), Some(trace)) => run_one(w, &args, trace),
        _ => run_children(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
