//! The check workload: DPOR proofs of three clean bodies, each
//! exploration run through `pdc-check` with `pdc-analyze` judging every
//! schedule's trace.

use crate::spans::Spans;
use crate::{E2e, Metrics, Scale, Tally};
use pdc_check::{explore_dpor, fixtures, Config, ExploreReport};
use pdc_core::stats::Samples;
use std::time::Instant;

/// Warm-up passes per untraced run; `setup_s` is their median. A proof
/// has no set-up of its own apart from the first explorations.
const SETUPS: usize = 3;
/// Seconds one pass took at the commit that introduced the benchmark;
/// `--seconds` divided by this fixes the timed pass count.
const PASS_S: f64 = 1.85;

/// A clean body DPOR must prove.
#[derive(Debug, Clone, Copy)]
enum Body {
    /// `fixed_counter_body(tasks, ops)`.
    Counter { tasks: u32, ops: u64 },
    /// `channel_handoff_body(messages)`.
    Handoff { messages: usize },
}

impl Body {
    fn name(self) -> String {
        match self {
            Body::Counter { tasks, ops } => format!("check.counter{tasks}x{ops}"),
            Body::Handoff { messages } => format!("check.handoff{messages}"),
        }
    }

    fn explore(self, cfg: &Config) -> ExploreReport {
        match self {
            Body::Counter { tasks, ops } => {
                explore_dpor(fixtures::fixed_counter_body(tasks, ops), cfg)
            }
            Body::Handoff { messages } => {
                explore_dpor(fixtures::channel_handoff_body(messages), cfg)
            }
        }
    }
}

/// The bodies one pass proves.
fn bodies(smoke: bool) -> [Body; 3] {
    let counter = |tasks, ops| Body::Counter { tasks, ops };
    let handoff = |messages| Body::Handoff { messages };
    if smoke {
        [counter(2, 1), handoff(2), counter(2, 2)]
    } else {
        [counter(4, 2), handoff(6), counter(3, 3)]
    }
}

/// What one pass measured.
struct Pass {
    call_ms: Vec<f64>,
    pass_ms: f64,
    schedules: usize,
    pruned: usize,
}

fn pass(
    seed: u64,
    smoke: bool,
    index: u64,
    mut spans: Option<&mut Spans>,
    tally: &mut Tally,
) -> Pass {
    let cfg = Config {
        max_schedules: 1_000_000,
        seed,
        ..Config::default()
    };
    let pass_span = spans.as_mut().map(|s| s.open("check.pass", index, None));
    let t0 = Instant::now();
    let (mut call_ms, mut schedules, mut pruned) = (Vec::new(), 0, 0);
    for body in bodies(smoke) {
        let name = body.name();
        let span = spans
            .as_mut()
            .map(|s| s.open(name.as_str(), index, pass_span));
        let t = Instant::now();
        let report = body.explore(&cfg);
        call_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let (Some(s), Some(id)) = (spans.as_mut(), span) {
            s.close(id);
        }
        tally.attempted += 1;
        if !(report.complete && report.passed()) {
            tally.fail_op(format!(
                "{name}: complete={} failure={:?}",
                report.complete,
                report.failure.map(|f| f.description)
            ));
        }
        schedules += report.schedules_run;
        pruned += report.pruned;
    }
    let pass_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let (Some(s), Some(id)) = (spans, pass_span) {
        s.close(id);
    }
    Pass {
        call_ms,
        pass_ms,
        schedules,
        pruned,
    }
}

/// DPOR is deterministic: every pass must explore the same schedules.
fn check_schedules(passes: &[Pass], tally: &mut Tally) {
    if let Some(first) = passes.first() {
        for (i, p) in passes.iter().enumerate() {
            if p.schedules != first.schedules {
                tally.problem(format!(
                    "pass {i} explored {} schedules, pass 0 explored {}",
                    p.schedules, first.schedules
                ));
            }
        }
    }
}

/// Timed passes for a run of `--seconds`.
pub fn timed_passes(scale: &Scale) -> usize {
    if scale.smoke {
        2
    } else {
        ((scale.seconds / PASS_S).round() as usize).max(3)
    }
}

/// The untraced pass: three timed warm-up passes, then the timed ones.
pub fn measure(seed: u64, scale: &Scale, tally: &mut Tally) -> E2e {
    let mut passes: Vec<Pass> = (0..SETUPS + timed_passes(scale))
        .map(|i| pass(seed, scale.smoke, i as u64, None, tally))
        .collect();
    check_schedules(&passes, tally);
    let timed = passes.split_off(SETUPS);
    let pass_ms: Vec<f64> = timed.iter().map(|p| p.pass_ms).collect();
    let lat_us: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.call_ms.iter().map(|ms| ms * 1e3))
        .collect();
    E2e::from_latencies(
        passes.iter().map(|p| p.pass_ms / 1e3).collect(),
        bodies(scale.smoke).len() as f64 / (Samples::from_vec(pass_ms).median() / 1e3),
        lat_us,
    )
}

/// The traced pass: `passes` traced passes after one warm-up.
pub fn layers(
    seed: u64,
    scale: &Scale,
    passes: usize,
    spans: &mut Spans,
    out: &mut Metrics,
    tally: &mut Tally,
) {
    pass(seed, scale.smoke, 0, None, tally);
    let runs: Vec<Pass> = (0..passes.max(1))
        .map(|i| pass(seed, scale.smoke, i as u64 + 1, Some(&mut *spans), tally))
        .collect();
    check_schedules(&runs, tally);
    let proof_ms = Samples::from_vec(spans.durations_ms("check.pass")).median();
    let schedules = runs[0].schedules;
    out.put("check.schedules", schedules as f64, "count");
    out.put("check.pruned", runs[0].pruned as f64, "count");
    out.put(
        "check.us_per_schedule",
        proof_ms * 1e3 / schedules as f64,
        "us",
    );
    out.put("check.proof_s", proof_ms / 1e3, "s");
    out.put(
        "check.harness_ms",
        Samples::from_vec(spans.self_ms("check.pass")).median(),
        "ms",
    );
}
