//! # pdc-core — performance laws, models of computation, and experiment harness
//!
//! This crate is the analytical foundation of the `pdc` workspace. It
//! implements the quantitative content that the Swarthmore curriculum
//! (Danner & Newhall, EduPar 2013) threads through CS31 and CS41:
//!
//! * [`laws`] — speedup, efficiency, Amdahl's law, Gustafson's law,
//!   the Karp–Flatt metric, and iso-efficiency analysis.
//! * [`workspan`] — the work/span (a.k.a. work/depth) framework of
//!   CLRS ch. 27, including Brent's theorem bounds.
//! * [`taskgraph`] — explicit task DAGs with critical-path analysis and a
//!   greedy list scheduler that simulates execution on `p` processors.
//! * [`machine`] — a deterministic multicore cost model used by the
//!   scalability benches so that speedup *shapes* reproduce on any host
//!   (including single-core CI boxes).
//! * [`scaling`] — strong- and weak-scaling experiment drivers.
//! * [`scenario`] — the `Scenario`×`Backend` execution seam: run one
//!   deterministic workload on several backends, digest the outcomes
//!   for cross-backend equality, and emit speedup/crossover tables.
//! * [`stats`] — small-sample statistics and a repetition-based timer.
//! * [`report`] — aligned text tables for regenerating the paper's
//!   table-style summaries, plus the JSON helpers behind the trace
//!   export; [`json`] reads those documents back.
//! * [`metrics`] / [`trace`] — the pdc-trace observability layer:
//!   named monotone counters and a bounded logical-clock event
//!   recorder shared by the thread pool, the machine simulator, and
//!   the MPI layer.
//! * [`rng`] — a tiny deterministic SplitMix64/xoshiro generator so the
//!   simulators do not need an external RNG dependency.
//!
//! Everything here is deterministic and side-effect free except for the
//! wall-clock helpers in [`stats`], which are clearly marked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod laws;
pub mod machine;
pub mod merge;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod scaling;
pub mod scenario;
pub mod stats;
pub mod taskgraph;
pub mod timeline;
pub mod trace;
pub mod workspan;

pub use laws::{amdahl_speedup, efficiency, gustafson_speedup, karp_flatt, speedup};
pub use machine::{BarrierModel, CoreTrace, MachineConfig, SimMachine};
pub use metrics::{Counter, Registry, Snapshot};
pub use rng::Rng;
pub use scenario::{
    run_scenario, AnalyzeVerdict, Backend, BackendRun, Digest, Outcome, Scenario, ScenarioConfig,
    ScenarioCtx, ScenarioReport,
};
pub use taskgraph::{ScheduleResult, TaskGraph, TaskId};
pub use trace::{Event, EventKind, ThreadTrace, TraceRecorder, TraceSession};
pub use workspan::WorkSpan;
