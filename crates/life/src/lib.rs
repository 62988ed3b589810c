//! # pdc-life — Conway's Game of Life, four ways
//!
//! The Game of Life is the spine of CS31's lab sequence (paper Table I):
//! first as a C-programming/timing lab, then as the **parallel Game of
//! Life with an experimental scalability study** — the course's capstone
//! shared-memory project. This crate implements the full ladder:
//!
//! * [`grid`] — the board: torus or dead-boundary, pattern library,
//!   deterministic random fills.
//! * [`engine`] — the one Life rule, a row kernel every engine calls,
//!   and sequential stepping (the baseline students time).
//! * [`parallel`] — row-partitioned threaded stepping with a
//!   [`pdc_sync::SenseBarrier`] per generation, bit-identical to the
//!   sequential engine.
//! * [`scaling`] — the scalability *study*: wall-clock strong scaling
//!   plus the deterministic [`pdc_core::SimMachine`] model that
//!   reproduces the lab's speedup curves on any host.
//! * [`dist`] — the distributed version on [`pdc_mpi`]: row bands with
//!   ghost-row exchange, the halo pattern CS87 teaches.
//! * [`scenario`] — all of the above behind the
//!   [`pdc_core::scenario`] seam, digest-checked across backends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod engine;
pub mod grid;
pub mod parallel;
pub mod scaling;
pub mod scenario;

pub use engine::step_generations;
pub use grid::{Boundary, Grid};
pub use parallel::parallel_step_generations;
pub use scenario::LifeScenario;
