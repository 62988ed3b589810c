//! Threaded Game of Life: row bands + a barrier per generation.
//!
//! This is the paper's flagship lab ("Parallel Game of Life Using
//! Pthreads and Experimental Scalability Study"). Persistent workers
//! each own a band of rows; every generation they compute their band
//! from the read buffer into the write buffer, then meet at a
//! [`pdc_sync::SenseBarrier`]; buffers swap by generation parity.
//!
//! Cells are `AtomicU8` so the double-buffered sharing is safe Rust:
//! within a generation, reads target only the read buffer and each
//! worker writes only its own rows; the barrier's Release/Acquire
//! ordering publishes every write before the next generation reads it.
//! A worker slides a window of three plain rows down its band, loading
//! one new row from the read buffer per output row, and hands the
//! window to the one Life rule, `engine::step_row`; it stores each
//! computed row into the write buffer.

use crate::engine::{adjacent_rows, step_row};
use crate::grid::{Boundary, Grid};
use pdc_core::trace::{self, EventKind};
use pdc_sync::SenseBarrier;
use std::sync::atomic::{AtomicU8, Ordering};

fn to_atomic(grid: &Grid) -> Vec<AtomicU8> {
    grid.cells().iter().map(|&c| AtomicU8::new(c)).collect()
}

/// Copy row `r` of `cells` into `buf`, or zeros past a dead edge.
fn load_row(cells: &[AtomicU8], r: Option<usize>, buf: &mut [u8]) {
    let cols = buf.len();
    match r {
        Some(r) => {
            for (b, cell) in buf.iter_mut().zip(&cells[r * cols..(r + 1) * cols]) {
                *b = cell.load(Ordering::Relaxed);
            }
        }
        None => buf.fill(0),
    }
}

/// Per-run statistics of the threaded engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelStats {
    /// Rows computed by each worker per generation.
    pub rows_per_worker: Vec<usize>,
    /// Barrier episodes executed (= generations).
    pub barrier_episodes: u64,
}

/// Advance `grid` by `generations` using `workers` threads.
/// Returns the final board plus statistics; the result is bit-identical
/// to [`crate::engine::step_generations`].
///
/// # Panics
/// Panics if `workers == 0`.
pub fn parallel_step_generations(
    grid: &Grid,
    generations: usize,
    workers: usize,
) -> (Grid, ParallelStats) {
    assert!(workers > 0, "need at least one worker");
    let rows = grid.rows();
    let cols = grid.cols();
    let boundary = grid.boundary();
    let torus = boundary == Boundary::Torus;
    let workers = workers.min(rows); // never more workers than rows
    let buf_a = to_atomic(grid);
    let buf_b: Vec<AtomicU8> = (0..rows * cols).map(|_| AtomicU8::new(0)).collect();
    let barrier = SenseBarrier::new(workers);

    // Row bands (block partitioning with remainder spread).
    let base = rows / workers;
    let rem = rows % workers;
    let mut bands = Vec::with_capacity(workers);
    let mut lo = 0;
    for w in 0..workers {
        let len = base + usize::from(w < rem);
        bands.push(lo..lo + len);
        lo += len;
    }

    // When the calling thread has a sync trace installed (the scenario
    // driver does), the run becomes observable: each worker records
    // under its own sibling actor — barrier pulses from pdc-sync plus
    // one step mark per generation (its band's cell updates) — with
    // fork/join handles tying the workers' lifetimes to the caller so
    // the span pass sees one connected DAG. With no trace installed
    // all of this is a no-op.
    let parent = trace::current_sync_trace();
    let done_handles = std::thread::scope(|s| {
        let mut done_handles = Vec::new();
        for (w, band) in bands.clone().into_iter().enumerate() {
            let (buf_a, buf_b, barrier) = (&buf_a, &buf_b, &barrier);
            let tracing = parent.as_ref().map(|p| {
                let start = trace::next_site_id();
                let done = trace::next_site_id();
                p.record(EventKind::Fork, start, w as u64);
                done_handles.push(done);
                (p.sibling_auto(), start, done)
            });
            let band_steps = (band.len() * cols) as u64;
            s.spawn(move || {
                if let Some((t, start, _)) = &tracing {
                    t.record(EventKind::Join, *start, w as u64);
                    trace::install_sync_trace(t.clone());
                }
                // Rows above, at and below the one being computed.
                let mut window = [vec![0; cols], vec![0; cols], vec![0; cols]];
                let mut out = vec![0; cols];
                for generation in 0..generations {
                    let (src, dst) = if generation % 2 == 0 {
                        (buf_a, buf_b)
                    } else {
                        (buf_b, buf_a)
                    };
                    let (above, _) = adjacent_rows(band.start, rows, torus);
                    load_row(src, above, &mut window[0]);
                    load_row(src, Some(band.start), &mut window[1]);
                    for r in band.clone() {
                        load_row(src, adjacent_rows(r, rows, torus).1, &mut window[2]);
                        step_row(&window[0], &window[1], &window[2], torus, &mut out);
                        for (cell, &v) in dst[r * cols..(r + 1) * cols].iter().zip(&out) {
                            cell.store(v, Ordering::Relaxed);
                        }
                        window.rotate_left(1);
                    }
                    trace::record_steps(band_steps);
                    // The barrier both synchronizes the generation and
                    // publishes this worker's writes to every reader.
                    barrier.wait();
                }
                if let Some((t, _, done)) = &tracing {
                    t.record(EventKind::Fork, *done, w as u64);
                    trace::clear_sync_trace();
                }
            });
        }
        done_handles
    });
    // The scope joined every worker; adopt their completion histories.
    if let Some(p) = &parent {
        for (w, handle) in done_handles.iter().enumerate() {
            p.record(EventKind::Join, *handle, w as u64);
        }
    }

    let final_buf = if generations.is_multiple_of(2) {
        &buf_a
    } else {
        &buf_b
    };
    let mut out = Grid::new(rows, cols, boundary);
    for (dst, src) in out.cells_mut().iter_mut().zip(final_buf.iter()) {
        *dst = src.load(Ordering::Relaxed);
    }
    let stats = ParallelStats {
        rows_per_worker: bands.iter().map(|b| b.len()).collect(),
        barrier_episodes: generations as u64,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::step_generations;
    use crate::grid::patterns;

    fn random_board(rows: usize, cols: usize, boundary: Boundary, seed: u64) -> Grid {
        Grid::random(rows, cols, boundary, 0.35, seed)
    }

    #[test]
    fn matches_sequential_exactly() {
        for (rows, cols) in [(16usize, 16usize), (17, 31), (8, 64)] {
            for boundary in [Boundary::Torus, Boundary::Dead] {
                let g = random_board(rows, cols, boundary, 99);
                let (seq, _) = step_generations(&g, 10);
                for workers in [1usize, 2, 3, 4, 8] {
                    let (par, _) = parallel_step_generations(&g, 10, workers);
                    assert_eq!(par, seq, "{rows}x{cols} {boundary:?} w={workers}");
                }
            }
        }
    }

    #[test]
    fn zero_generations_is_identity() {
        let g = random_board(10, 10, Boundary::Torus, 3);
        let (out, stats) = parallel_step_generations(&g, 0, 4);
        assert_eq!(out, g);
        assert_eq!(stats.barrier_episodes, 0);
    }

    #[test]
    fn more_workers_than_rows_clamped() {
        let g = random_board(3, 20, Boundary::Torus, 5);
        let (par, stats) = parallel_step_generations(&g, 4, 16);
        let (seq, _) = step_generations(&g, 4);
        assert_eq!(par, seq);
        assert_eq!(stats.rows_per_worker.len(), 3, "clamped to row count");
    }

    #[test]
    fn band_partition_covers_all_rows() {
        let g = random_board(17, 5, Boundary::Dead, 7);
        let (_, stats) = parallel_step_generations(&g, 1, 4);
        assert_eq!(stats.rows_per_worker.iter().sum::<usize>(), 17);
        // Remainder spread: sizes differ by at most one.
        let max = stats.rows_per_worker.iter().max().unwrap();
        let min = stats.rows_per_worker.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn glider_correct_under_threads() {
        let mut g = Grid::new(12, 12, Boundary::Dead);
        g.stamp(1, 1, &patterns::GLIDER);
        let (par, _) = parallel_step_generations(&g, 4, 3);
        let mut expected = Grid::new(12, 12, Boundary::Dead);
        expected.stamp(2, 2, &patterns::GLIDER);
        assert_eq!(par, expected);
    }

    #[test]
    fn traced_run_records_forks_steps_and_barrier_pulses() {
        use pdc_core::trace::{self, EventKind, TraceSession, MARK_STEPS};
        let session = TraceSession::with_capacity(1 << 12);
        let prev = trace::install_sync_trace(session.thread(500));
        let g = random_board(12, 10, Boundary::Torus, 21);
        let (out, _) = parallel_step_generations(&g, 3, 4);
        match prev {
            Some(p) => {
                trace::install_sync_trace(p);
            }
            None => {
                trace::clear_sync_trace();
            }
        }
        let (seq, _) = step_generations(&g, 3);
        assert_eq!(out, seq, "tracing must not change the result");
        let events = session.events();
        // 4 workers x (start fork by caller + start join + done fork +
        // done join by caller) = 16 fork/join events.
        let forks = events.iter().filter(|e| e.kind == EventKind::Fork).count();
        let joins = events.iter().filter(|e| e.kind == EventKind::Join).count();
        assert_eq!(forks, 8);
        assert_eq!(joins, 8);
        // One step mark per worker per generation, band cells each.
        let marks: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Mark && e.a == MARK_STEPS)
            .collect();
        assert_eq!(marks.len(), 4 * 3);
        assert_eq!(
            marks.iter().map(|e| e.b).sum::<u64>(),
            12 * 10 * 3,
            "attributed steps cover every cell update"
        );
        // The sense barrier's pulses are visible (release on arrival,
        // acquire on wakeup, every worker, every generation).
        let pulses = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Acquire | EventKind::Release))
            .count();
        assert_eq!(pulses, 2 * 4 * 3);
        // Untraced runs record nothing.
        assert!(trace::current_sync_trace().is_none());
        let before = session.events().len();
        parallel_step_generations(&g, 2, 2);
        assert_eq!(session.events().len(), before);
    }

    #[test]
    fn odd_generation_count_lands_in_other_buffer() {
        let g = random_board(9, 9, Boundary::Torus, 11);
        let (seq, _) = step_generations(&g, 7);
        let (par, _) = parallel_step_generations(&g, 7, 2);
        assert_eq!(par, seq);
    }
}
