//! The Life rule, and sequential stepping — the baseline of the
//! scalability study.
//!
//! `step_row` is the only statement of B3/S23 in the crate, and every
//! engine calls it: [`step`] on row slices of the board,
//! [`crate::parallel`] on a window of rows loaded from its `AtomicU8`
//! buffer, and [`crate::dist`] on its band between two ghost rows.
//! [`Grid::neighbors`] stays as the per-cell reference the tests hold
//! the kernel to.

use crate::grid::{Boundary, Grid};

/// Compute one row of the next generation into `out`.
///
/// The caller picks `above` and `below`: the wrapped row on a torus, a
/// zero row past a dead edge. The kernel slides three column sums along
/// `row`; with `torus` it wraps the two edge columns, otherwise it reads
/// them as dead. In a 1- or 2-wide row the wrapped columns are the cell
/// itself or coincide, as in [`Grid::neighbors`].
pub(crate) fn step_row(above: &[u8], row: &[u8], below: &[u8], torus: bool, out: &mut [u8]) {
    let cols = row.len();
    debug_assert!(above.len() == cols && below.len() == cols && out.len() == cols);
    let (above, below, out) = (&above[..cols], &below[..cols], &mut out[..cols]);
    let sum = |c: usize| above[c] + row[c] + below[c];
    let edge = |c: usize| if torus { sum(c) } else { 0 };
    let (mut left, mut mid) = (edge(cols - 1), sum(0));
    for c in 0..cols {
        let right = if c + 1 < cols { sum(c + 1) } else { edge(0) };
        // The 3×3 block's live cells, less the cell itself. B3/S23.
        let n = left + mid + right - row[c];
        out[c] = u8::from(n == 3 || (row[c] == 1 && n == 2));
        (left, mid) = (mid, right);
    }
}

/// The rows above and below row `r` of a `rows`-tall board: wrapped on
/// a torus, `None` past a dead edge.
pub(crate) fn adjacent_rows(r: usize, rows: usize, torus: bool) -> (Option<usize>, Option<usize>) {
    let above = r.checked_sub(1).or(torus.then(|| rows - 1));
    let below = Some(r + 1).filter(|&b| b < rows).or(torus.then_some(0));
    (above, below)
}

/// Advance `grid` one generation, returning the new board.
pub fn step(grid: &Grid) -> Grid {
    let (rows, cols) = (grid.rows(), grid.cols());
    let torus = grid.boundary() == Boundary::Torus;
    let dead = vec![0; cols];
    let row = |r: Option<usize>| r.map_or(&dead[..], |r| &grid.cells()[r * cols..(r + 1) * cols]);
    let mut next = Grid::new(rows, cols, grid.boundary());
    for (r, out) in next.cells_mut().chunks_mut(cols).enumerate() {
        let (above, below) = adjacent_rows(r, rows, torus);
        step_row(row(above), row(Some(r)), row(below), torus, out);
    }
    next
}

/// Advance `grid` by `generations`, returning the final board and the
/// total number of cell updates performed (the lab's work metric).
pub fn step_generations(grid: &Grid, generations: usize) -> (Grid, u64) {
    let gen_steps = (grid.rows() * grid.cols()) as u64;
    let mut cur = grid.clone();
    for _ in 0..generations {
        cur = step(&cur);
        // One unit-cost operation per cell update, attributed to the
        // caller's sync trace when one is installed (no-op otherwise)
        // so the span pass can measure the engine's empirical work.
        pdc_core::trace::record_steps(gen_steps);
    }
    let updates = gen_steps * generations as u64;
    (cur, updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{patterns, Boundary};

    #[test]
    fn block_is_still_life() {
        let mut g = Grid::new(6, 6, Boundary::Dead);
        g.stamp(2, 2, &patterns::BLOCK);
        let (after, _) = step_generations(&g, 5);
        assert_eq!(after, g);
    }

    #[test]
    fn blinker_oscillates_with_period_2() {
        let mut g = Grid::new(5, 5, Boundary::Dead);
        g.stamp(2, 1, &patterns::BLINKER);
        let one = step(&g);
        assert_ne!(one, g, "phase changes");
        let two = step(&one);
        assert_eq!(two, g, "period 2");
        assert_eq!(one.population(), 3);
    }

    #[test]
    fn toad_oscillates_with_period_2() {
        let mut g = Grid::new(6, 6, Boundary::Dead);
        g.stamp(2, 1, &patterns::TOAD);
        let two = step(&step(&g));
        assert_eq!(two, g);
    }

    #[test]
    fn glider_translates_by_one_diagonal_every_4_gens() {
        let mut g = Grid::new(12, 12, Boundary::Dead);
        g.stamp(1, 1, &patterns::GLIDER);
        let (after, _) = step_generations(&g, 4);
        let mut expected = Grid::new(12, 12, Boundary::Dead);
        expected.stamp(2, 2, &patterns::GLIDER);
        assert_eq!(after, expected);
    }

    #[test]
    fn glider_wraps_on_torus() {
        let mut g = Grid::new(8, 8, Boundary::Torus);
        g.stamp(0, 0, &patterns::GLIDER);
        // 8 * 4 = 32 generations: the glider crosses the board and
        // returns to its starting cells on a torus.
        let (after, _) = step_generations(&g, 32);
        assert_eq!(after, g);
        // Population conserved for a lone glider.
        assert_eq!(after.population(), 5);
    }

    #[test]
    fn empty_board_stays_empty_and_full_board_collapses() {
        let g = Grid::new(8, 8, Boundary::Torus);
        assert_eq!(step(&g).population(), 0);
        let mut full = Grid::new(8, 8, Boundary::Torus);
        for r in 0..8 {
            for c in 0..8 {
                full.set(r, c, true);
            }
        }
        // On a torus every cell has 8 neighbors: all die.
        assert_eq!(step(&full).population(), 0);
    }

    #[test]
    fn lone_cells_die_three_neighbors_birth() {
        let mut g = Grid::new(5, 5, Boundary::Dead);
        g.set(2, 2, true);
        assert_eq!(step(&g).population(), 0, "underpopulation");
        let mut g = Grid::new(5, 5, Boundary::Dead);
        g.set(1, 1, true);
        g.set(1, 3, true);
        g.set(3, 2, true);
        let next = step(&g);
        assert!(next.get(2, 2), "birth on exactly 3 neighbors");
    }

    /// Every shape the kernel must agree with the reference on. In the
    /// 1-wide and 1-tall ones a cell's wrapped neighbours are the cell
    /// itself or coincide; the 1- and 2-row ones give one-row bands and
    /// ranks.
    const SHAPES: [(usize, usize); 9] = [
        (1, 1),
        (1, 2),
        (2, 1),
        (1, 7),
        (7, 1),
        (2, 2),
        (3, 3),
        (5, 8),
        (17, 31),
    ];

    /// Boards of each shape on `boundary`, sparse to full.
    fn boards(boundary: Boundary) -> impl Iterator<Item = Grid> {
        SHAPES.into_iter().flat_map(move |(rows, cols)| {
            [0.3, 0.6, 1.0]
                .into_iter()
                .enumerate()
                .map(move |(seed, density)| {
                    Grid::random(rows, cols, boundary, density, seed as u64)
                })
        })
    }

    /// B3/S23 cell by cell over the reference neighbour count.
    fn reference_step(g: &Grid) -> Grid {
        let mut next = Grid::new(g.rows(), g.cols(), g.boundary());
        for r in 0..g.rows() {
            for c in 0..g.cols() {
                let n = g.neighbors(r, c);
                next.set(r, c, n == 3 || (g.get(r, c) && n == 2));
            }
        }
        next
    }

    #[test]
    fn step_matches_the_reference_rule_on_every_shape() {
        for boundary in [Boundary::Torus, Boundary::Dead] {
            for mut g in boards(boundary) {
                for generation in 0..6 {
                    let next = step(&g);
                    let label = format!("{}x{} {boundary:?}", g.rows(), g.cols());
                    assert_eq!(next, reference_step(&g), "{label} generation {generation}");
                    g = next;
                }
            }
        }
    }

    #[test]
    fn threaded_and_halo_engines_match_step_on_every_shape() {
        use crate::dist::dist_step_generations;
        use crate::parallel::parallel_step_generations;
        let gens = 5;
        for boundary in [Boundary::Torus, Boundary::Dead] {
            for g in boards(boundary) {
                let (rows, cols) = (g.rows(), g.cols());
                let (seq, _) = step_generations(&g, gens);
                for workers in [1, 2, 3, rows, rows + 3] {
                    let (par, _) = parallel_step_generations(&g, gens, workers);
                    assert_eq!(par, seq, "{rows}x{cols} {boundary:?} workers={workers}");
                }
                if boundary == Boundary::Torus {
                    for ranks in [1, 2, rows, rows + 2] {
                        let (dist, _) = dist_step_generations(&g, gens, ranks);
                        assert_eq!(dist, seq, "{rows}x{cols} ranks={ranks}");
                    }
                }
            }
        }
    }

    #[test]
    fn update_count_reported() {
        let g = Grid::new(10, 20, Boundary::Torus);
        let (_, updates) = step_generations(&g, 7);
        assert_eq!(updates, 10 * 20 * 7);
    }
}
