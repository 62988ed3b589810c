//! Sequential Life stepping — the baseline of the scalability study.

use crate::grid::Grid;

/// Compute row `r` of the next generation into `out_row`.
///
/// This is the sequential engine's rule. The threaded engine restates
/// it over `AtomicU8` cells (`parallel.rs`, `neighbors_at`) and the
/// distributed engine as an inline stencil over ghost rows (`dist.rs`);
/// digest tests (`life_agrees_across_three_engines`, the scenario
/// backends' agreement) hold all three equal bit for bit.
pub(crate) fn step_row(src: &Grid, r: usize, out_row: &mut [u8]) {
    let cols = src.cols();
    debug_assert_eq!(out_row.len(), cols);
    for (c, out) in out_row.iter_mut().enumerate() {
        let n = src.neighbors(r, c);
        let alive = src.get(r, c);
        // B3/S23.
        *out = u8::from(n == 3 || (alive && n == 2));
    }
}

/// Advance `grid` one generation, returning the new board.
pub fn step(grid: &Grid) -> Grid {
    let mut next = Grid::new(grid.rows(), grid.cols(), grid.boundary());
    for r in 0..grid.rows() {
        let cols = grid.cols();
        step_row(grid, r, &mut next.cells_mut()[r * cols..(r + 1) * cols]);
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

    #[test]
    fn update_count_reported() {
        let g = Grid::new(10, 20, Boundary::Torus);
        let (_, updates) = step_generations(&g, 7);
        assert_eq!(updates, 10 * 20 * 7);
    }
}
