//! The Life board: storage, boundaries, patterns.

use pdc_core::rng::Rng;

/// Boundary condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Wrap-around (the CS31 lab default).
    Torus,
    /// Cells beyond the edge are permanently dead.
    Dead,
}

/// A Life board.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    rows: usize,
    cols: usize,
    boundary: Boundary,
    cells: Vec<u8>, // 0 or 1; u8 keeps neighbor sums branch-free
}

impl Grid {
    /// An empty `rows × cols` board.
    ///
    /// # Panics
    /// Panics on a zero dimension.
    pub fn new(rows: usize, cols: usize, boundary: Boundary) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        Grid {
            rows,
            cols,
            boundary,
            cells: vec![0; rows * cols],
        }
    }

    /// A board randomly filled with live-cell `density` in `[0, 1]`.
    pub fn random(rows: usize, cols: usize, boundary: Boundary, density: f64, seed: u64) -> Self {
        let mut g = Grid::new(rows, cols, boundary);
        let mut rng = Rng::new(seed);
        for c in g.cells.iter_mut() {
            *c = u8::from(rng.chance(density));
        }
        g
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Boundary condition.
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// Is the cell at `(r, c)` alive?
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(
            r < self.rows && c < self.cols,
            "cell ({r},{c}) out of range"
        );
        self.cells[r * self.cols + c] == 1
    }

    /// Set the cell at `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, alive: bool) {
        assert!(
            r < self.rows && c < self.cols,
            "cell ({r},{c}) out of range"
        );
        self.cells[r * self.cols + c] = u8::from(alive);
    }

    /// Number of live cells.
    pub fn population(&self) -> usize {
        self.cells.iter().map(|&c| c as usize).sum()
    }

    /// Raw row-major cell bytes (for engines).
    pub(crate) fn cells(&self) -> &[u8] {
        &self.cells
    }

    /// Raw mutable cell bytes (for engines).
    pub(crate) fn cells_mut(&mut self) -> &mut [u8] {
        &mut self.cells
    }

    /// Live-neighbor count of `(r, c)` under the boundary rule.
    ///
    /// A per-cell reference: the engines step whole rows through
    /// `engine::step_row`, and the tests hold that kernel to B3/S23
    /// over this count.
    pub fn neighbors(&self, r: usize, c: usize) -> u8 {
        let mut count = 0u8;
        for dr in [-1i64, 0, 1] {
            for dc in [-1i64, 0, 1] {
                if dr == 0 && dc == 0 {
                    continue;
                }
                let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                let alive = match self.boundary {
                    Boundary::Torus => {
                        let nr = nr.rem_euclid(self.rows as i64) as usize;
                        let nc = nc.rem_euclid(self.cols as i64) as usize;
                        self.cells[nr * self.cols + nc]
                    }
                    Boundary::Dead => {
                        if nr < 0 || nc < 0 || nr >= self.rows as i64 || nc >= self.cols as i64 {
                            0
                        } else {
                            self.cells[nr as usize * self.cols + nc as usize]
                        }
                    }
                };
                count += alive;
            }
        }
        count
    }

    /// Stamp a pattern (list of live `(r, c)` offsets) at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the pattern exceeds the board.
    pub fn stamp(&mut self, r0: usize, c0: usize, pattern: &[(usize, usize)]) {
        for &(dr, dc) in pattern {
            self.set(r0 + dr, c0 + dc, true);
        }
    }

    /// Render as `.`/`#` text (small boards, tests and demos).
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(self.rows * (self.cols + 1));
        for r in 0..self.rows {
            for c in 0..self.cols {
                s.push(if self.get(r, c) { '#' } else { '.' });
            }
            s.push('\n');
        }
        s
    }
}

/// Classic patterns as `(row, col)` offsets.
pub mod patterns {
    /// Period-2 oscillator.
    pub const BLINKER: [(usize, usize); 3] = [(0, 0), (0, 1), (0, 2)];
    /// Still life.
    pub const BLOCK: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];
    /// The glider (moves one cell diagonally every 4 generations).
    pub const GLIDER: [(usize, usize); 5] = [(0, 1), (1, 2), (2, 0), (2, 1), (2, 2)];
    /// Period-2 oscillator (two phases non-symmetric).
    pub const TOAD: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2)];
    /// Methuselah: stabilizes after 1103 generations (unbounded board).
    pub const R_PENTOMINO: [(usize, usize); 5] = [(0, 1), (0, 2), (1, 0), (1, 1), (2, 1)];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_population() {
        let mut g = Grid::new(4, 5, Boundary::Dead);
        assert_eq!(g.population(), 0);
        g.set(0, 0, true);
        g.set(3, 4, true);
        assert!(g.get(0, 0) && g.get(3, 4));
        assert_eq!(g.population(), 2);
        g.set(0, 0, false);
        assert_eq!(g.population(), 1);
    }

    #[test]
    fn neighbor_counts_dead_boundary() {
        let mut g = Grid::new(3, 3, Boundary::Dead);
        g.stamp(0, 0, &patterns::BLOCK);
        // Corner of the block: 3 neighbors; far corner of board: 1.
        assert_eq!(g.neighbors(0, 0), 3);
        assert_eq!(g.neighbors(2, 2), 1);
        // Edge cells see nothing beyond the board.
        assert_eq!(g.neighbors(0, 2), 2);
    }

    #[test]
    fn neighbor_counts_torus_wrap() {
        let mut g = Grid::new(4, 4, Boundary::Torus);
        g.set(0, 0, true);
        // Wrapped neighbors of the opposite corner see it.
        assert_eq!(g.neighbors(3, 3), 1);
        assert_eq!(g.neighbors(0, 3), 1);
        assert_eq!(g.neighbors(3, 0), 1);
    }

    #[test]
    fn random_density_approximate() {
        let g = Grid::random(100, 100, Boundary::Torus, 0.3, 42);
        let frac = g.population() as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "density {frac}");
    }

    #[test]
    fn random_is_seed_deterministic() {
        let a = Grid::random(32, 32, Boundary::Torus, 0.5, 7);
        let b = Grid::random(32, 32, Boundary::Torus, 0.5, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn render_shape() {
        let mut g = Grid::new(2, 3, Boundary::Dead);
        g.set(0, 1, true);
        assert_eq!(g.render(), ".#.\n...\n");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Grid::new(2, 2, Boundary::Dead).get(2, 0);
    }
}
