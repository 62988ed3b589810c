//! Distributed Game of Life on `pdc-mpi`: row bands + ghost-row (halo)
//! exchange — the CS87 message-passing version of the CS31 lab, and the
//! "hybrid MPI ray tracer"-style project pattern the paper floats for
//! CS40.
//!
//! Each rank owns a contiguous band of rows of a **torus** board. Every
//! generation, ranks exchange boundary rows with their ring neighbors
//! (two messages per rank), then step their band locally against a
//! (band + 2)-row working buffer. The result is bit-identical to the
//! sequential engine; message counts are exactly `2 · p · generations`.

use crate::grid::{Boundary, Grid};
use pdc_core::trace::TraceSession;
use pdc_mpi::world::{Rank, TrafficStats, World};

const TAG_UP: u32 = 1; // a row traveling toward lower rank ids
const TAG_DOWN: u32 = 2; // a row traveling toward higher rank ids

/// Advance a torus board by `generations` on `ranks` message-passing
/// ranks. Returns the final board and the traffic counters.
///
/// Untraced convenience wrapper around
/// [`dist_step_generations_traced`].
///
/// # Panics
/// Panics if the board is not a torus (bands assume ring wrap), or if
/// `ranks == 0`.
pub fn dist_step_generations(
    grid: &Grid,
    generations: usize,
    ranks: usize,
) -> (Grid, TrafficStats) {
    dist_step_generations_traced(grid, generations, ranks, None)
}

/// [`dist_step_generations`] with optional pdc-trace observability:
/// with `Some(session)`, every rank records its send/recv events as
/// actor `rank.id()` (so `pdc-analyze`'s MPI lint sees the halo
/// exchange), each rank adds its two shipped boundary rows to
/// `life.halo_rows` once per generation, and the generation count lands
/// in `life.generations`. The resulting board is
/// identical either way.
///
/// # Panics
/// Panics if the board is not a torus (bands assume ring wrap), or if
/// `ranks == 0`.
pub fn dist_step_generations_traced(
    grid: &Grid,
    generations: usize,
    ranks: usize,
    session: Option<&TraceSession>,
) -> (Grid, TrafficStats) {
    assert!(
        grid.boundary() == Boundary::Torus,
        "distributed engine is torus-only"
    );
    assert!(ranks > 0, "need at least one rank");
    let rows = grid.rows();
    let cols = grid.cols();
    let p = ranks.min(rows);

    // Band boundaries.
    let base = rows / p;
    let rem = rows % p;
    let mut starts = Vec::with_capacity(p + 1);
    let mut lo = 0;
    for w in 0..p {
        starts.push(lo);
        lo += base + usize::from(w < rem);
    }
    starts.push(rows);

    // Flatten the initial board rows for distribution.
    let all_rows: Vec<Vec<u8>> = (0..rows)
        .map(|r| (0..cols).map(|c| u8::from(grid.get(r, c))).collect())
        .collect();

    if let Some(session) = session {
        session.counter("life.generations").add(generations as u64);
    }

    let (bands, stats) = World::run_opt(p, session, |rank: &mut Rank<Vec<u8>>| {
        let me = rank.id();
        let up = (me + p - 1) % p;
        let down = (me + 1) % p;
        let (r0, r1) = (starts[me], starts[me + 1]);
        let band_rows = r1 - r0;
        // Working buffer: ghost top + band + ghost bottom.
        let mut cur: Vec<Vec<u8>> = Vec::with_capacity(band_rows + 2);
        cur.push(vec![0; cols]); // ghost top (filled per generation)
        for row in &all_rows[r0..r1] {
            cur.push(row.clone());
        }
        cur.push(vec![0; cols]); // ghost bottom

        for _ in 0..generations {
            // Halo exchange: my top row travels up, my bottom row down.
            rank.send(up, TAG_UP, cur[1].clone());
            rank.send(down, TAG_DOWN, cur[band_rows].clone());
            rank.count("life.halo_rows", 2);
            // My ghost-bottom is the down neighbor's top row (tag UP);
            // my ghost-top is the up neighbor's bottom row (tag DOWN).
            let ghost_bottom = rank.recv(down, TAG_UP);
            let ghost_top = rank.recv(up, TAG_DOWN);
            cur[0] = ghost_top;
            cur[band_rows + 1] = ghost_bottom;

            // Step the band.
            let mut next: Vec<Vec<u8>> = vec![vec![0; cols]; band_rows];
            for br in 0..band_rows {
                for c in 0..cols {
                    let mut n = 0u8;
                    for dr in 0..3usize {
                        for dc in [-1i64, 0, 1] {
                            if dr == 1 && dc == 0 {
                                continue;
                            }
                            let rr = br + dr; // index into cur (br+1 is self row)
                            let cc = (c as i64 + dc).rem_euclid(cols as i64) as usize;
                            n += cur[rr][cc];
                        }
                    }
                    let alive = cur[br + 1][c] == 1;
                    next[br][c] = u8::from(n == 3 || (alive && n == 2));
                }
            }
            for (dst, src) in cur[1..=band_rows].iter_mut().zip(next) {
                *dst = src;
            }
        }
        cur[1..=band_rows].to_vec()
    });

    // Assemble.
    let mut out = Grid::new(rows, cols, Boundary::Torus);
    let mut r = 0;
    for band in bands {
        for row in band {
            for (c, &v) in row.iter().enumerate() {
                out.set(r, c, v == 1);
            }
            r += 1;
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::step_generations;
    use crate::grid::patterns;

    #[test]
    fn matches_sequential_for_various_rank_counts() {
        let g = Grid::random(24, 16, Boundary::Torus, 0.4, 77);
        let (seq, _) = step_generations(&g, 8);
        for ranks in [1usize, 2, 3, 4, 6, 8] {
            let (dist, _) = dist_step_generations(&g, 8, ranks);
            assert_eq!(dist, seq, "ranks={ranks}");
        }
    }

    #[test]
    fn glider_crosses_band_boundaries() {
        let mut g = Grid::new(16, 16, Boundary::Torus);
        g.stamp(1, 1, &patterns::GLIDER);
        let (seq, _) = step_generations(&g, 20);
        let (dist, _) = dist_step_generations(&g, 20, 4);
        assert_eq!(dist, seq, "glider must survive halo crossings");
    }

    #[test]
    fn message_count_is_two_per_rank_per_generation() {
        let g = Grid::random(32, 8, Boundary::Torus, 0.3, 5);
        let gens = 6;
        let ranks = 4;
        let (_, stats) = dist_step_generations(&g, gens, ranks);
        assert_eq!(stats.messages, (2 * ranks * gens) as u64);
        // Bytes: each message is one row of `cols` u8s.
        assert_eq!(stats.bytes, (2 * ranks * gens * 8) as u64);
    }

    #[test]
    fn more_ranks_than_rows_clamped() {
        let g = Grid::random(3, 10, Boundary::Torus, 0.5, 2);
        let (seq, _) = step_generations(&g, 5);
        let (dist, _) = dist_step_generations(&g, 5, 16);
        assert_eq!(dist, seq);
    }

    #[test]
    fn single_rank_self_exchange_works() {
        let g = Grid::random(8, 8, Boundary::Torus, 0.5, 31);
        let (seq, _) = step_generations(&g, 4);
        let (dist, _) = dist_step_generations(&g, 4, 1);
        assert_eq!(dist, seq);
    }

    #[test]
    fn traced_run_matches_untraced_and_counts_halo_rows() {
        let g = Grid::random(24, 12, Boundary::Torus, 0.4, 9);
        let (gens, ranks) = (5usize, 3usize);
        let session = TraceSession::new();
        let (traced, _) = dist_step_generations_traced(&g, gens, ranks, Some(&session));
        let (bare, _) = dist_step_generations(&g, gens, ranks);
        assert_eq!(traced, bare, "tracing must not change the board");
        let snap = session.snapshot();
        // Two boundary rows shipped per rank per generation.
        assert_eq!(snap.get("life.halo_rows"), (2 * ranks * gens) as u64);
        assert_eq!(snap.get("life.generations"), gens as u64);
        assert_eq!(snap.get("mpi.msgs"), (2 * ranks * gens) as u64);
        // The halo sends/recvs are in the event stream for the analyzer.
        let events = session.events();
        let sends = events
            .iter()
            .filter(|e| e.kind == pdc_core::trace::EventKind::Send)
            .count();
        assert_eq!(sends, 2 * ranks * gens);
    }

    #[test]
    fn zero_generations_identity() {
        let g = Grid::random(10, 10, Boundary::Torus, 0.5, 4);
        let (dist, stats) = dist_step_generations(&g, 0, 3);
        assert_eq!(dist, g);
        assert_eq!(stats.messages, 0);
    }
}
