//! The α–β (latency–bandwidth) cost model for collectives.
//!
//! Sending an `n`-byte message costs `α + β·n`. The formulas below are
//! the per-algorithm costs CS87 derives on the board; the benches check
//! the *message counts* against the implementations in [`crate::coll`]
//! and use these to print modeled-time tables.

/// Model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaBeta {
    /// Per-message latency (seconds).
    pub alpha: f64,
    /// Per-byte transfer time (seconds/byte).
    pub beta: f64,
}

impl AlphaBeta {
    /// A cluster-like parameterization (1 µs latency, 10 GB/s).
    pub fn cluster() -> Self {
        AlphaBeta {
            alpha: 1e-6,
            beta: 1e-10,
        }
    }

    /// Time for one `n`-byte point-to-point message.
    pub fn p2p(&self, n: u64) -> f64 {
        self.alpha + self.beta * n as f64
    }

    /// The small-message coalescing threshold `n* = α/β`, in bytes: a
    /// message of `n` bytes is latency-dominated — `α > n·β` — exactly
    /// while `n < n*`, so batching it amortizes α at negligible cost;
    /// past `n*` the transfer term dominates and batching buys nothing.
    /// The `e-batch` bench prints it as the crossover it measures.
    pub fn coalesce_threshold(&self) -> u64 {
        (self.alpha / self.beta) as u64
    }

    /// Modeled time for `k` separate `n`-byte messages: `k(α + βn)`.
    pub fn p2p_many(&self, k: u64, n: u64) -> f64 {
        k as f64 * self.p2p(n)
    }

    /// Modeled time for the same `k·n` bytes shipped as one coalesced
    /// message: `α + β·k·n`. The ratio `p2p_many / p2p_coalesced`
    /// approaches `k` for `n ≪ n*` and `1` for `n ≫ n*` — the crossover
    /// the `e-batch` bench measures on real sockets.
    pub fn p2p_coalesced(&self, k: u64, n: u64) -> f64 {
        self.p2p(k * n)
    }

    /// The same message relayed through `hops` store-and-forward hops:
    /// each hop pays the full per-message setup, so α scales with the
    /// hop count, while bytes pipeline through intermediate buffers and
    /// β stays put. A star-routed wire world is the mesh's model with
    /// `with_hops(2)` — child→parent plus parent→child per message —
    /// which pushes the coalescing threshold `n* = α/β` up by the hop
    /// count: batching pays off over a longer range exactly when the
    /// topology taxes every message twice.
    pub fn with_hops(&self, hops: u64) -> AlphaBeta {
        AlphaBeta {
            alpha: self.alpha * hops as f64,
            beta: self.beta,
        }
    }
}

fn ceil_log2(p: u64) -> u64 {
    assert!(p >= 1);
    (64 - (p - 1).leading_zeros()) as u64
}

/// Binomial broadcast of `n` bytes among `p` ranks:
/// `⌈log₂ p⌉ · (α + βn)` (critical path).
pub fn broadcast_time(m: AlphaBeta, p: u64, n: u64) -> f64 {
    ceil_log2(p) as f64 * m.p2p(n)
}

/// Messages sent by the binomial broadcast.
pub fn broadcast_msgs(p: u64) -> u64 {
    p - 1
}

/// Linear (root-sends-all) broadcast: `(p−1)(α + βn)` — the baseline the
/// tree beats.
pub fn broadcast_linear_time(m: AlphaBeta, p: u64, n: u64) -> f64 {
    (p - 1) as f64 * m.p2p(n)
}

/// Binomial reduce: same shape as broadcast.
pub fn reduce_time(m: AlphaBeta, p: u64, n: u64) -> f64 {
    broadcast_time(m, p, n)
}

/// Reduce+broadcast allreduce: `2⌈log₂ p⌉(α + βn)` critical path,
/// `2(p−1)` messages.
pub fn allreduce_time(m: AlphaBeta, p: u64, n: u64) -> f64 {
    2.0 * ceil_log2(p) as f64 * m.p2p(n)
}

/// Messages sent by reduce+broadcast allreduce.
pub fn allreduce_msgs(p: u64) -> u64 {
    2 * (p - 1)
}

/// Dissemination barrier: `⌈log₂ p⌉` rounds on the critical path,
/// `p·⌈log₂ p⌉` messages.
pub fn barrier_time(m: AlphaBeta, p: u64) -> f64 {
    ceil_log2(p) as f64 * m.p2p(0)
}

/// Messages sent by the dissemination barrier.
pub fn barrier_msgs(p: u64) -> u64 {
    p * ceil_log2(p)
}

/// Ring allgather of `n` bytes per rank: `(p−1)(α + βn)` critical path,
/// `p(p−1)` messages.
pub fn allgather_ring_time(m: AlphaBeta, p: u64, n: u64) -> f64 {
    (p - 1) as f64 * m.p2p(n)
}

/// Messages sent by the ring allgather.
pub fn allgather_msgs(p: u64) -> u64 {
    p * (p - 1)
}

/// Linear scan chain: `(p−1)(α + βn)` critical path.
pub fn scan_chain_time(m: AlphaBeta, p: u64, n: u64) -> f64 {
    (p - 1) as f64 * m.p2p(n)
}

/// All-to-all (direct): `p(p−1)` messages; with full bisection we model
/// the critical path as `(p−1)(α + βn)`.
pub fn alltoall_time(m: AlphaBeta, p: u64, n: u64) -> f64 {
    (p - 1) as f64 * m.p2p(n)
}

/// Ring allreduce of `n` bytes among `p` ranks: `2(p−1)` rounds of
/// `n/p`-byte messages — `2(p−1)(α + β·n/p)` critical path. For large
/// `n` this approaches `2βn`, beating the tree's `2βn·log₂ p`.
pub fn ring_allreduce_time(m: AlphaBeta, p: u64, n: u64) -> f64 {
    if p == 1 {
        return 0.0;
    }
    2.0 * (p - 1) as f64 * m.p2p(n / p)
}

/// Messages sent by the ring allreduce.
pub fn ring_allreduce_msgs(p: u64) -> u64 {
    2 * p * (p - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_linear_in_size() {
        let m = AlphaBeta {
            alpha: 1.0,
            beta: 0.5,
        };
        assert_eq!(m.p2p(0), 1.0);
        assert_eq!(m.p2p(10), 6.0);
    }

    #[test]
    fn tree_beats_linear_broadcast_for_large_p() {
        let m = AlphaBeta::cluster();
        for p in [4u64, 16, 64, 256] {
            assert!(broadcast_time(m, p, 1024) < broadcast_linear_time(m, p, 1024));
        }
        // At p = 2 they coincide.
        assert_eq!(broadcast_time(m, 2, 64), broadcast_linear_time(m, 2, 64));
    }

    #[test]
    fn message_count_formulas() {
        assert_eq!(broadcast_msgs(8), 7);
        assert_eq!(allreduce_msgs(8), 14);
        assert_eq!(barrier_msgs(8), 24);
        assert_eq!(allgather_msgs(8), 56);
    }

    #[test]
    fn costs_scale_logarithmically_for_trees() {
        let m = AlphaBeta::cluster();
        let t16 = broadcast_time(m, 16, 8);
        let t256 = broadcast_time(m, 256, 8);
        assert!((t256 / t16 - 2.0).abs() < 1e-9, "log2(256)/log2(16) = 2");
    }

    #[test]
    fn ring_beats_tree_for_large_messages() {
        let m = AlphaBeta::cluster();
        let p = 64;
        let big = 1 << 30; // 1 GiB
        assert!(ring_allreduce_time(m, p, big) < allreduce_time(m, p, big) / 4.0);
        // But for tiny messages, latency dominates and the tree wins.
        assert!(ring_allreduce_time(m, p, 8) > allreduce_time(m, p, 8));
    }

    #[test]
    fn coalesce_threshold_is_alpha_over_beta() {
        assert_eq!(AlphaBeta::cluster().coalesce_threshold(), 10_000);
        let m = AlphaBeta {
            alpha: 80.0,
            beta: 1.0,
        };
        assert_eq!(m.coalesce_threshold(), 80);
    }

    #[test]
    fn batching_wins_below_threshold_only() {
        let m = AlphaBeta::cluster();
        let k = 100;
        // Far below n*: latency dominates, coalescing ≈ k× faster.
        let tiny = 8;
        assert!(m.p2p_many(k, tiny) / m.p2p_coalesced(k, tiny) > 0.9 * k as f64);
        // Far above n*: bandwidth dominates, coalescing ≈ no gain.
        let huge = m.coalesce_threshold() * 1000;
        assert!(m.p2p_many(k, huge) / m.p2p_coalesced(k, huge) < 1.01);
        // The model's own crossover: at n = n*, one message costs 2α,
        // so batching saves exactly half — the midpoint of the regimes.
        let ratio =
            m.p2p_many(k, m.coalesce_threshold()) / m.p2p_coalesced(k, m.coalesce_threshold());
        assert!((1.5..=2.5).contains(&ratio), "ratio at n*: {ratio}");
    }

    #[test]
    fn large_messages_dominated_by_beta() {
        let m = AlphaBeta::cluster();
        let small = broadcast_time(m, 8, 1);
        let large = broadcast_time(m, 8, 100_000_000);
        assert!(large > small * 100.0);
    }

    #[test]
    fn star_double_hop_doubles_the_coalescing_threshold() {
        let mesh = AlphaBeta::cluster();
        let star = mesh.with_hops(2);
        assert_eq!(star.alpha, 2.0 * mesh.alpha, "α paid per hop");
        assert_eq!(star.beta, mesh.beta, "bytes pipeline; β unchanged");
        assert_eq!(
            star.coalesce_threshold(),
            2 * mesh.coalesce_threshold(),
            "two-hop routing widens the latency-dominated regime"
        );
        // Identity case: one hop is the model itself.
        assert_eq!(mesh.with_hops(1), mesh);
    }
}
