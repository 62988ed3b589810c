//! PageRank-flavored iterative shuffle behind the scenario seam.
//!
//! The curriculum's iterative-dataflow example: a fixed number of
//! rounds, each round scattering per-edge contributions and gathering
//! them by destination — the workload whose *shape* (rounds of
//! all-to-all) motivates bulk-synchronous systems. `size` is the node
//! count; the graph is seeded with [`OUT_DEGREE`] out-edges per node.
//!
//! All arithmetic is fixed-point `u64` (scaled by [`SCALE`]) so every
//! backend — and every summation order — produces bit-identical ranks:
//!
//! * **Sequential** — one scatter/gather loop per round.
//! * **Threads** — the per-round scatter fans out over the
//!   work-stealing pool; partial contribution vectors merge by
//!   commutative integer addition.
//! * **Mpi** — each round's contributions ride the sharded KV as
//!   `Put("dst:src", amount)` batches (one world run per round — a
//!   genuine multi-round shuffle), and the gathered state is summed by
//!   destination.
//!
//! The declared asymptotics are the textbook ones for a
//! constant-degree graph: work Θ(rounds·n) and span Θ(rounds·log n)
//! (each round's gather is a parallel reduce tree), published via
//! [`declared_bounds`] for the span gate's curve fit.

use crate::sharded::{run_local_traced, ShardOp};
use pdc_core::rng::Rng;
use pdc_core::scenario::{Backend, Digest, Outcome, Scenario, ScenarioCtx};
use pdc_core::trace::record_steps;
use pdc_core::workspan::{Bounds, Theta};
use pdc_threads::pool::{pool_map, WorkStealingPool};
use std::fmt::Write;
use std::sync::Arc;

/// Out-edges per node in the seeded graph.
pub const OUT_DEGREE: usize = 4;
/// Iteration count — a constant of the algorithm configuration, so it
/// appears in the declared span class, not the problem size.
pub const ROUNDS: usize = 8;
/// Fixed-point scale for rank mass.
pub const SCALE: u64 = 1 << 20;
/// Damping factor as a fixed-point fraction: 0.85 ≈ 871/1024.
const DAMP_NUM: u64 = 871;
const DAMP_DEN: u64 = 1024;
/// Length of a shuffle key `dst:src:slot` (`{:08}:{:08}:{}`).
const EDGE_KEY_LEN: usize = 19;

/// Declared asymptotic bounds of the iterative shuffle — the registry
/// entry the span gate curve-fits measured sweeps against.
pub fn declared_bounds() -> Bounds {
    Bounds::new(
        Theta::Linear,
        Theta::RoundsLog {
            rounds: ROUNDS as u64,
        },
    )
}

/// Seeded constant-degree digraph: `edges[v]` are `v`'s out-neighbors.
pub fn gen_graph(seed: u64, n: usize) -> Vec<[usize; OUT_DEGREE]> {
    let mut rng = Rng::new(seed ^ 0x9a6e_7a9e);
    (0..n)
        .map(|v| {
            let mut out = [0usize; OUT_DEGREE];
            for slot in &mut out {
                // Self-loops allowed; they just return mass to v.
                *slot = rng.usize_in(0, n - 1);
                debug_assert!(*slot < n, "edge target in range for node {v}");
            }
            out
        })
        .collect()
}

/// The damped per-edge contribution of a node holding `rank` mass.
fn edge_contribution(rank: u64) -> u64 {
    rank * DAMP_NUM / DAMP_DEN / OUT_DEGREE as u64
}

/// One round's teleport base: `(1 - d) · SCALE` per node.
fn base_mass() -> u64 {
    SCALE - SCALE * DAMP_NUM / DAMP_DEN
}

/// Reference implementation: `ROUNDS` scatter/gather rounds, one step
/// of attributed work per edge per round.
pub fn ranks_sequential(graph: &[[usize; OUT_DEGREE]]) -> Vec<u64> {
    let n = graph.len();
    let mut ranks = vec![SCALE; n];
    for _ in 0..ROUNDS {
        let mut next = vec![base_mass(); n];
        for (v, out) in graph.iter().enumerate() {
            let c = edge_contribution(ranks[v]);
            for &dst in out {
                next[dst] += c;
            }
        }
        record_steps((n * OUT_DEGREE) as u64);
        ranks = next;
    }
    ranks
}

/// Threaded scatter: each round fans node ranges over the pool; every
/// range produces a partial contribution vector and the (commutative,
/// integer) merge keeps the result identical to [`ranks_sequential`].
/// The graph is shared once per run and each round's ranks move into
/// that round's `Arc`, so no round copies either.
pub fn ranks_pooled(graph: &[[usize; OUT_DEGREE]], pool: &WorkStealingPool) -> Vec<u64> {
    let n = graph.len();
    let graph: Arc<[[usize; OUT_DEGREE]]> = Arc::from(graph);
    let workers = pool.workers().max(1);
    let chunk = n.div_ceil(workers).max(1);
    let mut ranks = vec![SCALE; n];
    for _ in 0..ROUNDS {
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(chunk)
            .map(|lo| (lo, (lo + chunk).min(n)))
            .collect();
        let ranks_in = Arc::new(std::mem::take(&mut ranks));
        let partials = pool_map(pool, ranges, {
            let graph = Arc::clone(&graph);
            move |(lo, hi)| {
                let mut partial = vec![0u64; n];
                for (out, &rank) in graph[lo..hi].iter().zip(&ranks_in[lo..hi]) {
                    let c = edge_contribution(rank);
                    for &dst in out {
                        partial[dst] += c;
                    }
                }
                record_steps(((hi - lo) * OUT_DEGREE) as u64);
                partial
            }
        });
        let mut next = vec![base_mass(); n];
        for partial in partials {
            for (acc, p) in next.iter_mut().zip(partial) {
                *acc += p;
            }
        }
        ranks = next;
    }
    ranks
}

/// Sharded-KV scatter: each round turns every edge contribution into a
/// `Put("dst:src", amount)` routed through [`crate::sharded`] (one
/// world run per round), then gathers the returned state by
/// destination. The KV is the shuffle medium; the sums stay exact.
pub fn ranks_sharded(
    graph: &[[usize; OUT_DEGREE]],
    shards: usize,
    ctx: &ScenarioCtx<'_>,
) -> Vec<u64> {
    let n = graph.len();
    let mut ranks = vec![SCALE; n];
    for _ in 0..ROUNDS {
        let ops: Vec<ShardOp> = graph
            .iter()
            .enumerate()
            .flat_map(|(v, out)| {
                let c = edge_contribution(ranks[v]);
                out.iter().enumerate().map(move |(slot, &dst)| {
                    let mut key = String::with_capacity(EDGE_KEY_LEN);
                    write!(key, "{dst:08}:{v:08}:{slot}").expect("writing to a String");
                    ShardOp::Put {
                        key,
                        val: c.to_string(),
                    }
                })
            })
            .collect();
        ctx.session
            .counter("pagerank.shuffled_contributions")
            .add(ops.len() as u64);
        let (state, _traffic) = run_local_traced(shards, ops, true, ctx.session);
        let mut next = vec![base_mass(); n];
        for (key, (val, _ver)) in &state {
            let dst: usize = key[..8].parse().expect("key minted as dst:src:slot");
            next[dst] += val.parse::<u64>().expect("value minted as u64");
        }
        record_steps((n * OUT_DEGREE) as u64);
        ranks = next;
    }
    ranks
}

/// Digest a rank vector.
pub fn digest_ranks(ranks: &[u64]) -> u64 {
    let mut d = Digest::new();
    d.write_u64(ranks.len() as u64);
    for r in ranks {
        d.write_u64(*r);
    }
    d.finish()
}

/// The iterative multi-round shuffle on sequential / threads /
/// sharded-KV backends.
pub struct PageRankScenario;

impl Scenario for PageRankScenario {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn backends(&self) -> Vec<Backend> {
        vec![
            Backend::Sequential,
            Backend::Threads { workers: 4 },
            Backend::Mpi {
                ranks: 3,
                wire: false,
            },
        ]
    }

    fn run(&self, backend: &Backend, ctx: &ScenarioCtx<'_>) -> Outcome {
        let graph = gen_graph(ctx.seed, ctx.size);
        let ranks = match backend {
            Backend::Sequential => ranks_sequential(&graph),
            Backend::Threads { workers } => {
                let pool = WorkStealingPool::with_trace(*workers, ctx.session.clone());
                ranks_pooled(&graph, &pool)
            }
            Backend::Mpi { ranks, wire: false } => ranks_sharded(&graph, *ranks, ctx),
            other => panic!("pagerank scenario does not support {other}"),
        };
        // Total mass is conserved up to truncation; expose it as the
        // sanity row the gate's tables report.
        let mass: u64 = ranks.iter().sum();
        Outcome {
            digest: digest_ranks(&ranks),
            items: ctx.size as u64,
            detail: format!("rounds={ROUNDS} mass={mass}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_core::scenario::{run_scenario, AnalyzeVerdict, ScenarioConfig};
    use pdc_core::trace::TraceSession;

    fn no_analyzer(_: &TraceSession) -> AnalyzeVerdict {
        AnalyzeVerdict {
            clean: true,
            defects: 0,
            events: 0,
        }
    }

    #[test]
    fn all_backends_agree_bit_for_bit() {
        let cfg = ScenarioConfig::new(77, &[12, 40]);
        let report = run_scenario(&PageRankScenario, &cfg, &no_analyzer);
        assert_eq!(report.runs.len(), 6);
        assert!(report.outcomes_agree(), "{:?}", report.mismatches());
        assert!(report.rows_valid());
    }

    #[test]
    fn mass_is_approximately_conserved() {
        let graph = gen_graph(3, 100);
        let ranks = ranks_sequential(&graph);
        let total: u64 = ranks.iter().sum();
        let ideal = 100 * SCALE;
        // Truncation only loses mass, never creates it, and the loss is
        // bounded by a few units per edge per round.
        assert!(total <= ideal);
        assert!(total > ideal - (ROUNDS * 100 * OUT_DEGREE * 4) as u64);
    }

    #[test]
    fn hub_nodes_accumulate_rank() {
        // A graph where everyone points at node 0 must rank it highest.
        let n = 32usize;
        let graph: Vec<[usize; OUT_DEGREE]> = (0..n).map(|_| [0usize; OUT_DEGREE]).collect();
        let ranks = ranks_sequential(&graph);
        let max = *ranks.iter().max().unwrap();
        assert_eq!(ranks[0], max);
        assert!(ranks[0] > ranks[1] * 10, "hub dominates: {ranks:?}");
    }

    #[test]
    fn graph_is_deterministic_and_seed_sensitive() {
        assert_eq!(gen_graph(5, 20), gen_graph(5, 20));
        assert_ne!(gen_graph(5, 20), gen_graph(6, 20));
    }

    #[test]
    fn declared_bounds_have_the_issue_shape() {
        let b = declared_bounds();
        assert_eq!(b.work, Theta::Linear);
        assert_eq!(
            b.span,
            Theta::RoundsLog {
                rounds: ROUNDS as u64
            }
        );
    }

    #[test]
    fn traced_sequential_run_attributes_one_step_per_edge_per_round() {
        use pdc_core::trace::{self, EventKind, MARK_STEPS};
        let session = TraceSession::with_capacity(1 << 12);
        let prev = trace::install_sync_trace(session.thread(900));
        let graph = gen_graph(8, 50);
        ranks_sequential(&graph);
        match prev {
            Some(p) => {
                trace::install_sync_trace(p);
            }
            None => {
                trace::clear_sync_trace();
            }
        }
        let total: u64 = session
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Mark && e.a == MARK_STEPS)
            .map(|e| e.b)
            .sum();
        assert_eq!(total, (ROUNDS * 50 * OUT_DEGREE) as u64);
    }
}
