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
//! * **Threads** — each work-stealing pool task owns one block of
//!   source nodes and its own partial contribution vectors for the
//!   whole run. A round's task first sums its block's ranks out of every
//!   task's partial from the round before, then scatters its block's
//!   contributions into its own partial: no round allocates a partial
//!   or merges them on the caller, and integer sums in any order are
//!   exact.
//! * **Mpi** — bulk-synchronous supersteps (Valiant's BSP) in one
//!   world of `p` ranks. Rank `r` owns the node block
//!   `[r·n/p, (r+1)·n/p)`. Each of the [`ROUNDS`] supersteps is a local
//!   scatter of the rank's own sources into one n-long partial vector,
//!   one [`coll::alltoall`] that hands destination block `s` to its
//!   owner `s` (a reduce-scatter: each rank receives only its own
//!   block), and a local sum. A final [`coll::gather`] to rank 0
//!   returns the blocks in rank order. In α–β terms a superstep costs
//!   [`alltoall_time`](pdc_mpi::cost::alltoall_time)`(m, p, 8⌈n/p⌉)`:
//!   p(p − 1) messages of one block each, whatever the edge count,
//!   where routing the same round through the sharded KV paid one
//!   string `Put` per edge.
//!
//! The declared asymptotics are the textbook ones for a
//! constant-degree graph: work Θ(rounds·n) and span Θ(rounds·log n)
//! (each round's gather is a parallel reduce tree), published via
//! [`declared_bounds`] for the span gate's curve fit.

use pdc_core::rng::Rng;
use pdc_core::scenario::{Backend, Digest, Outcome, Scenario, ScenarioCtx};
use pdc_core::trace::{record_steps, TraceSession};
use pdc_core::workspan::{Bounds, Theta};
use pdc_mpi::coll;
use pdc_mpi::world::{Rank, World};
use pdc_threads::pool::{pool_map, WorkStealingPool};
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
                *slot = rng.usize_in(0, n);
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

/// Threaded scatter with owner blocks: each pool task owns the source
/// nodes `[lo, lo + chunk)` and, for the whole run, two n-long partial
/// contribution vectors that alternate by round. In a round, the task
/// sums its nodes' ranks out of every task's partial from the round
/// before, then scatters their contributions into its own partial, so
/// the gather runs on the pool too. The caller only hands the
/// round's partials on, as one shared `Arc`, and sums them once after
/// the last round. Integer sums in any order keep the result identical
/// to [`ranks_sequential`], and each task marks its block's out-edges,
/// so a round's marks add up to `n·OUT_DEGREE`.
pub fn ranks_pooled(graph: &[[usize; OUT_DEGREE]], pool: &WorkStealingPool) -> Vec<u64> {
    let n = graph.len();
    let graph: Arc<[[usize; OUT_DEGREE]]> = Arc::from(graph);
    let chunk = n.div_ceil(pool.workers().max(1)).max(1);
    let blocks: Vec<usize> = (0..n).step_by(chunk).collect();
    let gather =
        |partials: &[Vec<u64>], v: usize| base_mass() + partials.iter().map(|p| p[v]).sum::<u64>();
    let mut spare: Vec<Vec<u64>> = blocks.iter().map(|_| vec![0; n]).collect();
    let mut last: Arc<Vec<Vec<u64>>> = Arc::new(spare.clone());
    for round in 0..ROUNDS {
        let tasks: Vec<(usize, Vec<u64>)> = blocks.iter().copied().zip(spare).collect();
        let scattered = pool_map(pool, tasks, {
            let graph = Arc::clone(&graph);
            let last = Arc::clone(&last);
            move |(lo, mut partial)| {
                let hi = (lo + chunk).min(n);
                partial.fill(0);
                for (v, out) in (lo..hi).zip(&graph[lo..hi]) {
                    let rank = if round == 0 { SCALE } else { gather(&last, v) };
                    let c = edge_contribution(rank);
                    for &dst in out {
                        partial[dst] += c;
                    }
                }
                record_steps(((hi - lo) * OUT_DEGREE) as u64);
                partial
            }
        });
        // The tasks have dropped their handles on `last`, so its
        // partials come back without a copy as the next round's spares.
        spare = Arc::unwrap_or_clone(std::mem::replace(&mut last, Arc::new(scattered)));
    }
    (0..n).map(|v| gather(&last, v)).collect()
}

/// Bulk-synchronous supersteps on a traced world of `p` ranks (see the
/// module doc): rank `r` owns the nodes `[r·n/p, (r+1)·n/p)`, and each
/// round is a local scatter, one alltoall of the destination blocks and
/// a local sum. Ranks record their own steps, so the marks of one round
/// add up to the sequential `n·OUT_DEGREE`. Blocks may be empty when
/// `p > n`.
///
/// # Panics
/// Panics if `p == 0`.
pub fn ranks_bsp(graph: &[[usize; OUT_DEGREE]], p: usize, session: &TraceSession) -> Vec<u64> {
    let n = graph.len();
    let block = |r: usize| r * n / p..(r + 1) * n / p;
    let (mut gathered, _) = World::run_traced(p, session, |rank: &mut Rank<Vec<u64>>| {
        let mine = block(rank.id());
        let sources = &graph[mine.clone()];
        let mut ranks = vec![SCALE; mine.len()];
        let mut partial = vec![0u64; n];
        for _ in 0..ROUNDS {
            partial.fill(0);
            for (out, &mass) in sources.iter().zip(&ranks) {
                let c = edge_contribution(mass);
                for &dst in out {
                    partial[dst] += c;
                }
            }
            record_steps((mine.len() * OUT_DEGREE) as u64);
            let blocks = (0..p).map(|s| partial[block(s)].to_vec()).collect();
            ranks.fill(base_mass());
            for received in coll::alltoall(rank, blocks) {
                for (acc, c) in ranks.iter_mut().zip(received) {
                    *acc += c;
                }
            }
        }
        coll::gather(rank, 0, ranks)
    });
    gathered
        .swap_remove(0)
        .expect("rank 0 is the gather's root")
        .concat()
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
/// message-passing (BSP) backends.
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
            Backend::Mpi { ranks, wire: false } => ranks_bsp(&graph, *ranks, ctx.session),
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
        // The BSP backend at every world size, empty blocks (p > n)
        // included, and the pooled backend at every worker count.
        let pools: Vec<WorkStealingPool> = [1, 2, 3, 5].map(WorkStealingPool::new).into();
        for n in [0, 1, 2, 3, 7, 64, 512] {
            let graph = gen_graph(77, n);
            let want = digest_ranks(&ranks_sequential(&graph));
            for p in [1, 2, 3, 5] {
                let got = digest_ranks(&ranks_bsp(&graph, p, &TraceSession::new()));
                assert_eq!(got, want, "p={p} n={n}");
            }
            for pool in &pools {
                let got = digest_ranks(&ranks_pooled(&graph, pool));
                assert_eq!(got, want, "workers={} n={n}", pool.workers());
            }
        }
    }

    #[test]
    fn pooled_rounds_mark_one_step_per_edge_on_the_pool() {
        use pdc_core::trace::{EventKind, MARK_STEPS};
        let n = 300;
        let graph = gen_graph(8, n);
        let session = TraceSession::new();
        let pool = WorkStealingPool::with_trace(3, session.clone());
        ranks_pooled(&graph, &pool);
        let marks: Vec<u64> = session
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Mark && e.a == MARK_STEPS)
            .map(|e| e.b)
            .collect();
        // One mark per task per round, n·OUT_DEGREE per round. Events
        // sort by the session's logical clock, and a round's tasks all
        // finish before the next round's start, so the marks come in
        // rounds.
        assert_eq!(marks.len(), ROUNDS * 3, "{marks:?}");
        assert_eq!(marks.iter().sum::<u64>(), (ROUNDS * n * OUT_DEGREE) as u64);
        for round in marks.chunks(3) {
            assert_eq!(
                round.iter().sum::<u64>(),
                (n * OUT_DEGREE) as u64,
                "{marks:?}"
            );
        }
    }

    #[test]
    fn bsp_runs_one_alltoall_per_round_on_p_parallel_strands() {
        use pdc_core::trace::{EventKind, MARK_STEPS};
        let n = 512;
        let graph = gen_graph(8, n);
        for (p, msgs) in [(2, 17), (3, 50)] {
            let session = TraceSession::new();
            ranks_bsp(&graph, p, &session);
            let snap = session.snapshot();
            assert_eq!(msgs, ROUNDS * p * (p - 1) + (p - 1));
            assert_eq!(snap.get("mpi.msgs"), msgs as u64, "p={p}");
            assert_eq!(snap.get("coll.alltoall"), (ROUNDS * p) as u64, "p={p}");
            let mut steps = vec![0u64; p];
            for e in session.events() {
                if e.kind == EventKind::Mark && e.a == MARK_STEPS {
                    let actor = e.actor as usize;
                    assert!(actor < p, "steps marked by actor {actor}, not a rank");
                    steps[actor] += e.b;
                }
            }
            let own_edges = |r: usize| ((r + 1) * n / p - r * n / p) * OUT_DEGREE;
            let want: Vec<u64> = (0..p).map(|r| (ROUNDS * own_edges(r)) as u64).collect();
            assert_eq!(steps, want, "p={p}");
            assert_eq!(steps.iter().sum::<u64>(), (ROUNDS * n * OUT_DEGREE) as u64);
            // The alltoall joins the rank strands once per superstep, so
            // the span is about one block's work per round.
            let parallelism = pdc_analyze::analyze_span_session(&session).parallelism();
            assert!(
                parallelism >= p as f64 - 0.5,
                "parallelism {parallelism:.2} at p={p}"
            );
        }
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
    fn every_node_can_receive_an_edge() {
        let graph = gen_graph(5, 64);
        assert!(graph.iter().flatten().all(|&dst| dst < 64));
        assert!(
            graph.iter().flatten().any(|&dst| dst == 63),
            "the last node receives an edge"
        );
        // A 1-node graph is all self-loops.
        assert_eq!(gen_graph(5, 1), vec![[0; OUT_DEGREE]]);
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
