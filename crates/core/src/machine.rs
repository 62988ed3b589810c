//! A deterministic multicore *cost* simulator.
//!
//! The paper's CS31 scalability lab has students time Pthreads programs on
//! real multicore lab machines. This workspace must reproduce the same
//! experiment *shapes* on any host — including the single-core container
//! the benches run in — so the scalability benches drive this model
//! instead of (in addition to) the wall clock.
//!
//! The model is intentionally simple and fully documented:
//!
//! * `p` identical cores executing unit-cost abstract operations;
//! * a *parallel phase* costs `max_i(ops_i) * op_cost` (the slowest worker
//!   gates the phase — load imbalance falls out naturally);
//! * a *barrier* costs `barrier_base + barrier_per_core * p` (linear
//!   barriers; students compare against `log2(p)` tree barriers);
//! * a *critical section* of `c` ops entered by every worker serializes:
//!   it costs `p * c * op_cost` plus lock overhead per entry;
//! * a *serial phase* runs on one core while others idle.
//!
//! Total time, per-core busy time, and derived speedup/efficiency are
//! recorded in a [`CoreTrace`]. A machine built with
//! [`SimMachine::with_trace`] additionally publishes `machine.phases`,
//! `machine.barriers`, and `machine.lock_entries` counters and
//! phase/barrier/lock events into a shared pdc-trace [`TraceSession`],
//! using the same schema as the real work-stealing pool — which is what
//! lets one experiment overlay simulated and measured runs in one JSON
//! document.

use crate::metrics::Counter;
use crate::trace::{self, EventKind, ThreadTrace, TraceSession};

/// How barrier cost scales with the participant count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierModel {
    /// Central-counter barrier: cost grows linearly in participants.
    Linear,
    /// Combining-tree / dissemination barrier: cost grows as ⌈log₂ p⌉.
    Tree,
}

/// Tunable cost parameters of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of cores.
    pub cores: usize,
    /// Cost of one abstract operation (arbitrary time units).
    pub op_cost: f64,
    /// Fixed cost of a barrier episode.
    pub barrier_base: f64,
    /// Additional barrier cost per participating core (Linear) or per
    /// tree level (Tree).
    pub barrier_per_core: f64,
    /// Barrier scaling model.
    pub barrier_model: BarrierModel,
    /// Overhead for one lock acquire/release pair.
    pub lock_overhead: f64,
    /// One-time cost to spawn each worker (thread-creation overhead).
    pub spawn_cost: f64,
}

impl MachineConfig {
    /// A machine with `cores` cores and curriculum-lab-like constants:
    /// cheap ops, visible sync costs.
    pub fn with_cores(cores: usize) -> Self {
        assert!(cores > 0, "machine needs at least one core");
        MachineConfig {
            cores,
            op_cost: 1.0,
            barrier_base: 50.0,
            barrier_per_core: 10.0,
            barrier_model: BarrierModel::Linear,
            lock_overhead: 25.0,
            spawn_cost: 200.0,
        }
    }

    /// A frictionless machine (zero sync/spawn cost) for isolating
    /// algorithmic effects.
    pub fn ideal(cores: usize) -> Self {
        assert!(cores > 0);
        MachineConfig {
            cores,
            op_cost: 1.0,
            barrier_base: 0.0,
            barrier_per_core: 0.0,
            barrier_model: BarrierModel::Linear,
            lock_overhead: 0.0,
            spawn_cost: 0.0,
        }
    }
}

/// Accumulated execution state of a simulated run.
#[derive(Debug, Clone)]
pub struct CoreTrace {
    config: MachineConfig,
    /// Elapsed simulated time.
    elapsed: f64,
    /// Busy time per core.
    busy: Vec<f64>,
    /// Number of parallel phases executed.
    phases: u64,
    /// Number of barrier episodes executed.
    barriers: u64,
    /// Number of critical-section entries executed.
    lock_entries: u64,
}

impl CoreTrace {
    fn new(config: MachineConfig) -> Self {
        CoreTrace {
            busy: vec![0.0; config.cores],
            config,
            elapsed: 0.0,
            phases: 0,
            barriers: 0,
            lock_entries: 0,
        }
    }

    /// Elapsed simulated time so far.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Per-core busy time.
    pub fn busy(&self) -> &[f64] {
        &self.busy
    }

    /// Parallel phases executed.
    pub fn phases(&self) -> u64 {
        self.phases
    }

    /// Barrier episodes executed.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }

    /// Critical-section entries executed.
    pub fn lock_entries(&self) -> u64 {
        self.lock_entries
    }

    /// Overall core utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.elapsed == 0.0 {
            return 1.0;
        }
        self.busy.iter().sum::<f64>() / (self.elapsed * self.config.cores as f64)
    }
}

/// The machine's pdc-trace hookup (counters + event stream).
#[derive(Debug, Clone)]
struct MachineObs {
    thread: ThreadTrace,
    phases: Counter,
    barriers: Counter,
    lock_entries: Counter,
    /// Analysis site id for the machine's modeled critical section.
    lock_site: u64,
}

/// The simulated machine: owns a [`MachineConfig`] and executes phases.
#[derive(Debug, Clone)]
pub struct SimMachine {
    trace: CoreTrace,
    obs: Option<MachineObs>,
}

impl SimMachine {
    /// Create a machine from a configuration.
    pub fn new(config: MachineConfig) -> Self {
        SimMachine {
            trace: CoreTrace::new(config),
            obs: None,
        }
    }

    /// Shorthand for `SimMachine::new(MachineConfig::with_cores(p))`.
    pub fn with_cores(p: usize) -> Self {
        Self::new(MachineConfig::with_cores(p))
    }

    /// Create a machine that publishes `machine.*` counters and
    /// phase/barrier/lock events into `session`.
    ///
    /// The simulator is one logical actor; it records as actor 0.
    /// Event kinds keep machine events distinguishable from pool
    /// (spawn/steal) and MPI (send/recv) events in a shared session.
    pub fn with_trace(config: MachineConfig, session: &TraceSession) -> Self {
        SimMachine {
            trace: CoreTrace::new(config),
            obs: Some(MachineObs {
                thread: session.thread(0),
                phases: session.counter("machine.phases"),
                barriers: session.counter("machine.barriers"),
                lock_entries: session.counter("machine.lock_entries"),
                lock_site: trace::next_site_id(),
            }),
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> MachineConfig {
        self.trace.config
    }

    /// Pay the spawn cost for starting `n` workers (serialized on the
    /// spawning core, as `pthread_create` loops are).
    pub fn spawn_workers(&mut self, n: usize) {
        let cost = self.trace.config.spawn_cost * n as f64;
        self.trace.elapsed += cost;
        self.trace.busy[0] += cost;
    }

    /// Execute a serial phase of `ops` operations on core 0.
    pub fn serial(&mut self, ops: u64) {
        let t = ops as f64 * self.trace.config.op_cost;
        self.trace.elapsed += t;
        self.trace.busy[0] += t;
    }

    /// Execute a parallel phase: worker `i` performs `ops_per_worker[i]`
    /// operations. The phase lasts as long as the slowest worker. Workers
    /// beyond `cores` time-share: effective duration is computed by
    /// list-scheduling the workers onto cores (longest-processing-time
    /// order).
    ///
    /// # Panics
    /// Panics if `ops_per_worker` is empty.
    pub fn parallel(&mut self, ops_per_worker: &[u64]) {
        assert!(!ops_per_worker.is_empty(), "parallel phase with no workers");
        let cfg = self.trace.config;
        // LPT list scheduling of workers onto cores.
        let mut loads: Vec<f64> = vec![0.0; cfg.cores];
        let mut jobs: Vec<f64> = ops_per_worker
            .iter()
            .map(|&o| o as f64 * cfg.op_cost)
            .collect();
        jobs.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for j in jobs {
            // Assign to least-loaded core.
            let (idx, _) = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            loads[idx] += j;
        }
        let dur = loads.iter().cloned().fold(0.0f64, f64::max);
        self.trace.elapsed += dur;
        for (b, l) in self.trace.busy.iter_mut().zip(loads.iter()) {
            *b += l;
        }
        let seq = self.trace.phases;
        self.trace.phases += 1;
        if let Some(obs) = &self.obs {
            obs.phases.inc();
            obs.thread
                .record(EventKind::Phase, seq, ops_per_worker.len() as u64);
        }
    }

    /// Convenience: a perfectly divisible parallel phase of `total_ops`
    /// split across `workers` workers (the remainder goes to the first
    /// workers, modelling block partitioning).
    pub fn parallel_even(&mut self, total_ops: u64, workers: usize) {
        assert!(workers > 0);
        let base = total_ops / workers as u64;
        let rem = (total_ops % workers as u64) as usize;
        let ops: Vec<u64> = (0..workers).map(|i| base + u64::from(i < rem)).collect();
        self.parallel(&ops);
    }

    /// Execute a barrier among `participants` workers, costed per the
    /// configured [`BarrierModel`].
    pub fn barrier(&mut self, participants: usize) {
        let cfg = self.trace.config;
        let scale = match cfg.barrier_model {
            BarrierModel::Linear => participants as f64,
            BarrierModel::Tree => {
                (usize::BITS - participants.max(1).next_power_of_two().leading_zeros() - 1).max(1)
                    as f64
            }
        };
        let t = cfg.barrier_base + cfg.barrier_per_core * scale;
        self.trace.elapsed += t;
        let seq = self.trace.barriers;
        self.trace.barriers += 1;
        if let Some(obs) = &self.obs {
            obs.barriers.inc();
            obs.thread
                .record(EventKind::Barrier, seq, participants as u64);
        }
    }

    /// Every one of `workers` workers enters a critical section of
    /// `ops_inside` operations once: the entries serialize.
    pub fn critical_each(&mut self, workers: usize, ops_inside: u64) {
        let cfg = self.trace.config;
        let per_entry = cfg.lock_overhead + ops_inside as f64 * cfg.op_cost;
        let t = per_entry * workers as f64;
        self.trace.elapsed += t;
        let seq = self.trace.lock_entries;
        self.trace.lock_entries += workers as u64;
        // The serialized section keeps exactly one core busy at a time.
        self.trace.busy[0] += t;
        if let Some(obs) = &self.obs {
            obs.lock_entries.add(workers as u64);
            // Bracket the modeled critical section with acquire/release
            // on a stable site so `pdc-analyze` sees the machine's lock
            // discipline alongside real pdc-sync primitives.
            obs.thread
                .record(EventKind::Acquire, obs.lock_site, trace::SYNC_EXCLUSIVE);
            obs.thread.record(EventKind::Lock, seq, workers as u64);
            obs.thread
                .record(EventKind::Release, obs.lock_site, trace::SYNC_EXCLUSIVE);
        }
    }

    /// Finish the run and return the trace.
    pub fn finish(self) -> CoreTrace {
        self.trace
    }

    /// Simulate a canonical barrier-synchronized data-parallel program:
    /// `iters` iterations, each doing `ops_per_iter` total work split over
    /// `workers` workers followed by one barrier, after `serial_setup`
    /// serial operations and worker spawning. Returns total simulated time.
    ///
    /// This is exactly the structure of the parallel Game-of-Life lab, and
    /// is the model the scalability benches sweep.
    pub fn run_bsp_program(
        p: usize,
        serial_setup: u64,
        iters: u64,
        ops_per_iter: u64,
        workers: usize,
    ) -> f64 {
        let mut m = SimMachine::with_cores(p);
        m.serial(serial_setup);
        m.spawn_workers(workers);
        for _ in 0..iters {
            m.parallel_even(ops_per_iter, workers);
            m.barrier(workers);
        }
        m.finish().elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_phase_costs_ops() {
        let mut m = SimMachine::new(MachineConfig::ideal(4));
        m.serial(100);
        assert_eq!(m.finish().elapsed(), 100.0);
    }

    #[test]
    fn parallel_even_divides_work() {
        let mut m = SimMachine::new(MachineConfig::ideal(4));
        m.parallel_even(1000, 4);
        assert_eq!(m.finish().elapsed(), 250.0);
    }

    #[test]
    fn parallel_slowest_worker_gates() {
        let mut m = SimMachine::new(MachineConfig::ideal(4));
        m.parallel(&[10, 10, 10, 100]);
        assert_eq!(m.finish().elapsed(), 100.0);
    }

    #[test]
    fn oversubscription_time_shares() {
        // 8 workers of 100 ops on 2 ideal cores: 4 workers per core.
        let mut m = SimMachine::new(MachineConfig::ideal(2));
        m.parallel(&[100; 8]);
        assert_eq!(m.finish().elapsed(), 400.0);
    }

    #[test]
    fn remainder_rows_create_imbalance() {
        // 10 ops over 3 workers on ideal 3-core: 4,3,3 -> phase = 4.
        let mut m = SimMachine::new(MachineConfig::ideal(3));
        m.parallel_even(10, 3);
        assert_eq!(m.finish().elapsed(), 4.0);
    }

    #[test]
    fn tree_barrier_cheaper_at_scale() {
        let linear = MachineConfig::with_cores(64);
        let tree = MachineConfig {
            barrier_model: BarrierModel::Tree,
            ..linear
        };
        let mut a = SimMachine::new(linear);
        a.barrier(64);
        let mut b = SimMachine::new(tree);
        b.barrier(64);
        // 64 participants: linear pays 64 units, tree pays log2(64) = 6.
        assert!(b.finish().elapsed() < a.finish().elapsed() / 4.0);
    }

    #[test]
    fn barrier_cost_scales_with_participants() {
        let mut a = SimMachine::with_cores(8);
        a.barrier(2);
        let ta = a.finish().elapsed();
        let mut b = SimMachine::with_cores(8);
        b.barrier(8);
        let tb = b.finish().elapsed();
        assert!(tb > ta);
    }

    #[test]
    fn critical_sections_serialize() {
        let cfg = MachineConfig {
            lock_overhead: 0.0,
            ..MachineConfig::ideal(8)
        };
        let mut m = SimMachine::new(cfg);
        m.critical_each(8, 10);
        // 8 workers x 10 ops, fully serialized.
        assert_eq!(m.finish().elapsed(), 80.0);
    }

    #[test]
    fn bsp_program_shows_amdahl_shape() {
        // Strong scaling of a BSP program: speedup grows then saturates.
        let total = |p: usize| SimMachine::run_bsp_program(p, 1_000, 100, 100_000, p);
        let t1 = total(1);
        let mut prev_speedup = 0.0;
        for p in [2usize, 4, 8, 16] {
            let s = t1 / total(p);
            assert!(s > prev_speedup, "speedup should grow to p=16");
            prev_speedup = s;
        }
        // Efficiency at 16 cores is below 1 (sync + serial overhead).
        assert!(prev_speedup / 16.0 < 1.0);
        // And far from the ideal 16.
        assert!(prev_speedup < 16.0);
    }

    #[test]
    fn bsp_oversubscription_hurts() {
        // Same machine (4 cores), more workers than cores: barrier costs
        // rise with workers while compute time cannot drop below 4-way.
        let t4 = SimMachine::run_bsp_program(4, 0, 50, 10_000, 4);
        let t32 = SimMachine::run_bsp_program(4, 0, 50, 10_000, 32);
        assert!(t32 > t4, "oversubscription should not help: {t32} <= {t4}");
    }

    #[test]
    fn utilization_reflects_idle_cores() {
        let mut m = SimMachine::new(MachineConfig::ideal(4));
        m.serial(100); // 3 cores idle
        let tr = m.finish();
        assert!((tr.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn trace_counters() {
        let mut m = SimMachine::with_cores(2);
        m.barrier(2);
        m.barrier(2);
        m.critical_each(2, 1);
        m.parallel_even(10, 2);
        let tr = m.finish();
        assert_eq!(tr.barriers(), 2);
        assert_eq!(tr.lock_entries(), 2);
        assert_eq!(tr.phases(), 1);
    }

    #[test]
    fn traced_machine_publishes_counters_and_events() {
        use crate::trace::{EventKind, TraceSession};
        let session = TraceSession::new();
        let mut m = SimMachine::with_trace(MachineConfig::with_cores(4), &session);
        m.parallel_even(100, 4);
        m.barrier(4);
        m.parallel_even(100, 4);
        m.barrier(4);
        m.critical_each(4, 5);
        let tr = m.finish();
        let snap = session.snapshot();
        assert_eq!(snap.get("machine.phases"), tr.phases());
        assert_eq!(snap.get("machine.barriers"), 2);
        assert_eq!(snap.get("machine.lock_entries"), 4);
        let events = session.events();
        let barriers: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Barrier)
            .collect();
        assert_eq!(barriers.len(), 2);
        assert_eq!((barriers[0].a, barriers[0].b), (0, 4));
        assert_eq!((barriers[1].a, barriers[1].b), (1, 4));
        assert!(events.iter().any(|e| e.kind == EventKind::Phase));
        assert!(events.iter().any(|e| e.kind == EventKind::Lock));
        // Event order follows program order (single logical actor).
        assert!(events.windows(2).all(|w| w[0].ts < w[1].ts));
    }

    #[test]
    fn untraced_machine_costs_match_traced() {
        let session = crate::trace::TraceSession::new();
        let mut a = SimMachine::new(MachineConfig::with_cores(4));
        let mut b = SimMachine::with_trace(MachineConfig::with_cores(4), &session);
        for m in [&mut a, &mut b] {
            m.serial(10);
            m.parallel_even(1000, 4);
            m.barrier(4);
            m.critical_each(4, 3);
        }
        assert_eq!(a.finish().elapsed(), b.finish().elapsed());
    }
}
