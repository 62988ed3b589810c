//! Named monotone counters shared by the pool, the machine simulator,
//! and the MPI layer.
//!
//! A [`Registry`] maps dotted lowercase names (`pool.executed`,
//! `mpi.bytes`, `ft.reassignments`) to `AtomicU64` cells. Registration
//! takes a mutex once per name; the [`Counter`] handle it returns
//! increments lock-free, so hot paths (a worker finishing a task, a rank
//! sending a message) never contend on the registry itself.
//!
//! Counters are **monotone**: the only mutations are `inc`/`add`. That
//! invariant is what makes [`Snapshot::diff`] meaningful — the delta of
//! two snapshots of the same registry never underflows, which
//! `tests/prop_trace.rs` checks under concurrent increments.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A handle to one named monotone counter.
///
/// Cloning is cheap (an `Arc` bump) and all clones address the same
/// cell. There is deliberately no `set`/`reset`: consumers that need
/// rates or deltas take [`Registry::snapshot`]s and diff them.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A registry of named counters.
///
/// Subsystems own their registry by default (`WorkStealingPool`,
/// `SimMachine`, …) and can be handed a shared one through a
/// `TraceSession` so one snapshot covers a whole experiment.
#[derive(Debug, Default)]
pub struct Registry {
    cells: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Fetch or create the counter `name`.
    ///
    /// Repeated calls with the same name return handles to the same
    /// cell, so counts accumulate regardless of which handle adds. A
    /// lookup of a registered name allocates nothing; only the first
    /// call for a name copies it into the registry.
    pub fn counter(&self, name: &str) -> Counter {
        let mut cells = self.cells.lock().expect("metrics registry poisoned");
        if let Some(cell) = cells.get(name) {
            return Counter {
                cell: Arc::clone(cell),
            };
        }
        let cell = Arc::new(AtomicU64::new(0));
        cells.insert(name.to_string(), Arc::clone(&cell));
        Counter { cell }
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let cells = self.cells.lock().expect("metrics registry poisoned");
        cells.keys().cloned().collect()
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> Snapshot {
        let cells = self.cells.lock().expect("metrics registry poisoned");
        Snapshot {
            values: cells
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// The process-wide registry, for ambient counters (e.g. the TCP KV
/// server's `kv.conn_errors`) where threading a handle through every
/// call site would obscure the teaching code.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A point-in-time copy of a registry's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    values: BTreeMap<String, u64>,
}

impl Snapshot {
    /// Value of `name` at snapshot time (0 if it was not registered).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Per-counter `self - earlier`, saturating at 0.
    ///
    /// For two snapshots of the same registry taken in this order the
    /// saturation never fires (counters are monotone); it exists so a
    /// misordered pair degrades to zeros instead of wrapping.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            values: self
                .values
                .iter()
                .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.get(k))))
                .collect(),
        }
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of counters captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no counters were registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn same_name_same_cell() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.snapshot().get("x.hits"), 4);
    }

    #[test]
    fn snapshot_diff_subtracts() {
        let r = Registry::new();
        let c = r.counter("n");
        c.add(10);
        let before = r.snapshot();
        c.add(7);
        let after = r.snapshot();
        assert_eq!(after.diff(&before).get("n"), 7);
        // Misordered pair saturates instead of wrapping.
        assert_eq!(before.diff(&after).get("n"), 0);
    }

    #[test]
    fn counter_registered_after_snapshot_reads_zero_in_before() {
        let r = Registry::new();
        let before = r.snapshot();
        r.counter("late").add(5);
        let after = r.snapshot();
        assert_eq!(before.get("late"), 0);
        assert_eq!(after.diff(&before).get("late"), 5);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = r.counter("shared");
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.snapshot().get("shared"), 40_000);
    }

    #[test]
    fn names_are_sorted() {
        let r = Registry::new();
        r.counter("b.two");
        r.counter("a.one");
        assert_eq!(r.names(), vec!["a.one".to_string(), "b.two".to_string()]);
    }

    #[test]
    fn global_registry_is_shared() {
        let before = global().snapshot().get("core.test_global");
        global().counter("core.test_global").inc();
        assert_eq!(global().snapshot().get("core.test_global"), before + 1);
    }
}
