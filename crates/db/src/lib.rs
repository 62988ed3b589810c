//! # pdc-db — parallel and distributed database algorithms
//!
//! The paper's plan for the new Databases course (CS44, Section III-A):
//! "parallel join algorithms, distributed transactions, and distributed
//! hash tables". All three:
//!
//! * [`join`] — nested-loop, hash, partitioned-parallel hash, and
//!   sort-merge equijoins, all verified against each other.
//! * [`dht`] — a consistent-hashing ring with virtual nodes and N-way
//!   replication; node joins/leaves move provably few keys.
//! * [`twopc`] — two-phase commit as deterministic state machines with
//!   failure injection, asserting atomicity and log-based recovery.
//! * [`sharded`] — the sharded store's op, its codec and semantics, and
//!   the DHT ring that routes it.
//! * [`wordcount`] — MapReduce word count behind the scenario seam:
//!   sequential, on threads, and as ranks that shuffle with one
//!   alltoall, in one process or as OS processes over loopback TCP.
//! * [`serve`] — the sharded store facing live traffic: a TCP front
//!   end, 2-way chain replication over the ring, heartbeat + transport
//!   failure detection, and backup promotion with rebalancing — no
//!   acknowledged write lost when a shard dies mid-run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dht;
pub mod join;
pub mod pagerank;
pub mod serve;
pub mod sharded;
pub mod twopc;
pub mod wordcount;

pub use dht::HashRing;
pub use join::{hash_join, parallel_hash_join, sort_merge_join};
pub use pagerank::PageRankScenario;
pub use serve::{ServeHandle, ServeOptions, ServeOutcome};
pub use sharded::{apply_op, apply_script, Applied, KvState, ShardOp};
pub use twopc::{Coordinator, Decision};
pub use wordcount::{run_wire_wordcount_child, WireSpec, WordCountScenario};
