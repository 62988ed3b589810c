//! # pdc-mpi — a message-passing runtime
//!
//! CS87's distributed-memory programming substrate (paper Section III):
//! an MPI-like world of ranks running on threads, typed point-to-point
//! messaging with tag matching, the standard collectives implemented as
//! explicit tree/ring algorithms (so their message counts equal the
//! formulas taught in class), a mini MapReduce, and a client-server
//! request/reply layer.
//!
//! * [`world`] — `World::run(p, f)` spawns `p` ranks; [`world::Rank`]
//!   provides `send`/`recv` with source/tag matching and traffic
//!   counters.
//! * [`transport`] — the pluggable delivery seam under `Rank`:
//!   [`LocalTransport`] (in-process channels, the default) and
//!   [`WireTransport`] / [`WireWorld`] (ranks as separate OS processes
//!   over loopback TCP, per-process traces merged to `pdc-trace/3`).
//!   Wire worlds are a full mesh: a direct TCP connection per child
//!   pair, the parent kept as a control plane. A two-hop path is an
//!   application-level relay, priced by [`cost::AlphaBeta::with_hops`].
//! * [`coll`] — barrier, broadcast, reduce, allreduce, scatter, gather,
//!   allgather, exclusive scan, and all-to-all.
//! * [`cost`] — α–β (latency–bandwidth) cost formulas for each
//!   collective, used by the benches to check measured message counts.
//! * [`mapreduce`] — map / shuffle / reduce over worker threads (the
//!   Hadoop-lab substitute).
//! * [`kv`] — a client-server key-value store (request/reply pattern,
//!   CS45/CS87 distributed-systems intro).
//! * [`ft`] — fault-tolerant master-worker task farming with heartbeat
//!   failure detection (CS87 "fault tolerance").
//! * [`kv_tcp`] — the same client-server lab over **real TCP sockets**
//!   on loopback (Table II: "TCP-IP sockets"): one line codec over
//!   [`kv::apply`], a thread-per-connection server, and a [`Poller`]
//!   server whose [`kv_tcp::LineConn`] every event loop reuses.
//! * [`hub`] — the one parent-side control plane of every wire world:
//!   it launches and bootstraps the children, reports each death as a
//!   [`HubEvent::Down`], reaps them and merges their trace snapshots.
//!   [`WireWorld`] runs its rankless parent on it; [`WireHub::spawn`]
//!   makes this process rank 0 of a world that survives child deaths
//!   (the substrate of `pdc-db`'s replicated serving tier).
//! * [`poll`] — the dependency-free readiness layer under every wire
//!   event loop: a mio-style [`Poller`] over `poll(2)` plus the
//!   buffered nonblocking [`Conn`].

#![warn(missing_docs)]

pub mod coll;
pub mod cost;
pub mod ft;
pub mod hub;
pub mod kv;
pub mod kv_tcp;
mod link;
pub mod mapreduce;
pub mod poll;
pub mod transport;
pub mod world;

pub use coll::CollId;
pub use ft::HeartbeatMonitor;
pub use hub::{HubEvent, WireHub};
pub use poll::{send_signal, Conn, Event, Interest, Poller};
pub use transport::{
    take_child_env, ChildEnv, Envelope, LocalTransport, Transport, TransportError, WireMessage,
    WireOptions, WireRun, WireTransport, WireWorld,
};
pub use world::{Payload, Rank, TrafficStats, World};
