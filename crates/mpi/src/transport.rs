//! Pluggable rank-to-rank transports: the seam between the rank API in
//! [`crate::world`] and the machinery that actually moves envelopes.
//!
//! [`LocalTransport`] is the seed behaviour: ranks are threads of one
//! process joined by unbounded crossbeam channels. [`WireTransport`]
//! puts every rank in its **own OS process**, connected over loopback
//! TCP to every other rank and to a parent; [`WireWorld`] spawns those
//! processes by re-executing the current binary (MPI launchers do the
//! same — compare `mpirun` forking `p` copies of one executable).
//! Everything above the
//! [`Transport`] trait — tag matching, out-of-order buffering, traffic
//! counters, every collective in [`crate::coll`] — is byte-for-byte the
//! same code over both, which is the point of the seam: the ADI-style
//! device layer of MPICH, in miniature.
//!
//! ## Wire protocol: a full mesh
//!
//! At bootstrap the parent broadcasts a rank→address table; each child
//! binds a loopback listener, dials every higher rank and accepts every
//! lower rank, so each pair shares exactly one TCP connection and data
//! frames travel **one hop**, peer-direct. The parent connection is a
//! control plane only: bootstrap, results, traffic stats, death
//! detection. (A two-hop path, when a lesson wants one, is an
//! application-level relay through some rank — see `experiments
//! --wire` — and [`crate::cost::AlphaBeta::with_hops`] models it.)
//!
//! Every frame on every wire connection — peer ↔ peer, parent → child
//! and child → parent — has one shape (all integers little-endian):
//!
//! ```text
//! kind:u8 tag:u32 len:u32 payload[len]
//!
//! kind 0 (MSG):    payload = one message's WireMessage bytes
//! kind 1 (RESULT): payload = msgs:u64 bytes:u64, then the encoded result
//! kind 2 (HELLO):  tag = the sender's rank; payload = its listener address
//!                  (empty on a dial to a peer)
//! kind 3 (TABLE):  payload = count:u32, then count length-prefixed
//!                  addresses ("" = a rank that is absent or dead)
//! ```
//!
//! No frame names its sender or receiver: each connection joins exactly
//! two endpoints, and the HELLO that opens it tells who dialed. A HELLO
//! is valid only as the first frame of a connection its receiver
//! accepted, and the TABLE only as a parent's first frame to a child.
//! A `MSG` to a [`crate::hub::WireHub`] is a message to the hub
//! process itself, rank 0 of its world; the hub decodes it and counts
//! its [`Payload::size_bytes`] into [`TrafficStats`]. A `RESULT` is a
//! child's last frame: its result, plus the traffic totals its own
//! ranks counted, since the parent never sees their data. HELLO and
//! TABLE are not traffic.
//!
//! ## One link engine
//!
//! The hub and every mesh endpoint are one crate-private engine: a
//! single-threaded readiness loop from [`crate::poll`] — one [`Poller`]
//! over all connections, userspace write queues instead of blocking
//! writes, so no peer can wedge the loop — over a table of links
//! indexed by the rank at the far end. A link is `Me`, `Pending` (no
//! HELLO yet), `Up`, or `Dead` with the [`TransportError`] that killed
//! it: a hang-up (`PeerClosed`), a hang-up mid-frame (`Truncated`), or
//! a frame that does not parse, decode or belong where it is
//! (`Undecodable`), at which the link stops — nothing behind a bad frame
//! is delivered. A link dies once. In a mesh rank, the parent's link is
//! rank 0's in a hub world and sits past the last rank in the symmetric
//! one; its death is fatal to [`Transport::try_recv`] once the messages
//! already received are consumed, while a peer's death is silent until
//! a send to it fails. The hub while it bootstraps, and a mesh rank
//! once its table is in, give the engine a listener.
//!
//! Every parent runs one control plane, [`crate::hub::WireHub`]: a
//! [`WireWorld`] parent is a hub whose children start at rank 0. The
//! hub launches and bootstraps the children, and a child's death
//! reaches either parent as one typed event,
//! [`crate::hub::HubEvent::Down`].
//!
//! ## Traces across processes
//!
//! A traced wire world has no shared `TraceSession`. Each child records
//! into its own session and writes an ordinary `pdc-trace/2` snapshot
//! with [`ChildEnv::write_trace`] before exiting; the parent's
//! [`crate::hub::WireHub::shutdown`] parses and merges them into one
//! `pdc-trace/3` [`MergedTrace`] (see [`pdc_core::merge`]) whose summed
//! counters mean exactly what the shared-session counters mean in a
//! single-process world.

// The readiness API is part of the transport surface: event loops
// built over wire endpoints (the serve front end, custom routers)
// register their own fds alongside the transport's.
pub use crate::poll::{Conn, Event, Interest, Poller};

use crate::hub::{HubEvent, WireHub};
use crate::link::{self, Input, Link, Links};
use crate::world::{Payload, Rank, Traffic, TrafficStats};
use crossbeam::channel::{Receiver, Sender};
use pdc_core::merge::MergedTrace;
use pdc_core::trace::{self, TraceSession};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a wire endpoint's I/O failed, as seen by the survivor.
///
/// The distinction matters to layers that *react* to failure instead of
/// inheriting a crash: `db::serve`'s replication tier treats
/// [`TransportError::PeerClosed`] on a shard's connection as a failure
/// detection (promote the backup, rebalance the ring) while the other
/// two variants indicate protocol corruption worth surfacing loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The peer's socket closed at a frame boundary (clean EOF) or the
    /// connection was reset — the peer process is gone.
    PeerClosed,
    /// The stream died *mid-frame*: a length prefix promised bytes that
    /// never arrived.
    Truncated,
    /// A complete frame arrived but its payload bytes do not decode as
    /// the expected message type.
    Undecodable,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerClosed => write!(f, "peer closed the connection"),
            TransportError::Truncated => write!(f, "truncated frame"),
            TransportError::Undecodable => write!(f, "undecodable payload"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A message in flight: who sent it, under which tag, and the payload.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Sending rank.
    pub src: usize,
    /// MPI-style tag used for envelope matching.
    pub tag: u32,
    /// The payload.
    pub msg: M,
}

/// Moves envelopes between ranks. [`Rank`] owns one
/// endpoint and layers tag matching and observability on top; a
/// transport only has to deliver reliably and preserve per-sender FIFO
/// order (both implementations do: crossbeam channels and TCP streams
/// are FIFO, and each pair of wire ranks shares one stream).
pub trait Transport<M: Payload>: Send {
    /// Deliver `msg` from `src` to `dst` under `tag` (non-blocking,
    /// eager: buffers at the receiver like small-message MPI).
    fn send(&self, src: usize, dst: usize, tag: u32, msg: M);

    /// Block until the next envelope for this rank arrives, in arrival
    /// order. Tag matching happens above, in the rank's pending buffer.
    fn recv(&self) -> Envelope<M>;

    /// Fallible [`Transport::send`]: report a dead peer as an error
    /// instead of panicking. The default (used by [`LocalTransport`],
    /// whose ranks share one process and fail together: a rank that
    /// panics tears the whole world down) just delegates to `send`.
    fn try_send(&self, src: usize, dst: usize, tag: u32, msg: M) -> Result<(), TransportError> {
        self.send(src, dst, tag, msg);
        Ok(())
    }

    /// Fallible [`Transport::recv`]: a hung-up, truncating, or
    /// corrupting peer becomes an `Err` the caller can react to. The
    /// default delegates to the infallible `recv`.
    fn try_recv(&self) -> Result<Envelope<M>, TransportError> {
        Ok(self.recv())
    }
}

/// The seed transport: ranks are threads of one process, joined by
/// unbounded in-process channels.
///
/// Every rank, and the launcher, holds a sender to every inbox, so no
/// channel disconnects while the world runs. A rank blocked in `recv`
/// on a peer that panicked learns of the death only from the teardown
/// notice the dying rank's thread posts to every inbox: it then panics
/// naming that rank, and `World::run` panics in turn.
pub struct LocalTransport<M> {
    pub(crate) senders: Vec<Sender<Delivery<M>>>,
    pub(crate) inbox: Receiver<Delivery<M>>,
}

/// What a local rank's inbox carries.
pub(crate) enum Delivery<M> {
    /// A message from a peer.
    Msg(Envelope<M>),
    /// The body of the named rank panicked; the world is being torn
    /// down.
    Down(usize),
}

impl<M> LocalTransport<M> {
    /// Post the notice that rank `dead`'s body panicked to every inbox.
    /// A rank that has already returned dropped its inbox and needs no
    /// notice, so a failed post is ignored.
    pub(crate) fn tear_down(&self, dead: usize) {
        for tx in &self.senders {
            let _ = tx.send(Delivery::Down(dead));
        }
    }
}

impl<M: Payload> Transport<M> for LocalTransport<M> {
    fn send(&self, src: usize, dst: usize, tag: u32, msg: M) {
        self.senders[dst]
            .send(Delivery::Msg(Envelope { src, tag, msg }))
            .expect("destination rank has exited");
    }

    fn recv(&self) -> Envelope<M> {
        match self
            .inbox
            .recv()
            .expect("a rank holds a sender to its own inbox")
        {
            Delivery::Msg(env) => env,
            Delivery::Down(dead) => panic!("rank {dead} panicked; world torn down"),
        }
    }
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

/// A [`Payload`] that can also cross a process boundary: a hand-rolled
/// little-endian codec (no serde in the offline build). `encode` must
/// be the inverse of `decode`; the blanket container impls compose the
/// scalar ones the same way the `Payload` impls compose `size_bytes`.
pub trait WireMessage: Payload + Sized {
    /// Append this value's wire bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Consume this value's wire bytes from the front of `buf`;
    /// `None` if the bytes are malformed or truncated.
    fn decode(buf: &mut &[u8]) -> Option<Self>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a value that must span exactly the whole buffer.
    fn from_bytes(mut buf: &[u8]) -> Option<Self> {
        let v = Self::decode(&mut buf)?;
        buf.is_empty().then_some(v)
    }
}

fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    let (head, rest) = buf.split_first_chunk::<4>()?;
    *buf = rest;
    Some(u32::from_le_bytes(*head))
}

fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    let (head, rest) = buf.split_first_chunk::<8>()?;
    *buf = rest;
    Some(u64::from_le_bytes(*head))
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl WireMessage for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                // Casting through u64 sign-extends and the cast back
                // truncates, so negative values round-trip.
                out.extend_from_slice(&(*self as u64).to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                Some(take_u64(buf)? as $t)
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl WireMessage for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(f32::from_bits(take_u32(buf)?))
    }
}

impl WireMessage for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some(f64::from_bits(take_u64(buf)?))
    }
}

impl WireMessage for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (b, rest) = buf.split_first()?;
        *buf = rest;
        match b {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl WireMessage for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl WireMessage for String {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = take_u32(buf)? as usize;
        let (head, rest) = buf.split_at_checked(len)?;
        let s = std::str::from_utf8(head).ok()?.to_string();
        *buf = rest;
        Some(s)
    }
}

impl<T: WireMessage> WireMessage for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        for v in self {
            v.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = take_u32(buf)? as usize;
        // Cap the pre-allocation: a corrupt length must not OOM.
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Some(out)
    }
}

impl<A: WireMessage, B: WireMessage> WireMessage for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<T: WireMessage> WireMessage for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (b, rest) = buf.split_first()?;
        *buf = rest;
        match b {
            0 => Some(None),
            1 => Some(Some(T::decode(buf)?)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// WireTransport: a child rank's endpoint
// ---------------------------------------------------------------------

/// How long a mesh sender waits for a lower-rank peer's inbound dial
/// before declaring the pair dead.
const PEER_DIAL_WAIT: Duration = Duration::from_secs(30);

/// A mesh rank: the link engine over its peers and its parent, plus the
/// messages received but not yet consumed.
struct Mesh<M> {
    me: usize,
    /// The parent's link: rank 0 in a hub world, one past the last rank
    /// in the symmetric world.
    parent: usize,
    links: Links,
    ready: VecDeque<Envelope<M>>,
}

impl<M: WireMessage> Mesh<M> {
    /// Run one engine call with this rank's sink: messages join `ready`.
    /// A peer's death is silent — the world's failure story belongs to
    /// the parent and the layers above (heartbeats, Down events), not to
    /// every pairwise socket — and the parent's is read off its link.
    fn with_links<R>(&mut self, call: impl FnOnce(&mut Links, &mut dyn FnMut(Input<M>)) -> R) -> R {
        let Mesh { links, ready, .. } = self;
        call(links, &mut |input| {
            if let Input::Msg(e) = input {
                ready.push_back(e);
            }
        })
    }

    fn sweep(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.with_links(|l, out| l.sweep(timeout, out))
            .map_err(|_| TransportError::PeerClosed)
    }

    fn try_send(&mut self, dst: usize, tag: u32, msg: M) -> Result<(), TransportError> {
        if dst == self.me {
            self.ready.push_back(Envelope { src: dst, tag, msg });
            return Ok(());
        }
        let deadline = Instant::now() + PEER_DIAL_WAIT;
        while matches!(self.links.get(dst), Link::Pending) {
            // A lower rank dials us: sweep until its HELLO lands, or give up.
            let left = deadline.saturating_duration_since(Instant::now());
            if matches!(self.links.get(self.parent), Link::Dead(_)) || left.is_zero() {
                self.links.kill(dst, TransportError::PeerClosed);
            } else {
                self.sweep(Some(left))?;
            }
        }
        let frame = link::frame(link::MSG, tag, |b| msg.encode(b));
        self.with_links(|l, out| l.send(dst, frame, out))
    }

    fn try_recv(&mut self) -> Result<Envelope<M>, TransportError> {
        loop {
            if let Some(e) = self.ready.pop_front() {
                return Ok(e);
            }
            if let Link::Dead(e) = self.links.get(self.parent) {
                return Err(*e);
            }
            self.sweep(None)?;
        }
    }

    /// Collect everything in flight: sweep with a short grace window
    /// until a full window passes with no new frames, then drain
    /// `ready`. The grace absorbs bytes a peer flushed just before we
    /// were told to drain but that the kernel has not delivered yet.
    fn drain_pending(&mut self) -> Vec<Envelope<M>> {
        loop {
            let before = self.ready.len();
            if self.sweep(Some(Duration::from_millis(10))).is_err() || self.ready.len() == before {
                break;
            }
        }
        self.ready.drain(..).collect()
    }
}

/// A child rank's endpoint: a mesh over the link engine — peer-direct
/// connections plus the parent — behind one mutex (uncontended in
/// practice, since a rank is single-threaded).
pub struct WireTransport<M> {
    mesh: Mutex<Mesh<M>>,
}

impl<M: WireMessage> WireTransport<M> {
    /// Connect this child to its world as its environment describes
    /// (see [`take_child_env`]; custom child entry points such as
    /// `db::serve` shards pair the two): a HELLO with this rank's
    /// listener address up to the parent, the TABLE back, then a dial
    /// and a HELLO to every higher-ranked live peer; lower ranks dial
    /// us, and the engine's listener names each by its HELLO.
    pub fn connect_env(env: &ChildEnv) -> io::Result<WireTransport<M>> {
        let (me, parent) = (env.rank, if env.hub { 0 } else { env.procs });
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut links: Vec<Link> = (0..env.procs + usize::from(!env.hub))
            .map(|rank| if rank == me { Link::Me } else { Link::Pending })
            .collect();
        links[parent] = Link::Up(Conn::new(TcpStream::connect(&env.addr)?)?);
        let mut links = Links::new(links);
        links.await_table(parent);
        let hello = link::hello(me, &listener.local_addr()?.to_string());
        let _ = links.send(parent, hello, &mut |_: Input<M>| {});
        let (mut ready, mut table) = (VecDeque::new(), None);
        while table.is_none() {
            if let Link::Dead(e) = links.get(parent) {
                return Err(io::Error::new(io::ErrorKind::ConnectionAborted, *e));
            }
            links.sweep(None, &mut |input: Input<M>| match input {
                Input::Msg(e) => ready.push_back(e),
                Input::Table(t) => table = Some(t),
                _ => {}
            })?;
        }
        let table = table.filter(|t| t.len() == env.procs).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "mesh table size != world size")
        })?;
        for (rank, addr) in table.iter().enumerate().filter(|(r, _)| *r != parent) {
            if addr.is_empty() {
                links.kill(rank, TransportError::PeerClosed);
            } else if rank > me {
                // Higher ranks' listeners predate the table.
                links.dial(rank, addr, me);
            }
        }
        // Every higher rank is up or dead now, so a HELLO that finds its
        // rank `Pending` comes from a lower one.
        links.listen(listener)?;
        let mesh = Mutex::new(Mesh {
            me,
            parent,
            links,
            ready,
        });
        Ok(WireTransport { mesh })
    }

    fn mesh(&self) -> std::sync::MutexGuard<'_, Mesh<M>> {
        self.mesh.lock().expect("wire mesh poisoned")
    }

    /// Pump the endpoint until every queued outbound frame has hit the
    /// kernel (or its peer died). Call before a drain barrier (e.g.
    /// reporting "done" in a stop/exit protocol) so in-flight peer
    /// traffic is really out.
    pub fn flush_pending(&self) {
        self.mesh()
            .with_links(|l, out| l.flush_all(Duration::from_secs(10), out));
    }

    /// Collect every message in flight to this endpoint. It sweeps in
    /// 10 ms windows until one window brings no new frame, so every call
    /// blocks for at least 10 ms (ROADMAP item 10 replaces the window
    /// with an end-of-stream count).
    pub fn drain_pending(&self) -> Vec<Envelope<M>> {
        self.mesh().drain_pending()
    }

    /// Deliver the result and the self-counted traffic stats to the
    /// parent in one `RESULT` frame and drain every write queue. The last
    /// thing a wire child does before exiting.
    pub(crate) fn finish(&self, result: &impl WireMessage, stats: TrafficStats) {
        let frame = link::frame(link::RESULT, 0, |b| {
            (stats.messages, stats.bytes).encode(b);
            result.encode(b);
        });
        let mut m = self.mesh();
        let parent = m.parent;
        m.with_links(|l, out| {
            // A dead parent is not an error here: nobody is left to tell.
            let _ = l.send(parent, frame, out);
            l.flush_all(Duration::from_secs(60), out);
        });
        assert!(
            !matches!(m.links.get(parent), Link::Up(c) if c.wants_write()),
            "wire child: result undeliverable"
        );
    }
}

impl<M: WireMessage> Transport<M> for WireTransport<M> {
    // The infallible rank API keeps its panic-on-failure contract — a
    // rank has no sensible way to continue without its world — but the
    // panic now carries the typed [`TransportError`] instead of
    // unconditionally blaming the parent router, and both paths go
    // through the fallible endpoints so failure-aware layers
    // (db::serve) can observe a death instead.
    fn send(&self, src: usize, dst: usize, tag: u32, msg: M) {
        if let Err(e) = self.try_send(src, dst, tag, msg) {
            panic!("wire transport: send from rank {src} to rank {dst}: {e}");
        }
    }

    fn recv(&self) -> Envelope<M> {
        self.try_recv()
            .unwrap_or_else(|e| panic!("wire transport: recv: {e}"))
    }

    fn try_send(&self, _src: usize, dst: usize, tag: u32, msg: M) -> Result<(), TransportError> {
        self.mesh().try_send(dst, tag, msg)
    }

    fn try_recv(&self) -> Result<Envelope<M>, TransportError> {
        self.mesh().try_recv()
    }
}

// ---------------------------------------------------------------------
// WireWorld: the symmetric world, launched through the hub
// ---------------------------------------------------------------------

/// Env var carrying the world id; set in child processes. Entry points
/// that host more than one wire world dispatch on
/// [`WireWorld::child_world_id`] before calling [`WireWorld::run`].
pub const ENV_WORLD: &str = "PDC_WIRE_WORLD";
pub(crate) const ENV_RANK: &str = "PDC_WIRE_RANK";
pub(crate) const ENV_PROCS: &str = "PDC_WIRE_PROCS";
pub(crate) const ENV_ADDR: &str = "PDC_WIRE_ADDR";
pub(crate) const ENV_TRACE_DIR: &str = "PDC_WIRE_TRACE_DIR";
pub(crate) const ENV_HUB: &str = "PDC_WIRE_HUB";

/// What a spawned wire-child process learns from its environment: who
/// it is, how big the world is, where the parent listens, and whether
/// to trace. See [`take_child_env`].
#[derive(Debug, Clone)]
pub struct ChildEnv {
    /// The world id this child was spawned for.
    pub world_id: String,
    /// This process's rank.
    pub rank: usize,
    /// Total rank count in the world (for a hub world this includes the
    /// hub process itself as rank 0).
    pub procs: usize,
    /// Loopback address of the parent's listener.
    pub addr: String,
    /// Trace snapshot directory, when the world is traced.
    pub trace_dir: Option<PathBuf>,
    /// Whether the parent is rank 0 of the world (a hub world from
    /// [`crate::hub::WireHub::spawn`]) rather than the symmetric world's
    /// rankless parent.
    pub hub: bool,
}

/// In a wire-child process, read **and clear** the child env markers —
/// clearing ensures nothing the child runs later mistakes itself for a
/// child of some nested world. Returns `None` in an ordinary process.
/// Custom child entry points (e.g. `db::serve` shards) pair this with
/// [`WireTransport::connect_env`]; [`WireWorld::run`] uses it internally.
pub fn take_child_env() -> Option<ChildEnv> {
    let world_id = std::env::var(ENV_WORLD).ok()?;
    let rank = std::env::var(ENV_RANK)
        .expect("wire child without rank")
        .parse()
        .expect("bad wire rank");
    let procs = std::env::var(ENV_PROCS)
        .expect("wire child without procs")
        .parse()
        .expect("bad wire procs");
    let addr = std::env::var(ENV_ADDR).expect("wire child without addr");
    let trace_dir = std::env::var(ENV_TRACE_DIR).ok().map(PathBuf::from);
    let hub = std::env::var(ENV_HUB).is_ok();
    for k in [
        ENV_WORLD,
        ENV_RANK,
        ENV_PROCS,
        ENV_ADDR,
        ENV_TRACE_DIR,
        ENV_HUB,
    ] {
        std::env::remove_var(k);
    }
    Some(ChildEnv {
        world_id,
        rank,
        procs,
        addr,
        trace_dir,
        hub,
    })
}

impl ChildEnv {
    /// Write `session` as this rank's `pdc-trace/2` snapshot, the file
    /// [`crate::hub::WireHub::shutdown`] merges; a no-op in an untraced
    /// world.
    ///
    /// # Panics
    /// Panics if the snapshot cannot be written.
    pub fn write_trace(&self, session: &TraceSession) {
        let Some(dir) = &self.trace_dir else { return };
        std::fs::create_dir_all(dir).expect("wire child: create trace dir");
        let meta = [("process", self.rank.to_string())];
        std::fs::write(
            snapshot_path(dir, self.rank),
            session.to_json_with_meta(&meta),
        )
        .expect("wire child: write trace snapshot");
    }
}

/// Where rank `rank` of a world traced into `dir` keeps its snapshot.
pub(crate) fn snapshot_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank{rank}.trace.json"))
}

/// How to launch a wire world: how many ranks, how a child process
/// finds its way back to the same [`WireWorld::run`] call, and whether
/// to trace.
#[derive(Debug, Clone)]
pub struct WireOptions {
    /// Number of rank processes.
    pub procs: usize,
    /// Identifies this world; a child only enters a `run` call whose
    /// `world_id` matches its `PDC_WIRE_WORLD`.
    pub world_id: String,
    /// Arguments passed to the re-executed current binary so it reaches
    /// the same `WireWorld::run` call (e.g. a libtest `--exact` filter,
    /// or a subcommand flag).
    pub child_args: Vec<String>,
    /// When set, each rank writes a `pdc-trace/2` snapshot here and the
    /// parent merges them into a `pdc-trace/3` [`MergedTrace`].
    pub trace_dir: Option<PathBuf>,
}

impl WireOptions {
    /// Options for a world whose entry point is the `#[test]` function
    /// at libtest path `test_path` (module path without the crate name,
    /// e.g. `"transport::tests::wire_ping_pong"`). The test binary is
    /// re-executed with `--exact` so the child runs only that test.
    pub fn for_test(procs: usize, test_path: &str) -> WireOptions {
        WireOptions {
            procs,
            world_id: test_path.to_string(),
            child_args: vec![
                test_path.to_string(),
                "--exact".to_string(),
                "--nocapture".to_string(),
            ],
            trace_dir: None,
        }
    }

    /// Options for a world reached by re-running the current binary
    /// with `args` (e.g. `["--wire"]` for a subcommand entry point).
    pub fn for_args(procs: usize, world_id: &str, args: &[&str]) -> WireOptions {
        WireOptions {
            procs,
            world_id: world_id.to_string(),
            child_args: args.iter().map(|a| a.to_string()).collect(),
            trace_dir: None,
        }
    }

    /// Trace every rank and merge the snapshots (written under `dir`).
    pub fn traced(mut self, dir: impl Into<PathBuf>) -> WireOptions {
        self.trace_dir = Some(dir.into());
        self
    }
}

/// The outcome of a multi-process world run, as seen by the parent.
pub struct WireRun<R> {
    /// Each rank's return value, in rank order.
    pub results: Vec<R>,
    /// World traffic — the same numbers a `LocalTransport` world
    /// reports. The parent never sees data frames, so children report
    /// their own totals in their `RESULT` frames.
    pub stats: TrafficStats,
    /// Data frames the parent relayed: always 0, the witness that every
    /// child↔child message is one hop (the parent rejects data frames
    /// outright). Kept so callers can keep asserting it.
    pub forwarded: u64,
    /// Merged per-process traces, when [`WireOptions::trace_dir`] was
    /// set.
    pub trace: Option<MergedTrace>,
}

/// A message-passing world whose ranks are separate OS processes.
///
/// [`WireWorld::run`] is called from both sides of a `fork`-like
/// boundary: the parent process spawns `procs` copies of the current
/// binary through a [`WireHub`] and collects their results; each child
/// re-executes the same entry point, where `run` detects the child env
/// vars and runs `f` as one rank before exiting the process. One entry
/// point should host one wire world; if it must host several, dispatch
/// on [`WireWorld::child_world_id`] first.
pub struct WireWorld;

impl WireWorld {
    /// In a child rank process, the world id this child belongs to;
    /// `None` in an ordinary (parent) process.
    pub fn child_world_id() -> Option<String> {
        std::env::var(ENV_WORLD).ok()
    }

    /// Run `f` as `opts.procs` rank processes; in the parent, returns
    /// every rank's result plus traffic stats (and the merged trace if
    /// tracing). In a child this runs `f` for one rank and then exits
    /// the process — it never returns.
    ///
    /// # Panics
    /// Panics if `opts.procs == 0`, if a child cannot be spawned, sends
    /// the parent a data frame, hangs up before its result or exits
    /// unsuccessfully, or if the world stalls (a child that never
    /// connects or never finishes trips a deadline rather than hanging
    /// CI forever). A panicking parent's hub kills the remaining ranks.
    pub fn run<M, R, F>(opts: &WireOptions, f: F) -> WireRun<R>
    where
        M: WireMessage,
        R: WireMessage,
        F: FnOnce(&mut Rank<M, WireTransport<M>>) -> R,
    {
        match Self::child_world_id() {
            Some(id) if id == opts.world_id => Self::run_child(f),
            Some(id) => panic!(
                "wire child for world {id:?} reached WireWorld::run for {:?}; \
                 dispatch on WireWorld::child_world_id() before calling run",
                opts.world_id
            ),
            None => Self::run_parent::<M, R>(opts),
        }
    }

    fn run_child<M, R, F>(f: F) -> !
    where
        M: WireMessage,
        R: WireMessage,
        F: FnOnce(&mut Rank<M, WireTransport<M>>) -> R,
    {
        let env = take_child_env().expect("wire child without env markers");
        let (rank_id, procs) = (env.rank, env.procs);

        let transport: WireTransport<M> =
            WireTransport::connect_env(&env).expect("wire child: connect to parent");
        let session = env.trace_dir.as_ref().map(|_| TraceSession::new());
        if let Some(s) = &session {
            // Rank-local pdc-sync locking records under this rank's id,
            // exactly as a traced thread-rank does.
            trace::install_sync_trace(s.thread(rank_id as u32));
        }
        let traffic = Arc::new(Traffic::default());
        let mut rank = Rank::new(
            rank_id,
            procs,
            transport,
            Arc::clone(&traffic),
            session.as_ref(),
        );
        let result = f(&mut rank);
        let transport = rank.into_transport();
        trace::clear_sync_trace();

        if let Some(s) = &session {
            env.write_trace(s);
        }

        // Result (plus mesh stats), then drain every write queue so no
        // peer frame queued by `f` is lost to the process exit.
        transport.finish(&result, traffic.stats());
        std::process::exit(0);
    }

    /// The parent's side: the hub's control plane with children at
    /// ranks 0..p, under a strict policy — any `Msg` (data never
    /// passes the parent) or a `Down` before that rank's result is a
    /// panic naming the rank.
    fn run_parent<M: WireMessage, R: WireMessage>(opts: &WireOptions) -> WireRun<R> {
        let hub: WireHub<M> = WireHub::launch(opts, 0).expect("wire parent: spawn rank processes");
        let mut results: Vec<Option<R>> = (0..opts.procs).map(|_| None).collect();
        let mut missing = opts.procs;
        let deadline = Instant::now() + Duration::from_secs(300);
        while missing > 0 {
            let wait = deadline.saturating_duration_since(Instant::now());
            match hub
                .event_timeout(wait)
                .expect("wire world stalled waiting for rank results")
            {
                HubEvent::Result { rank, body } => {
                    let r = R::from_bytes(&body)
                        .unwrap_or_else(|| panic!("undecodable result from rank {rank}"));
                    assert!(
                        results[rank].replace(r).is_none(),
                        "duplicate result from rank {rank}"
                    );
                    missing -= 1;
                }
                HubEvent::Msg(e) => {
                    panic!("wire: data frame from rank {} reached the parent", e.src)
                }
                HubEvent::Down { rank, error } => assert!(
                    results[rank].is_some(),
                    "wire rank {rank} hung up before its result ({error}); \
                     check that WireOptions::child_args re-enter this world"
                ),
            }
        }
        let stats = hub.stats();
        let (statuses, trace) = hub.shutdown(None);
        for (rank, status) in statuses.into_iter().enumerate() {
            let status = status.expect("every symmetric rank is a child");
            assert!(status.success(), "wire rank {rank} exited with {status}");
        }
        WireRun {
            results: results.into_iter().flatten().collect(),
            stats,
            forwarded: 0,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::tests::read_frame;
    use std::io::Write;

    fn roundtrip<T: WireMessage + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).as_ref(), Some(&v), "roundtrip {v:?}");
        // Trailing garbage must be rejected by from_bytes.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(T::from_bytes(&longer).is_none() || bytes.is_empty());
    }

    #[test]
    fn wire_codec_roundtrips() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-1i32);
        roundtrip(i64::MIN);
        roundtrip(3.5f32);
        roundtrip(-0.125f64);
        roundtrip(true);
        roundtrip(());
        roundtrip(String::from("héllo wörld"));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip((42usize, vec![-7i64]));
        roundtrip(Some(vec![(1u32, false), (2, true)]));
        roundtrip(Option::<u64>::None);
    }

    #[test]
    fn wire_codec_rejects_truncation() {
        let v = (String::from("abc"), vec![1u64, 2]);
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                <(String, Vec<u64>)>::from_bytes(&bytes[..cut]).is_none(),
                "accepted a {cut}-byte prefix"
            );
        }
    }

    /// Pair a `WireTransport` endpoint — rank 7 of an 8-rank hub world,
    /// connected through [`WireTransport::connect_env`] — with an
    /// in-test parent that runs the hub's side of the handshake (read
    /// the HELLO, send an all-absent TABLE) and hands back its socket.
    fn loopback_pair() -> (WireTransport<u64>, TcpStream) {
        const PROCS: usize = 8;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let env = ChildEnv {
            world_id: "loopback".into(),
            rank: 7,
            procs: PROCS,
            addr: listener.local_addr().expect("addr").to_string(),
            trace_dir: None,
            hub: true,
        };
        let child = std::thread::spawn(move || WireTransport::<u64>::connect_env(&env));
        let (server, _) = listener.accept().expect("accept");
        let (kind, rank, _) = read_frame(&server).expect("hello");
        assert_eq!((kind, rank), (link::HELLO, 7));
        (&server)
            .write_all(&link::table(vec![String::new(); PROCS]))
            .expect("table");
        (
            child.join().expect("connect thread").expect("connect"),
            server,
        )
    }

    #[test]
    fn closed_peer_yields_error_not_panic() {
        let (t, server) = loopback_pair();
        drop(server);
        // recv: EOF at the frame boundary is a clean peer death.
        assert_eq!(t.try_recv().unwrap_err(), TransportError::PeerClosed);
        // send: once the death is known, a send is an error — never a
        // panic.
        assert_eq!(t.try_send(7, 0, 1, 99), Err(TransportError::PeerClosed));
    }

    #[test]
    fn truncated_frame_yields_error_not_panic() {
        let (t, server) = loopback_pair();
        // A MSG header promising 8 payload bytes, then hang up after
        // delivering only 3.
        let frame = link::frame(link::MSG, 5, |b| 7u64.encode(b));
        (&server).write_all(&frame[..12]).expect("partial frame");
        drop(server);
        assert_eq!(t.try_recv().unwrap_err(), TransportError::Truncated);
    }

    #[test]
    fn undecodable_payload_yields_error_not_panic() {
        let (t, server) = loopback_pair();
        // A complete frame whose 3-byte body cannot decode as u64.
        (&server)
            .write_all(&link::frame(link::MSG, 5, |b| b.extend([1, 2, 3])))
            .expect("bad frame");
        assert_eq!(t.try_recv().unwrap_err(), TransportError::Undecodable);
    }

    #[test]
    fn wire_ping_pong_two_processes() {
        let opts = WireOptions::for_test(2, "transport::tests::wire_ping_pong_two_processes");
        let run = WireWorld::run(&opts, |r: &mut Rank<u64, WireTransport<u64>>| {
            if r.id() == 0 {
                r.send(1, 0, 42);
                r.recv(1, 0)
            } else {
                let v = r.recv(0, 0);
                r.send(0, 0, v + 1);
                v
            }
        });
        assert_eq!(run.results, vec![43, 42]);
        assert_eq!(run.stats.messages, 2);
        assert_eq!(run.stats.bytes, 16, "modeled bytes, same as local");
        assert_eq!(run.forwarded, 0, "data never crosses the parent");
        assert!(run.trace.is_none());
    }

    #[test]
    #[should_panic(expected = "wire: data frame from rank 1 reached the parent")]
    fn wire_parent_refuses_to_relay_a_data_frame() {
        // There is no two-hop path: rank 1 hands the parent a data frame
        // (the rankless parent can only relay it to a sibling), and the
        // parent panics instead of relaying.
        let path = "transport::tests::wire_parent_refuses_to_relay_a_data_frame";
        if WireWorld::child_world_id().as_deref() == Some(path)
            && std::env::var(ENV_RANK).as_deref() == Ok("1")
        {
            crate::hub::tests::relaying_child(&link::frame(link::MSG, 7, |b| 555u64.encode(b)));
        }
        let opts = WireOptions::for_test(2, path);
        WireWorld::run(&opts, |r: &mut Rank<u64, WireTransport<u64>>| r.id() as u64);
    }

    #[test]
    fn wire_parent_names_a_rank_that_exits_before_its_result() {
        let opts = WireOptions::for_test(
            2,
            "transport::tests::wire_parent_names_a_rank_that_exits_before_its_result",
        );
        let start = Instant::now();
        let run = std::panic::catch_unwind(|| {
            WireWorld::run(&opts, |r: &mut Rank<u64, WireTransport<u64>>| {
                if r.id() == 1 {
                    // A clean exit status, but no result frame.
                    std::process::exit(0);
                }
                0
            })
        });
        let Err(err) = run else {
            panic!("a rank that exits before its result must fail the world")
        };
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.contains("wire rank 1 hung up before its result"),
            "{msg}"
        );
        assert!(msg.contains("WireOptions::child_args"), "{msg}");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "the failure took {:?} to surface",
            start.elapsed()
        );
    }

    #[test]
    #[should_panic(expected = "wire transport: send from rank 7 to rank 0")]
    fn send_to_closed_peer_panics_with_context_not_expect() {
        // Satellite pin: the infallible Transport::send must surface a
        // dead parent as a contextual panic routed through the typed
        // error path — not a bare `expect`.
        let (t, server) = loopback_pair();
        drop(server);
        for _ in 0..2000 {
            t.send(7, 0, 1, 99);
            std::thread::sleep(Duration::from_millis(1));
        }
        unreachable!("send to a closed peer never panicked");
    }

    #[test]
    fn wire_drain_delivers_queued_frames_after_sender_exit() {
        // Satellite pin: shutdown may not race the write queues — every
        // frame queued before a rank exits must still be delivered (the
        // child's own peer queue, flushed by `finish`).
        const K: u64 = 50;
        let opts = WireOptions::for_test(
            2,
            "transport::tests::wire_drain_delivers_queued_frames_after_sender_exit",
        );
        let run = WireWorld::run(&opts, |r: &mut Rank<u64, WireTransport<u64>>| {
            if r.id() == 1 {
                // Fire a burst and exit immediately: every frame is
                // queued (or in flight) when this rank's process dies.
                for i in 0..K {
                    r.send(0, 3, i);
                }
                0
            } else {
                // Give the sender time to be long gone before reading.
                std::thread::sleep(Duration::from_millis(200));
                (0..K).map(|_| r.recv(1, 3)).sum()
            }
        });
        assert_eq!(
            run.results[0],
            (0..K).sum::<u64>(),
            "a queued frame was dropped"
        );
    }

    #[test]
    fn wire_tag_matching_and_recv_any_across_processes() {
        let opts = WireOptions::for_test(
            3,
            "transport::tests::wire_tag_matching_and_recv_any_across_processes",
        );
        let run = WireWorld::run(&opts, |r: &mut Rank<u64, WireTransport<u64>>| {
            match r.id() {
                0 => {
                    // Out-of-order tags from rank 1: matching must buffer.
                    let a = r.recv(1, 1);
                    let b = r.recv(1, 2);
                    assert_eq!((a, b), (100, 200));
                    let (src, v) = r.recv_any(9);
                    assert_eq!((src, v), (2, 900));
                    a + b + v
                }
                1 => {
                    r.send(0, 2, 200);
                    r.send(0, 1, 100);
                    0
                }
                _ => {
                    r.send(0, 9, 900);
                    0
                }
            }
        });
        assert_eq!(run.results, vec![1200, 0, 0]);
        assert_eq!(run.stats.messages, 3);
    }

    #[test]
    fn wire_world_runs_the_full_collective_suite() {
        // The acceptance bar for the seam: every collective in
        // crate::coll, unchanged, over ranks that are OS processes.
        use crate::coll;
        let p = 3;
        let opts = WireOptions::for_test(
            p,
            "transport::tests::wire_world_runs_the_full_collective_suite",
        );
        let run = WireWorld::run(&opts, |r: &mut Rank<Vec<i64>, WireTransport<Vec<i64>>>| {
            let p = r.size();
            let me = r.id() as i64;
            coll::barrier(r);

            let v = coll::broadcast(r, 0, (r.id() == 0).then(|| vec![7, 8]));
            assert_eq!(v, vec![7, 8]);

            let red = coll::reduce(r, 1, vec![me], |mut a, b| {
                a.extend(b);
                a
            });
            if r.id() == 1 {
                let mut got = red.expect("root result");
                got.sort_unstable();
                assert_eq!(got, vec![0, 1, 2]);
            } else {
                assert!(red.is_none());
            }

            let all = coll::allreduce(r, vec![me * 10], |mut a, b| {
                a.extend(b);
                a
            });
            assert_eq!(all.len(), p);

            let gathered = coll::gather(r, 0, vec![me, me]);
            if r.id() == 0 {
                assert_eq!(
                    gathered.expect("root"),
                    vec![vec![0, 0], vec![1, 1], vec![2, 2]]
                );
            }

            let mine = coll::scatter(
                r,
                2,
                (r.id() == 2).then(|| (0..p as i64).map(|i| vec![100 + i]).collect()),
            );
            assert_eq!(mine, vec![100 + me]);

            let ag = coll::allgather(r, vec![me * 2]);
            assert_eq!(ag, vec![vec![0], vec![2], vec![4]]);

            let summed = coll::ring_allreduce(r, vec![me; 6], |a, b| a + b);
            assert_eq!(summed, vec![3; 6]);

            let prefix = coll::exclusive_scan(r, vec![], vec![me + 1], |mut a, b| {
                a.extend(b);
                a
            });
            assert_eq!(prefix, (1..=me).collect::<Vec<i64>>());

            let exchanged = coll::alltoall(r, (0..p as i64).map(|j| vec![me * 10 + j]).collect());
            for (src, got) in exchanged.iter().enumerate() {
                assert_eq!(got, &vec![src as i64 * 10 + me]);
            }

            coll::barrier(r);
            vec![me]
        });
        assert_eq!(run.results, vec![vec![0], vec![1], vec![2]]);
        // Exact message counts carry over the wire: two barriers plus
        // the nine data collectives, per the cost-model formulas.
        use crate::cost;
        let want = 2 * cost::barrier_msgs(p as u64)
            + cost::broadcast_msgs(p as u64) * 2          // broadcast + reduce
            + cost::allreduce_msgs(p as u64)
            + (p as u64 - 1) * 3                          // gather, scatter, scan
            + cost::allgather_msgs(p as u64)
            + cost::ring_allreduce_msgs(p as u64)
            + cost::allgather_msgs(p as u64); // alltoall: p(p−1)
        assert_eq!(run.stats.messages, want);
        assert_eq!(
            run.forwarded, 0,
            "acceptance witness: every child↔child message is one hop"
        );
    }

    #[test]
    fn wire_traced_world_merges_per_process_snapshots() {
        let dir = std::env::temp_dir().join(format!("pdc-wire-trace-{}", std::process::id()));
        let opts = WireOptions::for_test(
            2,
            "transport::tests::wire_traced_world_merges_per_process_snapshots",
        )
        .traced(&dir);
        let run = WireWorld::run(&opts, |r: &mut Rank<u64, WireTransport<u64>>| {
            if r.id() == 0 {
                r.send(1, 0, 5);
                0
            } else {
                r.recv(0, 0)
            }
        });
        assert_eq!(run.results, vec![0, 5]);
        let merged = run.trace.expect("traced run yields a merged trace");
        assert_eq!(merged.processes.len(), 2);
        // Summed counters match the parent's count from RESULT frames.
        assert_eq!(merged.counter("mpi.msgs"), run.stats.messages);
        assert_eq!(merged.counter("mpi.bytes"), run.stats.bytes);
        // Rank 0 counted its send locally; rank 1 sent nothing.
        assert_eq!(merged.processes[0].counters.get("mpi.msgs"), Some(&1));
        assert_eq!(merged.processes[1].counters.get("mpi.msgs"), Some(&0));
        // The schema-3 export carries per-event process ids.
        let json = merged.to_json(&[]);
        assert!(json.starts_with("{\"schema\":\"pdc-trace/3\""));
        assert!(json.contains("\"process\":1"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
