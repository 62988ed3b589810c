//! The parent side of every wire world: the launcher and the one
//! control plane over the child ranks' connections.
//!
//! A wire world comes in two shapes, fixed by the API the caller uses:
//!
//! * **Hub world** ([`WireHub::spawn`]): this process is rank 0 and
//!   takes part in the protocol; child ranks 1..=p talk to it over the
//!   same frame protocol. A serving system needs this shape: the
//!   front-end tier lives here and — crucially — **survives a child
//!   dying**. A broken connection becomes a [`HubEvent::Down`]
//!   carrying the [`TransportError`] the hub observed, so a
//!   replication layer (see `pdc-db`'s `serve` module) can promote a
//!   backup and rebalance instead of inheriting a crash.
//! * **Symmetric world** ([`crate::transport::WireWorld::run`]): child
//!   ranks 0..p, and the parent has no rank. It reads the same events
//!   and turns any `Msg`, or a `Down` before that rank's result, into a
//!   panic that names the rank.
//!
//! Both shapes spawn and bootstrap their children here, the only place
//! children are launched, and both end in [`WireHub::shutdown`], which
//! reaps them and merges the per-rank trace snapshots they wrote with
//! [`ChildEnv::write_trace`](crate::transport::ChildEnv::write_trace).
//! A hub dropped without `shutdown` — a parent that panics — SIGKILLs
//! and reaps its children instead.
//!
//! The hub is the crate's link engine (see [`crate::transport`]) plus
//! what only a parent owns: the events it surfaces, the traffic it
//! counts, and the child processes. Every child connection (and any
//! caller-registered fd — see [`WireHub::register_client`]) lives on one
//! [`Poller`](crate::poll::Poller), serviced by [`WireHub::pump`], whose
//! one `poll(2)` queues the children's frames as events and hands the
//! caller's ready fds back to it. Writes
//! go through userspace queues, so a stalled child can never wedge the
//! hub; queued frames survive until delivered or the destination dies
//! (shutdown drains the queues before reaping).
//!
//! Bootstrap runs on that poller too: each child's HELLO names its
//! connection, a child that exits first is claimed between sweeps, and
//! once none is pending each live child gets the TABLE.
//!
//! Child↔child traffic never touches the hub: children hold direct mesh
//! connections, and no frame names a destination, so there is nothing
//! to relay. A child's link stops at its first bad frame — an unknown
//! kind, or a `MSG` that does not decode — with a [`HubEvent::Down`]
//! carrying [`TransportError::Undecodable`]; nothing behind that frame
//! surfaces or counts. A `Dead` link is the one claim on a rank's death:
//! its [`HubEvent::Down`] fires at most once, and an external detector (a
//! heartbeat monitor) can claim the death first via
//! [`WireHub::report_dead`], so a later socket error for it is silent.

use crate::link::{self, Input, Link, Links};
use crate::poll::{send_signal, Event, Interest, SIGCONT, SIGSTOP};
use crate::transport::{self, snapshot_path, Envelope, TransportError, WireMessage, WireOptions};
use crate::world::{Traffic, TrafficStats};
use pdc_core::merge::{self, MergedTrace};
use pdc_core::trace::TraceSession;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::net::TcpListener;
use std::os::fd::RawFd;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// What the hub's event loop surfaces to the owning process.
#[derive(Debug)]
pub enum HubEvent<M> {
    /// A message addressed to rank 0 (the hub process itself).
    Msg(Envelope<M>),
    /// Child `rank`'s connection died: clean hang-up, torn frame, or a
    /// payload that would not decode. Emitted **at most once per
    /// rank** — across every detection path (read EOF, write failure,
    /// bootstrap death) — after every message that arrived before the
    /// failure. A death claimed by [`WireHub::report_dead`] first is
    /// never emitted at all.
    Down {
        /// The rank whose connection failed.
        rank: usize,
        /// How the failure presented at the transport layer.
        error: TransportError,
    },
    /// Child `rank` delivered its `RESULT` frame (a clean exit).
    Result {
        /// The reporting rank.
        rank: usize,
        /// The undecoded result payload.
        body: Vec<u8>,
    },
}

/// Caller-registered fds get tokens offset past the engine's own (ranks,
/// then bootstrap's listener and connections), wrapping: the poller only
/// needs distinct tokens, so the few caller tokens that would wrap into
/// that range, just above `u64::MAX - 2^32`, are reserved.
const USER_BASE: usize = 1 << 32;

/// The hub's single-threaded mutable state, behind a [`RefCell`] so the
/// public API can stay `&self` (the serve front end holds the hub and
/// its own connections in one loop).
struct HubInner<M> {
    /// By rank; a hub world's link 0 (the hub itself) is `Me`. A `Dead`
    /// link is the one claim on that rank's death.
    links: Links,
    events: VecDeque<HubEvent<M>>,
    /// The caller-registered fds the latest sweep found ready, under the
    /// caller's tokens.
    ready: Vec<Event>,
    traffic: Traffic,
    /// By rank, the listener each child's HELLO named: the TABLE entries.
    addrs: Vec<String>,
}

impl<M: WireMessage> HubInner<M> {
    /// Run one engine call, turning what it hands back into events: a
    /// `MSG` or `RESULT` also counts its traffic, a HELLO records its
    /// address, and a caller-registered fd (see
    /// [`WireHub::register_client`]) joins `ready`.
    fn with_links<R>(&mut self, call: impl FnOnce(&mut Links, &mut dyn FnMut(Input<M>)) -> R) -> R {
        let HubInner {
            links,
            events,
            ready,
            traffic,
            addrs,
        } = self;
        call(links, &mut |input| {
            events.push_back(match input {
                Input::Msg(e) => {
                    traffic.count(1, e.msg.size_bytes());
                    HubEvent::Msg(e)
                }
                Input::Result { rank, stats, body } => {
                    traffic.count(stats.messages, stats.bytes);
                    HubEvent::Result { rank, body }
                }
                Input::Down { rank, error } => HubEvent::Down { rank, error },
                Input::Hello { rank, addr } => return addrs[rank] = addr,
                Input::Other(ev) => {
                    let token = ev.token.wrapping_sub(USER_BASE);
                    return ready.push(Event { token, ..ev });
                }
                Input::Table(_) => return,
            });
        })
    }

    /// One readiness sweep over every connection, waiting up to
    /// `timeout`; `ready` holds what it found of the caller's fds.
    fn sweep(&mut self, timeout: Duration) {
        self.ready.clear();
        self.with_links(|l, out| l.sweep(Some(timeout), out))
            .expect("hub: poll");
    }
}

/// A live wire world seen from its parent: child rank processes
/// `first..first + procs`, where `first` is 1 for a hub world (this
/// process is rank 0) and 0 for the symmetric world. Dropping the hub
/// without [`WireHub::shutdown`] SIGKILLs and reaps every child.
pub struct WireHub<M: WireMessage> {
    inner: RefCell<HubInner<M>>,
    /// The rank of `children[0]`.
    first: usize,
    children: Vec<Child>,
    trace_dir: Option<PathBuf>,
}

impl<M: WireMessage> WireHub<M> {
    /// Spawn `opts.procs` child rank processes (ranks 1..=procs; this
    /// process is rank 0) and start routing. Children see a world of
    /// `opts.procs + 1` ranks.
    ///
    /// Bootstrap is fault-tolerant: a child that dies before or during
    /// its handshake (even SIGKILLed halfway through) becomes an
    /// immediate [`HubEvent::Down`] instead of a panic or a hang, and
    /// its table entry stays empty so no peer ever dials or waits on it.
    pub fn spawn(opts: &WireOptions) -> io::Result<WireHub<M>> {
        Self::launch(opts, 1)
    }

    /// Spawn `opts.procs` children as ranks `first..first + procs` and
    /// bootstrap their mesh: 1 for [`WireHub::spawn`], 0 for the
    /// symmetric world of [`crate::transport::WireWorld::run`].
    pub(crate) fn launch(opts: &WireOptions, first: usize) -> io::Result<WireHub<M>> {
        let p = opts.procs;
        assert!(p > 0, "a wire world needs at least one child rank");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let world = first + p;
        let links = (0..world).map(|r| if r < first { Link::Me } else { Link::Pending });
        let mut links = Links::new(links.collect());
        links.listen(listener)?;

        // The hub owns each child from its spawn on, so a launch that
        // fails or panics part-way kills the children it started.
        let mut hub = WireHub {
            inner: RefCell::new(HubInner {
                links,
                events: VecDeque::new(),
                ready: Vec::new(),
                traffic: Traffic::default(),
                addrs: vec![String::new(); world],
            }),
            first,
            children: Vec::with_capacity(p),
            trace_dir: opts.trace_dir.clone(),
        };
        for rank in first..world {
            hub.children
                .push(spawn_rank(opts, rank, world, &addr, first == 1)?);
        }
        hub.bootstrap();
        Ok(hub)
    }

    /// Sweep until every child has said hello or exited, then send each
    /// live child the TABLE and stop listening. A child that dies before
    /// or after its hello gets its `Down` queued and an empty entry.
    fn bootstrap(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(60);
        let inner = self.inner.get_mut();
        let ranks = self.first..self.first + self.children.len();
        let pending = |l: &Links| ranks.clone().any(|r| matches!(l.get(r), Link::Pending));
        while pending(&inner.links) {
            for (rank, child) in ranks.clone().zip(&mut self.children) {
                if matches!(inner.links.get(rank), Link::Pending)
                    && child.try_wait().expect("wire hub: try_wait").is_some()
                {
                    let error = TransportError::PeerClosed;
                    inner.links.kill(rank, error);
                    inner.events.push_back(HubEvent::Down { rank, error });
                }
            }
            assert!(
                Instant::now() < deadline,
                "wire hub: ranks failed to connect within 60s"
            );
            // A child that exits before its hello wakes no poll.
            inner.sweep(Duration::from_millis(10));
        }
        // A hub world's own rank 0 owns no data connections.
        let addrs = (0..ranks.end).map(|r| match inner.links.get(r) {
            Link::Up(_) => std::mem::take(&mut inner.addrs[r]),
            _ => String::new(),
        });
        let table = link::table(addrs.collect());
        for rank in ranks.clone() {
            // A child that died since its hello fails here, or already has.
            let _ = inner.with_links(|l, out| l.send(rank, table.clone(), out));
        }
        inner.links.stop_listening();
    }

    /// Index into `children` of child rank `rank`; panics on a rank
    /// this hub did not spawn.
    fn child_index(&self, rank: usize) -> usize {
        let i = rank.wrapping_sub(self.first);
        assert!(i < self.children.len(), "hub: no child rank {rank}");
        i
    }

    /// Send `msg` from rank 0 to child rank `dst`. The frame is queued
    /// and flushed opportunistically — a full socket buffer queues in
    /// userspace rather than blocking the caller. `Err(PeerClosed)`
    /// means the child is already known dead; a failure detected *by*
    /// this send surfaces as a [`HubEvent::Down`] like any other.
    pub fn send(&self, dst: usize, tag: u32, msg: &M) -> Result<(), TransportError> {
        self.child_index(dst);
        let mut inner = self.inner.borrow_mut();
        inner.traffic.count(1, msg.size_bytes());
        let frame = link::frame(link::MSG, tag, |b| msg.encode(b));
        inner.with_links(|l, out| l.send(dst, frame, out))
    }

    /// Next queued event, if any. It makes no syscall: events queue
    /// when a [`WireHub::pump`] reads the children's frames, or when a
    /// send finds a child dead.
    pub fn pop_event(&self) -> Option<HubEvent<M>> {
        self.inner.borrow_mut().events.pop_front()
    }

    /// Next pending event, waiting up to `timeout`. Readiness of
    /// caller-registered fds that its sweeps find is not kept: a caller
    /// with fds of its own waits in [`WireHub::pump`].
    pub fn event_timeout(&self, timeout: Duration) -> Option<HubEvent<M>> {
        let deadline = Instant::now() + timeout;
        loop {
            let mut inner = self.inner.borrow_mut();
            if let Some(ev) = inner.events.pop_front() {
                return Some(ev);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            inner.sweep(deadline - now);
        }
    }

    /// Run one readiness sweep — a single `poll(2)` — over every
    /// connection the hub knows, children **and** caller-registered
    /// fds, waiting up to `timeout` for something to happen, or not at
    /// all when an event is already queued. This is the blocking point
    /// of an event-loop front end: it wakes on the first byte from any
    /// direction. The children's frames queue as events for
    /// [`WireHub::pop_event`]; `ready` is filled with the caller's fds
    /// that the poll reported, each [`Event::token`] the `token` it was
    /// registered under, and nothing else, so the caller touches only
    /// those.
    pub fn pump(&self, timeout: Duration, ready: &mut Vec<Event>) {
        let mut inner = self.inner.borrow_mut();
        let timeout = if inner.events.is_empty() {
            timeout
        } else {
            Duration::ZERO
        };
        inner.sweep(timeout);
        std::mem::swap(ready, &mut inner.ready);
    }

    /// Poll a caller-owned fd (e.g. a client socket or listener) under
    /// `token` for `interest`, beside the children's connections;
    /// [`WireHub::pump`] reports it when it turns ready. Registering a
    /// token again changes what its fd is polled for — writable only
    /// while the caller has bytes queued for it, say. The fd must
    /// outlive the registration.
    pub fn register_client(&self, fd: RawFd, token: u64, interest: Interest) {
        self.inner
            .borrow_mut()
            .links
            .watch(fd, USER_BASE.wrapping_add(token as usize), interest);
    }

    /// Forget a caller-registered fd. No-op if absent.
    pub fn deregister_client(&self, token: u64) {
        self.inner
            .borrow_mut()
            .links
            .unwatch(USER_BASE.wrapping_add(token as usize));
    }

    /// Kill child rank `rank`'s process (SIGKILL). The death then flows
    /// through the normal failure path: EOF → [`HubEvent::Down`] with
    /// [`TransportError::PeerClosed`]. This is the fault-injection hook
    /// the serve gate uses; a real crash looks identical.
    pub fn kill(&mut self, rank: usize) -> io::Result<()> {
        let i = self.child_index(rank);
        self.children[i].kill()
    }

    /// SIGSTOP child rank `rank`: the process freezes but its sockets
    /// stay open, so **only a heartbeat detector** can tell it is gone
    /// — the fault-injection hook for testing detector-vs-socket races.
    pub fn pause(&self, rank: usize) -> io::Result<()> {
        send_signal(self.children[self.child_index(rank)].id(), SIGSTOP)
    }

    /// SIGCONT a paused child.
    pub fn resume(&self, rank: usize) -> io::Result<()> {
        send_signal(self.children[self.child_index(rank)].id(), SIGCONT)
    }

    /// An external failure detector (heartbeat expiry) claims `rank`'s
    /// death: tear down the connection **without** emitting a `Down`
    /// event (the caller IS the detector — it already knows). Returns
    /// `false` if the death was already reported or claimed, so exactly
    /// one detection wins no matter how signals race.
    pub fn report_dead(&self, rank: usize) -> bool {
        self.child_index(rank);
        self.inner
            .borrow_mut()
            .links
            .kill(rank, TransportError::PeerClosed)
    }

    /// Traffic the hub has counted: its own sends, the messages
    /// children addressed to it (by [`crate::Payload::size_bytes`]),
    /// and the totals children report in `RESULT` frames — a symmetric
    /// world's whole traffic, since its data never passes the parent.
    pub fn stats(&self) -> TrafficStats {
        self.inner.borrow().traffic.stats()
    }

    /// Drain every outbound write queue (bounded), then reap every
    /// child. Draining before reaping is what guarantees frames queued
    /// during a stop/exit protocol reach slow children even after their
    /// faster peers are already gone.
    ///
    /// Returns exit statuses by rank (a hub world's own rank 0 is
    /// `None`; killed children report their signal status rather than
    /// failing the shutdown) and, in a traced world, the one merge of
    /// the per-rank snapshots: `own` — this process's session, the hub
    /// world's rank 0 — as process 0, then every child that wrote a
    /// snapshot (a rank killed before it could is left out).
    pub fn shutdown(
        mut self,
        own: Option<&TraceSession>,
    ) -> (Vec<Option<ExitStatus>>, Option<MergedTrace>) {
        self.inner
            .get_mut()
            .with_links(|l, out| l.flush_all(Duration::from_secs(10), out));
        let mut statuses = vec![None; self.first];
        for c in &mut self.children {
            statuses.push(Some(c.wait().expect("hub: wait for child")));
        }
        let trace = self.trace_dir.as_ref().map(|dir| {
            let own = own.map(|s| {
                let json = s.to_json_with_meta(&[("process", "0".to_string())]);
                merge::parse_trace(&json, 0).expect("parse this process's own trace")
            });
            let children = (self.first..self.first + self.children.len()).filter_map(|rank| {
                let path = snapshot_path(dir, rank);
                let text = std::fs::read_to_string(&path).ok()?;
                Some(
                    merge::parse_trace(&text, rank as u32)
                        .unwrap_or_else(|e| panic!("parse {}: {e}", path.display())),
                )
            });
            MergedTrace::merge(own.into_iter().chain(children).collect())
        });
        (statuses, trace)
    }
}

impl<M: WireMessage> Drop for WireHub<M> {
    /// SIGKILL and reap every child [`WireHub::shutdown`] did not, so a
    /// parent that panics mid-world leaves no process behind — not even
    /// a SIGSTOPped one, which would never see its connection close.
    fn drop(&mut self) {
        for c in &mut self.children {
            // Both calls are no-ops on a child already reaped.
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Spawn one rank process: re-execute the current binary with
/// `opts.child_args` and the child env markers set. `world` is the
/// world size as the child sees it; `hub` tells it rank 0 is this
/// process rather than a peer.
fn spawn_rank(
    opts: &WireOptions,
    rank: usize,
    world: usize,
    addr: &str,
    hub: bool,
) -> io::Result<Child> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(&opts.child_args)
        .env(transport::ENV_WORLD, &opts.world_id)
        .env(transport::ENV_RANK, rank.to_string())
        .env(transport::ENV_PROCS, world.to_string())
        .env(transport::ENV_ADDR, addr)
        .stdout(Stdio::null());
    if hub {
        cmd.env(transport::ENV_HUB, "1");
    }
    if let Some(dir) = &opts.trace_dir {
        cmd.env(transport::ENV_TRACE_DIR, dir);
    }
    cmd.spawn()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::link::tests::{dropped, read_frame};
    use crate::transport::Transport;
    use crate::WireWorld;
    use std::io::Write;
    use std::net::TcpStream;

    /// Child entry for the hub tests: echo every (tag, value) back to
    /// the hub with the value incremented, exit on tag 99.
    fn echo_child() -> ! {
        let env = transport::take_child_env().expect("hub child env");
        let t: crate::WireTransport<u64> =
            crate::WireTransport::connect_env(&env).expect("hub child connect");
        loop {
            match t.try_recv() {
                Ok(env) if env.tag == 99 => std::process::exit(0),
                Ok(e) => {
                    // Peer-addressed probe: value 1000+r means "poke
                    // rank r", exercising peer-direct child→child
                    // traffic.
                    if e.msg >= 1000 {
                        let dst = (e.msg - 1000) as usize;
                        t.try_send(0, dst, 7, 555).expect("fwd");
                    } else {
                        t.try_send(0, 0, e.tag, e.msg + 1).expect("echo");
                    }
                }
                Err(_) => std::process::exit(0),
            }
        }
    }

    /// Child entry for the drain test: count tag-7 strings, report the
    /// count on tag 99, exit.
    fn slurp_child() -> ! {
        let env = transport::take_child_env().expect("hub child env");
        let t: crate::WireTransport<String> =
            crate::WireTransport::connect_env(&env).expect("hub child connect");
        let mut count = 0u64;
        loop {
            match t.try_recv() {
                Ok(e) if e.tag == 99 => {
                    t.try_send(0, 0, 9, count.to_string()).expect("report");
                    std::process::exit(0);
                }
                Ok(_) => count += 1,
                Err(_) => std::process::exit(1),
            }
        }
    }

    #[test]
    fn hub_routes_and_reports_child_death() {
        let path = "hub::tests::hub_routes_and_reports_child_death";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            echo_child();
        }
        let mut hub: WireHub<u64> = WireHub::spawn(&WireOptions::for_test(2, path)).expect("spawn");

        // Round-trip to both children.
        hub.send(1, 3, &10).expect("send");
        hub.send(2, 4, &20).expect("send");
        let mut got = Vec::new();
        while got.len() < 2 {
            match hub.event_timeout(Duration::from_secs(10)).expect("event") {
                HubEvent::Msg(e) => got.push((e.src, e.tag, e.msg)),
                other => panic!("unexpected {other:?}"),
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![(1, 3, 11), (2, 4, 21)]);

        // Child→child: ask rank 1 to poke rank 2; rank 2 echoes the
        // poke (555 + 1) back to us.
        hub.send(1, 5, &1002).expect("send");
        match hub.event_timeout(Duration::from_secs(10)).expect("event") {
            HubEvent::Msg(e) => assert_eq!((e.src, e.msg), (2, 556)),
            other => panic!("unexpected {other:?}"),
        }

        // Kill rank 1: the death must surface as Down(PeerClosed), not
        // a panic anywhere in the router.
        hub.kill(1).expect("kill");
        match hub.event_timeout(Duration::from_secs(10)).expect("down") {
            HubEvent::Down { rank, error } => {
                assert_eq!(rank, 1);
                assert_eq!(error, TransportError::PeerClosed);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Rank 2 still serves.
        hub.send(2, 6, &30).expect("send");
        match hub.event_timeout(Duration::from_secs(10)).expect("event") {
            HubEvent::Msg(e) => assert_eq!((e.src, e.msg), (2, 31)),
            other => panic!("unexpected {other:?}"),
        }
        // Sending to the dead rank is a typed error, not a panic.
        assert_eq!(hub.send(1, 3, &1), Err(TransportError::PeerClosed));

        hub.send(2, 99, &0).expect("stop");
        let (statuses, _) = hub.shutdown(None);
        assert!(statuses[2].expect("rank 2 status").success());
        assert!(!statuses[1].expect("rank 1 status").success(), "killed");
    }

    /// Child entry for the raw-frame tests: say hello by hand, with
    /// `frames` behind it in the same write — frames no
    /// [`crate::WireTransport`] would send. Exit once the parent hangs
    /// up.
    pub(crate) fn relaying_child(frames: &[u8]) -> ! {
        let env = transport::take_child_env().expect("hub child env");
        let parent = TcpStream::connect(&env.addr).expect("connect");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut hello = link::hello(env.rank, &addr);
        hello.extend_from_slice(frames);
        (&parent).write_all(&hello).expect("hello and raw frames");
        // The table arrives first, then EOF once the hub drops us.
        let _ = std::io::copy(&mut (&parent), &mut std::io::sink());
        std::process::exit(0);
    }

    #[test]
    fn hub_stops_a_link_at_its_first_bad_frame() {
        let path = "hub::tests::hub_stops_a_link_at_its_first_bad_frame";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            if std::env::var(transport::ENV_RANK).as_deref() == Ok("1") {
                // A MSG whose 3-byte payload is no u64, then a good one,
                // in one write: both land in one read.
                let mut frames = link::frame(link::MSG, 7, |b| b.extend([1, 2, 3]));
                frames.extend(link::frame(link::MSG, 7, |b| 555u64.encode(b)));
                relaying_child(&frames);
            }
            echo_child();
        }
        let hub: WireHub<u64> = WireHub::spawn(&WireOptions::for_test(2, path)).expect("spawn");
        match hub.event_timeout(Duration::from_secs(10)).expect("down") {
            HubEvent::Down { rank, error } => {
                assert_eq!(rank, 1);
                assert_eq!(error, TransportError::Undecodable);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Rank 2 keeps serving; the good frame behind the bad one never
        // surfaces, so rank 2's echo is the next event.
        hub.send(2, 4, &20).expect("send");
        match hub.event_timeout(Duration::from_secs(10)).expect("event") {
            HubEvent::Msg(e) => assert_eq!((e.src, e.tag, e.msg), (2, 4, 21)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            hub.stats().messages,
            2,
            "neither of rank 1's frames is traffic"
        );
        // Rank 1 exits once the hub drops its link: no second Down.
        if let Some(ev) = hub.event_timeout(Duration::from_millis(200)) {
            panic!("unexpected {ev:?}");
        }
        hub.send(2, 99, &0).expect("stop");
        let (statuses, _) = hub.shutdown(None);
        assert!(statuses[1].expect("rank 1 status").success());
        assert!(statuses[2].expect("rank 2 status").success());
    }

    /// Rank 1 of the stray test. While the hub waits for this rank, knock
    /// on its loopback listener with one stray per connection and see
    /// each dropped. Then join by hand, saying hello on two connections:
    /// the hello the hub reads first names the link, and the other is
    /// dropped. Report the result 1 on the one that got the TABLE.
    fn stray_child() -> ! {
        let env = transport::take_child_env().expect("stray child env");
        let knock = |bytes: &[u8]| {
            let s = TcpStream::connect(&env.addr).expect("stray connect");
            (&s).write_all(bytes).expect("stray bytes");
            s
        };
        let strays = [
            // Hellos for ranks nobody spawned.
            link::hello(2, "127.0.0.1:9"),
            link::hello(u32::MAX as usize, ""),
            // A first frame that is no hello, and bytes that are no frame.
            link::frame(link::MSG, 0, |b| 7u64.encode(b)),
            b"GET / HTTP/1.0\r\n\r\n".to_vec(),
        ];
        for bytes in &strays {
            assert!(dropped(&knock(bytes)), "the hub kept a stray");
        }
        drop(TcpStream::connect(&env.addr).expect("hang-up connect"));

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let hello = link::hello(env.rank, &listener.local_addr().expect("addr").to_string());
        // Both connect before either says hello: once one hello is in,
        // the hub may close its listener.
        let [a, b] = [(); 2].map(|()| TcpStream::connect(&env.addr).expect("connect"));
        for s in [&a, &b] {
            // A write after the hub dropped its connection may fail.
            let _ = (&*s).write_all(&hello);
        }
        let (parent, second) = if dropped(&a) { (b, a) } else { (a, b) };
        assert!(dropped(&second), "the hub kept both hellos");
        let (kind, _, _) = read_frame(&parent).expect("table");
        assert_eq!(kind, link::TABLE);
        let result = link::frame(link::RESULT, 0, |b| {
            (0u64, 0u64).encode(b);
            1u64.encode(b);
        });
        (&parent).write_all(&result).expect("result");
        std::process::exit(0);
    }

    #[test]
    fn bootstrap_drops_a_stray_hello_and_keeps_waiting() {
        let path = "hub::tests::bootstrap_drops_a_stray_hello_and_keeps_waiting";
        if WireWorld::child_world_id().as_deref() == Some(path)
            && std::env::var(transport::ENV_RANK).as_deref() == Ok("1")
        {
            stray_child();
        }
        let opts = WireOptions::for_test(2, path);
        let run = WireWorld::run(
            &opts,
            |r: &mut crate::Rank<u64, crate::WireTransport<u64>>| r.id() as u64,
        );
        assert_eq!(run.results, vec![0, 1]);
    }

    #[test]
    fn bootstrap_is_not_held_by_a_silent_connection() {
        let path = "hub::tests::bootstrap_is_not_held_by_a_silent_connection";
        // Each child first connects to the launcher and then says nothing
        // on that connection for as long as it lives.
        let _silent = (WireWorld::child_world_id().as_deref() == Some(path)).then(|| {
            let addr = std::env::var(transport::ENV_ADDR).expect("parent address");
            TcpStream::connect(addr).expect("silent connect")
        });
        let start = Instant::now();
        let opts = WireOptions::for_test(2, path);
        let run = WireWorld::run(
            &opts,
            |r: &mut crate::Rank<u64, crate::WireTransport<u64>>| r.id() as u64,
        );
        assert_eq!(run.results, vec![0, 1]);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the world took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn hub_deduplicates_overlapping_death_signals() {
        let path = "hub::tests::hub_deduplicates_overlapping_death_signals";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            echo_child();
        }
        let mut hub: WireHub<u64> = WireHub::spawn(&WireOptions::for_test(2, path)).expect("spawn");

        // An external detector (standing in for heartbeat expiry)
        // claims rank 1's death first...
        assert!(hub.report_dead(1), "first claim wins");
        assert!(!hub.report_dead(1), "second claim loses");
        // ...then the socket-level death fires for the same rank.
        hub.kill(1).expect("kill");

        // No Down event may surface: the detector already owns this
        // death. Sweep long enough for the EOF to be observed.
        let deadline = Instant::now() + Duration::from_millis(500);
        while Instant::now() < deadline {
            if let Some(ev) = hub.event_timeout(Duration::from_millis(50)) {
                panic!("dedup failed: unexpected event {ev:?}");
            }
        }

        // Rank 2 is unaffected.
        hub.send(2, 4, &20).expect("send");
        match hub.event_timeout(Duration::from_secs(10)).expect("event") {
            HubEvent::Msg(e) => assert_eq!((e.src, e.msg), (2, 21)),
            other => panic!("unexpected {other:?}"),
        }
        hub.send(2, 99, &0).expect("stop");
        hub.shutdown(None);
    }

    #[test]
    fn hub_boot_death_surfaces_as_down_not_hang() {
        let path = "hub::tests::hub_boot_death_surfaces_as_down_not_hang";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            // Rank 1 dies before completing its handshake; rank 2 is a
            // normal echo child. The mesh table must mark rank 1 absent
            // so rank 2 never dials or waits on it.
            if std::env::var(transport::ENV_RANK).as_deref() == Ok("1") {
                std::process::exit(0);
            }
            echo_child();
        }
        let hub: WireHub<u64> = WireHub::spawn(&WireOptions::for_test(2, path)).expect("spawn");
        match hub.event_timeout(Duration::from_secs(10)).expect("down") {
            HubEvent::Down { rank, error } => {
                assert_eq!(rank, 1);
                assert_eq!(error, TransportError::PeerClosed);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(hub.send(1, 3, &1), Err(TransportError::PeerClosed));
        // The survivor works.
        hub.send(2, 4, &20).expect("send");
        match hub.event_timeout(Duration::from_secs(10)).expect("event") {
            HubEvent::Msg(e) => assert_eq!((e.src, e.msg), (2, 21)),
            other => panic!("unexpected {other:?}"),
        }
        hub.send(2, 99, &0).expect("stop");
        let (statuses, _) = hub.shutdown(None);
        assert!(statuses[2].expect("rank 2 status").success());
    }

    #[test]
    fn hub_drains_queued_frames_across_a_pause() {
        let path = "hub::tests::hub_drains_queued_frames_across_a_pause";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            slurp_child();
        }
        let hub: WireHub<String> = WireHub::spawn(&WireOptions::for_test(1, path)).expect("spawn");

        // Freeze the child, then queue far more than a socket buffer
        // holds: the hub's userspace write queue must absorb it all
        // without blocking or dropping.
        hub.pause(1).expect("pause");
        std::thread::sleep(Duration::from_millis(30));
        let blob = "x".repeat(64 * 1024);
        const K: u64 = 200;
        for _ in 0..K {
            hub.send(1, 7, &blob).expect("burst");
        }
        hub.send(1, 99, &String::new()).expect("stop marker");
        hub.resume(1).expect("resume");

        // Every queued frame must arrive, in order, before the stop
        // marker — the child's count is the witness.
        match hub.event_timeout(Duration::from_secs(30)).expect("count") {
            HubEvent::Msg(e) => assert_eq!(e.msg, K.to_string(), "no frame dropped or reordered"),
            other => panic!("unexpected {other:?}"),
        }
        // Modeled bytes both ways: the reply "200" counts 3, not the 7
        // its encoding takes on the wire.
        assert_eq!(
            hub.stats(),
            TrafficStats {
                messages: K + 2,
                bytes: K * blob.len() as u64 + 3
            }
        );
        let (statuses, _) = hub.shutdown(None);
        assert!(statuses[1].expect("rank 1 status").success());
    }

    #[test]
    fn dropping_the_hub_kills_a_paused_child() {
        let path = "hub::tests::dropping_the_hub_kills_a_paused_child";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            echo_child();
        }
        let hub: WireHub<u64> = WireHub::spawn(&WireOptions::for_test(1, path)).expect("spawn");
        let pid = hub.children[0].id();
        // Stopped, the child never sees its connection close: only the
        // hub can end it.
        hub.pause(1).expect("pause");
        drop(hub);
        let alive = send_signal(pid, 0).is_ok();
        if alive {
            // SIGKILL, so a failing run leaves no stopped process behind.
            send_signal(pid, 9).ok();
        }
        assert!(!alive, "a dropped hub left child {pid} running");
    }
}
