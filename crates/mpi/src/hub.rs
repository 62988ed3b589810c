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
//! [`Poller`](crate::poll::Poller), serviced by [`WireHub::pump`]. Writes
//! go through userspace queues, so a stalled child can never wedge the
//! hub; queued frames survive until delivered or the destination dies
//! (shutdown drains the queues before reaping).
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
use crate::poll::{send_signal, Conn, SIGCONT, SIGSTOP};
use crate::transport::{
    self, read_addr, read_u32, snapshot_path, Envelope, TransportError, WireMessage, WireOptions,
};
use crate::world::{Traffic, TrafficStats};
use pdc_core::merge::{self, MergedTrace};
use pdc_core::trace::TraceSession;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
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

/// Caller-registered fds get tokens offset past any possible rank
/// (wrapping: the poller only needs tokens to be distinct, and ranks
/// occupy 0..=procs — caller tokens that would wrap into that tiny
/// range, i.e. the few just below `u64::MAX - 2^32`, are reserved).
const USER_BASE: usize = 1 << 32;

/// The hub's single-threaded mutable state, behind a [`RefCell`] so the
/// public API can stay `&self` (the serve front end holds the hub and
/// its own connections in one loop).
struct HubInner<M> {
    /// By rank; a hub world's link 0 (the hub itself) is `Me`. A `Dead`
    /// link is the one claim on that rank's death.
    links: Links,
    events: VecDeque<HubEvent<M>>,
    traffic: Traffic,
}

impl<M: WireMessage> HubInner<M> {
    /// Run one engine call, turning what it hands back into events: a
    /// `MSG` or `RESULT` also counts its traffic, and a caller-registered
    /// fd (see [`WireHub::register_client`]) only ends the wait.
    fn with_links<R>(&mut self, call: impl FnOnce(&mut Links, &mut dyn FnMut(Input<M>)) -> R) -> R {
        let HubInner {
            links,
            events,
            traffic,
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
                Input::Other => return,
            });
        })
    }

    /// One readiness sweep over every connection, waiting up to
    /// `timeout`.
    fn sweep(&mut self, timeout: Duration) {
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

        // The hub owns each child from its spawn on, so a launch that
        // fails or panics part-way kills the children it started.
        let mut hub = WireHub {
            inner: RefCell::new(HubInner {
                links: Links::new(
                    (0..world)
                        .map(|r| if r < first { Link::Me } else { Link::Pending })
                        .collect(),
                ),
                events: VecDeque::new(),
                traffic: Traffic::default(),
            }),
            first,
            children: Vec::with_capacity(p),
            trace_dir: opts.trace_dir.clone(),
        };
        for rank in first..world {
            hub.children
                .push(spawn_rank(opts, rank, world, &addr, first == 1)?);
        }
        let socks = bootstrap(&listener, &mut hub.children, first);
        let inner = hub.inner.get_mut();
        for (rank, sock) in (first..).zip(socks) {
            match sock {
                Some(s) => inner.links.up(rank, Conn::new(s)?),
                // Died during bootstrap: surface it right away.
                None => {
                    let error = TransportError::PeerClosed;
                    inner.links.kill(rank, error);
                    inner.events.push_back(HubEvent::Down { rank, error });
                }
            }
        }
        Ok(hub)
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

    /// Next pending event, if any (non-blocking: runs one zero-timeout
    /// sweep when the queue is empty).
    pub fn try_event(&self) -> Option<HubEvent<M>> {
        let mut inner = self.inner.borrow_mut();
        if inner.events.is_empty() {
            inner.sweep(Duration::ZERO);
        }
        inner.events.pop_front()
    }

    /// Next pending event, waiting up to `timeout`.
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

    /// Run one readiness sweep over every connection the hub knows —
    /// children **and** caller-registered fds — waiting up to `timeout`
    /// for something to happen. This is the blocking point of an
    /// event-loop front end: instead of sleeping between sweeps, block
    /// here and wake on the first byte from any direction.
    pub fn pump(&self, timeout: Duration) {
        self.inner.borrow_mut().sweep(timeout);
    }

    /// Register a caller-owned fd (e.g. a client socket or listener)
    /// with the hub's poller under `token`; [`WireHub::pump`] wakes
    /// when it turns readable. The fd must outlive the registration.
    pub fn register_client(&self, fd: RawFd, token: u64) {
        self.inner
            .borrow_mut()
            .links
            .watch(fd, USER_BASE.wrapping_add(token as usize));
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

/// Accept one hello per child plus its peer-listener address, then
/// broadcast the rank→address table; `children[i]` is rank `first + i`.
/// A child that dies before or **during** its handshake gets a `None`
/// slot and an empty table entry, so peers mark it dead instead of
/// dialing it; the caller turns the slot into a `Down` event.
fn bootstrap(
    listener: &TcpListener,
    children: &mut [Child],
    first: usize,
) -> Vec<Option<TcpStream>> {
    let p = children.len();
    listener
        .set_nonblocking(true)
        .expect("wire hub: nonblocking listener");
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut socks: Vec<Option<TcpStream>> = (0..p).map(|_| None).collect();
    let mut addrs: Vec<String> = vec![String::new(); p];
    let mut dead: Vec<bool> = vec![false; p];
    let mut settled = 0;
    while settled < p {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false).expect("wire hub: blocking conn");
                s.set_nodelay(true).ok();
                s.set_read_timeout(Some(Duration::from_secs(10))).ok();
                let Ok(hello) = read_u32(&mut (&s)) else {
                    // Died after connecting, before the hello: the
                    // try_wait sweep below will claim this child.
                    continue;
                };
                // The listener is on loopback, open to any local
                // process: a hello for a rank this hub did not spawn, or
                // for one already settled, is a stray. Drop it.
                let i = (hello as usize).wrapping_sub(first);
                if i >= p || socks[i].is_some() || dead[i] {
                    continue;
                }
                settled += 1;
                match read_addr(&s) {
                    Ok(a) => {
                        addrs[i] = a;
                        s.set_read_timeout(None).ok();
                        socks[i] = Some(s);
                    }
                    // Mid-handshake death (e.g. SIGKILL between hello
                    // and address).
                    Err(_) => dead[i] = true,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                for (i, c) in children.iter_mut().enumerate() {
                    if socks[i].is_none()
                        && !dead[i]
                        && c.try_wait().expect("wire hub: try_wait").is_some()
                    {
                        dead[i] = true;
                        settled += 1;
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "wire hub: ranks failed to connect within 60s"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("wire hub: accept: {e}"),
        }
    }
    let mut table = ((first + p) as u32).to_le_bytes().to_vec();
    for rank in 0..first + p {
        // A hub world's own rank 0 owns no data connections.
        let a = rank.checked_sub(first).map_or("", |i| addrs[i].as_str());
        table.extend_from_slice(&(a.len() as u32).to_le_bytes());
        table.extend_from_slice(a.as_bytes());
    }
    for sock in &mut socks {
        if sock
            .as_ref()
            .is_some_and(|s| (&mut &*s).write_all(&table).is_err())
        {
            *sock = None;
        }
    }
    socks
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::transport::Transport;
    use crate::WireWorld;

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

    /// Child entry for the raw-frame tests: do the mesh handshake by
    /// hand, then hand the parent `frames` in one write — frames no
    /// [`crate::WireTransport`] would send. Exit once the parent hangs
    /// up.
    pub(crate) fn relaying_child(frames: &[u8]) -> ! {
        let env = transport::take_child_env().expect("hub child env");
        let parent = std::net::TcpStream::connect(&env.addr).expect("connect");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut hello = (env.rank as u32).to_le_bytes().to_vec();
        hello.extend_from_slice(&(addr.len() as u32).to_le_bytes());
        hello.extend_from_slice(addr.as_bytes());
        (&parent).write_all(&hello).expect("hello");
        (&parent).write_all(frames).expect("raw frames");
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

    #[test]
    fn bootstrap_drops_a_stray_hello_and_keeps_waiting() {
        let path = "hub::tests::bootstrap_drops_a_stray_hello_and_keeps_waiting";
        if WireWorld::child_world_id().as_deref() == Some(path) {
            // Before joining, knock on the launcher's loopback listener
            // as a rank nobody spawned.
            let addr = std::env::var(transport::ENV_ADDR).expect("parent address");
            let stray = TcpStream::connect(addr).expect("stray connect");
            (&stray)
                .write_all(&u32::MAX.to_le_bytes())
                .expect("stray hello");
        }
        let opts = WireOptions::for_test(2, path);
        let run = WireWorld::run(
            &opts,
            |r: &mut crate::Rank<u64, crate::WireTransport<u64>>| r.id() as u64,
        );
        assert_eq!(run.results, vec![0, 1]);
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
