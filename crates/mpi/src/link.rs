//! The link engine under both wire endpoints: one frame grammar (see
//! the table in [`crate::transport`]'s module docs), one [`Poller`]
//! over a rank-indexed table of [`Link`]s, and one rule for how a link
//! dies. A [`crate::hub::WireHub`] and each mesh rank of a
//! [`crate::transport::WireTransport`] are this engine plus what only
//! they own: the hub its events, traffic and child processes; a mesh
//! rank its queue of received messages.
//!
//! The handshake is frames of the same grammar. A connection the
//! engine's listener accepts waits unnamed on the poller until its
//! first frame, which must be a HELLO for a `Pending` rank; a child's
//! parent link opens with the TABLE. Anywhere else, both are bad frames.
//!
//! The engine never decides what a death *means*. It reports each one
//! once, as [`Input::Down`], and leaves the verdict to its owner: the
//! hub surfaces it as an event, and a mesh rank treats only its
//! parent's death as fatal.

use crate::poll::{Conn, Event, Interest, Poller};
use crate::transport::{Envelope, TransportError, WireMessage};
use crate::world::TrafficStats;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// Frame kind of one message: the payload is its [`WireMessage`] bytes.
pub(crate) const MSG: u8 = 0;
/// Frame kind of a child's last word: the payload is its traffic totals
/// (`msgs:u64 bytes:u64`), then its encoded result.
pub(crate) const RESULT: u8 = 1;
/// Frame kind of a dialer's first frame: the tag is its rank, the
/// payload its listener address.
pub(crate) const HELLO: u8 = 2;
/// Frame kind of the rank→address table, a parent's first frame.
pub(crate) const TABLE: u8 = 3;
/// `kind:u8 tag:u32 len:u32`, ahead of every payload.
const HEADER: usize = 9;
/// A frame's first allocation: it holds any control-sized message, and a
/// bigger payload grows it while encoding.
const FRAME_CAP: usize = 64;
/// The longest listener address a HELLO or a TABLE entry may carry.
const MAX_ADDR: usize = 256;

/// Build one frame, with the payload `encode` writes in place behind the
/// header.
pub(crate) fn frame(kind: u8, tag: u32, encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut f = Vec::with_capacity(FRAME_CAP);
    f.push(kind);
    f.extend_from_slice(&tag.to_le_bytes());
    f.extend_from_slice(&[0; 4]);
    encode(&mut f);
    let len = u32::try_from(f.len() - HEADER).expect("frame payload over 4 GiB");
    f[5..HEADER].copy_from_slice(&len.to_le_bytes());
    f
}

/// Rank `rank`'s HELLO, naming its listener (`""` on a peer dial).
pub(crate) fn hello(rank: usize, addr: &str) -> Vec<u8> {
    let rank = u32::try_from(rank).expect("rank over u32");
    frame(HELLO, rank, |b| b.extend_from_slice(addr.as_bytes()))
}

/// The TABLE of every rank's listener, `""` where absent or dead.
pub(crate) fn table(addrs: Vec<String>) -> Vec<u8> {
    frame(TABLE, 0, |b| addrs.encode(b))
}

/// One frame as it sits in a read buffer.
struct Frame<'a> {
    kind: u8,
    tag: u32,
    payload: &'a [u8],
}

/// Parse the frame at the front of `buf`: `Ok(Some((consumed, frame)))`,
/// `Ok(None)` when more bytes are needed, `Err(Undecodable)` on a kind
/// byte outside the grammar.
fn parse(buf: &[u8]) -> Result<Option<(usize, Frame<'_>)>, TransportError> {
    match buf.first() {
        None => return Ok(None),
        Some(&kind) if kind <= TABLE => {}
        Some(_) => return Err(TransportError::Undecodable),
    }
    let Some(head) = buf.get(..HEADER) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(head[5..].try_into().expect("4 bytes")) as usize;
    let Some(payload) = buf.get(HEADER..HEADER + len) else {
        return Ok(None);
    };
    let tag = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes"));
    Ok(Some((
        HEADER + len,
        Frame {
            kind: head[0],
            tag,
            payload,
        },
    )))
}

impl Frame<'_> {
    /// What this frame means, arriving on `rank`'s link where the TABLE
    /// is due (`table`) or not; `Err(Undecodable)` if its kind does not
    /// belong there or its payload does not decode.
    fn decode<M: WireMessage>(&self, rank: usize, table: bool) -> Result<Input<M>, TransportError> {
        let mut rest = self.payload;
        let input = match (self.kind, table) {
            (MSG, false) => M::from_bytes(rest).map(|msg| {
                Input::Msg(Envelope {
                    src: rank,
                    tag: self.tag,
                    msg,
                })
            }),
            (RESULT, false) => {
                <(u64, u64)>::decode(&mut rest).map(|(messages, bytes)| Input::Result {
                    rank,
                    stats: TrafficStats { messages, bytes },
                    body: rest.to_vec(),
                })
            }
            (TABLE, true) => Vec::<String>::from_bytes(rest)
                .filter(|t| t.iter().all(|a| a.len() <= MAX_ADDR))
                .map(Input::Table),
            _ => None,
        };
        input.ok_or(TransportError::Undecodable)
    }

    /// The rank and listener a HELLO names; `None` for any other frame.
    fn hello(&self) -> Option<(usize, String)> {
        let addr = std::str::from_utf8(self.payload).ok()?;
        (self.kind == HELLO && addr.len() <= MAX_ADDR)
            .then(|| (self.tag as usize, addr.to_string()))
    }
}

/// One entry of the link table, indexed by the rank at its far end.
pub(crate) enum Link {
    /// This endpoint's own rank.
    Me,
    /// No HELLO yet: a child at its hub, a lower rank at a mesh rank.
    Pending,
    /// A live connection.
    Up(Conn),
    /// Hung up, reset, torn mid-frame, sent a bad frame, failed to dial,
    /// or claimed dead by the owner. Sending here is `Err(PeerClosed)`;
    /// anything in flight was lost. A link dies once.
    Dead(TransportError),
}

/// What the engine hands its owner, in arrival order.
pub(crate) enum Input<M> {
    /// A MSG frame, decoded; its `src` is the rank of the link it came on.
    Msg(Envelope<M>),
    /// A RESULT frame: the sender's traffic totals and encoded result.
    Result {
        rank: usize,
        stats: TrafficStats,
        body: Vec<u8>,
    },
    /// A HELLO brought `rank`'s link up, naming its listener `addr`.
    Hello { rank: usize, addr: String },
    /// The TABLE, first on the link [`Links::await_table`] named.
    Table(Vec<String>),
    /// A link died inside the engine. A death the owner claims with
    /// [`Links::kill`] is not reported back.
    Down { rank: usize, error: TransportError },
    /// One of the owner's fds (see [`Links::watch`]) turned ready: the
    /// poll's event, under the token the owner gave. The engine touches
    /// no owner fd; reading or writing it is the owner's move.
    Other(Event),
}

/// The engine: every link on one [`Poller`], each live one under its
/// rank, then the listener, the connections that have not said hello,
/// and the owner's own fds past those.
#[derive(Default)]
pub(crate) struct Links {
    poller: Poller,
    links: Vec<Link>,
    events: Vec<Event>,
    listener: Option<TcpListener>,
    /// Accepted connections before their first frame, slot `i` under
    /// token `links.len() + 1 + i`.
    unnamed: Vec<Option<Conn>>,
    /// The link whose first frame must be the TABLE, until it arrives.
    table_from: Option<usize>,
}

impl Links {
    /// Put `links` on one poller.
    pub(crate) fn new(links: Vec<Link>) -> Links {
        let mut poller = Poller::new();
        for (rank, link) in links.iter().enumerate() {
            if let Link::Up(c) = link {
                poller.register(c.fd(), rank, Interest::READABLE);
            }
        }
        Links {
            poller,
            links,
            ..Links::default()
        }
    }

    /// The state of `rank`'s link.
    pub(crate) fn get(&self, rank: usize) -> &Link {
        &self.links[rank]
    }

    /// Take `rank`'s first frame as the TABLE (a child's parent link).
    pub(crate) fn await_table(&mut self, rank: usize) {
        self.table_from = Some(rank);
    }

    /// Accept connections on `listener`, each unnamed until its HELLO.
    pub(crate) fn listen(&mut self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let fd = listener.as_raw_fd();
        self.poller
            .register(fd, self.links.len(), Interest::READABLE);
        self.listener = Some(listener);
        Ok(())
    }

    /// Close the listener, dropping each connection that has not said hello.
    pub(crate) fn stop_listening(&mut self) {
        let first = self.links.len();
        (first..=first + self.unnamed.len()).for_each(|t| self.poller.deregister(t));
        self.listener = None;
        self.unnamed.clear();
    }

    /// Dial pending `rank` at `addr` and say hello as rank `me`; the link
    /// comes up, or dies if the dial fails.
    pub(crate) fn dial(&mut self, rank: usize, addr: &str, me: usize) {
        let dialed = TcpStream::connect(addr).and_then(Conn::new);
        self.links[rank] = dialed.map_or(Link::Dead(TransportError::PeerClosed), Link::Up);
        if let Link::Up(c) = &self.links[rank] {
            self.poller.register(c.fd(), rank, Interest::READABLE);
        }
        let _ = self.send(rank, hello(me, ""), &mut |_: Input<()>| {});
    }

    /// Poll the owner's `fd` under `token` for `interest`, or change
    /// what an fd already watched under `token` is polled for. A sweep
    /// hands each readiness back as [`Input::Other`]. `token` must lie
    /// past the engine's own tokens.
    pub(crate) fn watch(&mut self, fd: RawFd, token: usize, interest: Interest) {
        self.poller.deregister(token);
        self.poller.register(fd, token, interest);
    }

    /// Stop watching an owner fd. No-op if absent.
    pub(crate) fn unwatch(&mut self, token: usize) {
        self.poller.deregister(token);
    }

    /// Mark `rank`'s link dead with `error`, closing its connection.
    /// `true` only on the live → dead transition, so when several
    /// detectors race, exactly one wins.
    pub(crate) fn kill(&mut self, rank: usize, error: TransportError) -> bool {
        if matches!(self.links[rank], Link::Me | Link::Dead(_)) {
            return false;
        }
        self.poller.deregister(rank);
        self.links[rank] = Link::Dead(error);
        true
    }

    /// A death the engine detected: the owner hears of it once.
    fn die<M>(&mut self, rank: usize, error: TransportError, out: &mut dyn FnMut(Input<M>)) {
        if self.kill(rank, error) {
            out(Input::Down { rank, error });
        }
    }

    /// Queue `frame` on `rank`'s link and write what the socket takes
    /// now; the rest leaves with later sweeps. `Err(PeerClosed)` if the
    /// link is not up, or dies here.
    pub(crate) fn send<M>(
        &mut self,
        rank: usize,
        frame: Vec<u8>,
        out: &mut dyn FnMut(Input<M>),
    ) -> Result<(), TransportError> {
        let Link::Up(c) = &mut self.links[rank] else {
            return Err(TransportError::PeerClosed);
        };
        c.queue(frame);
        if c.flush().is_err() {
            self.die(rank, TransportError::PeerClosed, out);
            return Err(TransportError::PeerClosed);
        }
        self.poller.reregister(rank, c.interest());
        Ok(())
    }

    /// One readiness sweep: flush every queued write, wait up to
    /// `timeout` (`None`: forever) for events, and service them. `Err`
    /// only if the poll syscall itself fails.
    pub(crate) fn sweep<M: WireMessage>(
        &mut self,
        timeout: Option<Duration>,
        out: &mut dyn FnMut(Input<M>),
    ) -> io::Result<()> {
        self.flush(out);
        self.wait(timeout, out)
    }

    /// Sweep until no live link has bytes queued, or `limit` passes: the
    /// drain before a child exits, before a shard reports its state, and
    /// before the hub reaps.
    pub(crate) fn flush_all<M: WireMessage>(
        &mut self,
        limit: Duration,
        out: &mut dyn FnMut(Input<M>),
    ) {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            // Flush before checking: a sweep's own flush is followed by
            // a poll that idles out its whole timeout once nothing is
            // left.
            self.flush(out);
            let queued = self
                .links
                .iter()
                .any(|l| matches!(l, Link::Up(c) if c.wants_write()));
            if !queued || self.wait(Some(Duration::from_millis(20)), out).is_err() {
                return;
            }
        }
    }

    fn flush<M>(&mut self, out: &mut dyn FnMut(Input<M>)) {
        for rank in 0..self.links.len() {
            let Link::Up(c) = &mut self.links[rank] else {
                continue;
            };
            if c.wants_write() && c.flush().is_err() {
                self.die(rank, TransportError::PeerClosed, out);
            } else {
                self.poller.reregister(rank, c.interest());
            }
        }
    }

    fn wait<M: WireMessage>(
        &mut self,
        timeout: Option<Duration>,
        out: &mut dyn FnMut(Input<M>),
    ) -> io::Result<()> {
        let mut events = std::mem::take(&mut self.events);
        let polled = self.poller.poll(&mut events, timeout);
        for ev in events.iter().copied() {
            match ev.token.checked_sub(self.links.len()) {
                None => self.serve(ev, out),
                Some(0) => self.accept(ev, out),
                Some(i) if i <= self.unnamed.len() => self.greet(i - 1, ev, out),
                Some(_) => out(Input::Other(ev)),
            }
        }
        self.events = events;
        polled.map(drop)
    }

    /// Service link `ev.token`, which dies at its first failure.
    fn serve<M: WireMessage>(&mut self, ev: Event, out: &mut dyn FnMut(Input<M>)) {
        let Link::Up(c) = &mut self.links[ev.token] else {
            return;
        };
        match service(ev, c, &mut self.table_from, out) {
            Ok(()) => self.poller.reregister(ev.token, c.interest()),
            Err(error) => self.die(ev.token, error, out),
        }
    }

    /// Accept every waiting connection and greet it: its HELLO may be in.
    fn accept<M: WireMessage>(&mut self, ev: Event, out: &mut dyn FnMut(Input<M>)) {
        let accept = |l: &TcpListener| l.accept().and_then(|(s, _)| Conn::new(s));
        while let Some(Ok(conn)) = self.listener.as_ref().map(accept) {
            let free = self.unnamed.iter().position(Option::is_none);
            let slot = free.unwrap_or(self.unnamed.len());
            if slot == self.unnamed.len() {
                self.unnamed.push(None);
            }
            let token = self.links.len() + 1 + slot;
            self.poller.register(conn.fd(), token, Interest::READABLE);
            self.unnamed[slot] = Some(conn);
            self.greet(slot, ev, out);
        }
    }

    /// Read unnamed connection `slot`'s first frame. A HELLO for a
    /// `Pending` rank makes it that rank's link; any other frame, a bad
    /// one, or a hang-up drops it. Until a whole frame is in, it waits.
    fn greet<M: WireMessage>(&mut self, slot: usize, ev: Event, out: &mut dyn FnMut(Input<M>)) {
        let Some(c) = &mut self.unnamed[slot] else {
            return;
        };
        let hello = match c.read_ready().map(|()| parse(c.buffered())) {
            Ok(Ok(None)) if !c.is_eof() => return,
            Ok(Ok(Some((n, frame)))) => frame.hello().map(|(rank, addr)| (n, rank, addr)),
            _ => None,
        };
        let mut c = self.unnamed[slot].take().expect("an unnamed connection");
        self.poller.deregister(self.links.len() + 1 + slot);
        let Some((n, rank, addr)) =
            hello.filter(|(_, rank, _)| matches!(self.links.get(*rank), Some(Link::Pending)))
        else {
            return;
        };
        c.consume(n);
        self.poller.register(c.fd(), rank, Interest::READABLE);
        self.links[rank] = Link::Up(c);
        out(Input::Hello { rank, addr });
        // Frames, or a hang-up, already read behind the HELLO.
        self.serve(Event { token: rank, ..ev }, out);
    }
}

/// Write and read what `ev` says the link's connection `c` is ready
/// for, handing every complete frame to `out` and stopping at the first
/// bad one; link `table_from`'s first frame must be the TABLE. `Err`
/// says how the link died: reset or hung up at a frame boundary
/// (`PeerClosed`), hung up mid-frame (`Truncated`), or a frame that is
/// out of place or does not decode (`Undecodable`).
fn service<M: WireMessage>(
    ev: Event,
    c: &mut Conn,
    table_from: &mut Option<usize>,
    out: &mut dyn FnMut(Input<M>),
) -> Result<(), TransportError> {
    if ev.writable {
        c.flush().map_err(|_| TransportError::PeerClosed)?;
    }
    if ev.readable {
        c.read_ready().map_err(|_| TransportError::PeerClosed)?;
        while let Some((n, frame)) = parse(c.buffered())? {
            let table = table_from.take_if(|r| *r == ev.token).is_some();
            let input = frame.decode(ev.token, table)?;
            c.consume(n);
            out(input);
        }
        if c.is_eof() {
            return Err(if c.buffered().is_empty() {
                TransportError::PeerClosed
            } else {
                TransportError::Truncated
            });
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pdc_core::rng::Rng;
    use std::io::{Read, Write};

    /// Read one whole frame off a blocking stream: `(kind, tag, payload)`.
    pub(crate) fn read_frame(mut s: &TcpStream) -> io::Result<(u8, u32, Vec<u8>)> {
        let mut head = [0; HEADER];
        s.read_exact(&mut head)?;
        let len = u32::from_le_bytes(head[5..].try_into().expect("4 bytes"));
        let mut payload = vec![0; len as usize];
        s.read_exact(&mut payload)?;
        let tag = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes"));
        Ok((head[0], tag, payload))
    }

    /// Whether the far end dropped `s`: a peek sees a hang-up or a reset
    /// within 5 s, and no bytes (which it leaves unread).
    pub(crate) fn dropped(s: &TcpStream) -> bool {
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        match s.peek(&mut [0]) {
            Ok(n) => n == 0,
            Err(e) => e.kind() == io::ErrorKind::ConnectionReset,
        }
    }

    #[test]
    fn parser_returns_exactly_the_built_frames_under_any_chunking() {
        let mut rng = Rng::new(0x11c);
        for _ in 0..200 {
            let frames: Vec<(u8, u32, Vec<u8>)> = (0..rng.usize_in(1, 9))
                .map(|_| {
                    let kind = if rng.chance(0.5) { MSG } else { RESULT };
                    let payload = (0..rng.usize_in(0, 301))
                        .map(|_| rng.next_u32() as u8)
                        .collect();
                    (kind, rng.next_u32(), payload)
                })
                .collect();
            let mut wire = Vec::new();
            for (kind, tag, payload) in &frames {
                let f = frame(*kind, *tag, |b| b.extend_from_slice(payload));
                for cut in 0..f.len() {
                    assert!(
                        matches!(parse(&f[..cut]), Ok(None)),
                        "a {cut}-byte prefix of a {}-byte frame parsed",
                        f.len()
                    );
                }
                wire.extend_from_slice(&f);
            }
            // Feed the stream in random-size chunks, parsing after each
            // as a connection's read buffer does.
            let (mut buf, mut got, mut at) = (Vec::new(), Vec::new(), 0);
            while at < wire.len() {
                let n = rng.usize_in(1, 128).min(wire.len() - at);
                buf.extend_from_slice(&wire[at..at + n]);
                at += n;
                while let Some((used, f)) = parse(&buf).expect("a well-formed stream") {
                    got.push((f.kind, f.tag, f.payload.to_vec()));
                    buf.drain(..used);
                }
            }
            assert!(buf.is_empty(), "bytes left over");
            assert_eq!(got, frames);
        }
    }

    #[test]
    fn an_unknown_kind_is_an_error() {
        for kind in TABLE + 1..=u8::MAX {
            let f = frame(kind, 5, |b| b.extend_from_slice(&[1, 2, 3]));
            for cut in 1..=f.len() {
                assert_eq!(
                    parse(&f[..cut]).err(),
                    Some(TransportError::Undecodable),
                    "kind {kind}"
                );
            }
        }
    }

    /// The one frame `f` holds.
    fn only(f: &[u8]) -> Frame<'_> {
        let (n, frame) = parse(f).expect("a frame").expect("a whole frame");
        assert_eq!(n, f.len());
        frame
    }

    #[test]
    fn a_handshake_frame_decodes_only_where_the_grammar_puts_it() {
        let addr = "127.0.0.1:4242";
        let h = hello(3, addr);
        assert_eq!(only(&h).hello(), Some((3, addr.to_string())));
        let t = table(vec![addr.to_string(), String::new()]);
        assert!(matches!(
            only(&t).decode::<u64>(0, true),
            Ok(Input::Table(a)) if a == [addr, ""]
        ));
        let m = frame(MSG, 1, |b| 5u64.encode(b));
        assert!(only(&m).hello().is_none(), "a first frame that is no HELLO");
        for (f, table) in [(&h, false), (&h, true), (&t, false), (&m, true)] {
            assert_eq!(
                only(f).decode::<u64>(0, table).err(),
                Some(TransportError::Undecodable),
                "kind {} where the TABLE is {}due",
                f[0],
                if table { "" } else { "not " }
            );
        }
        // Addresses past the cap, or not UTF-8, are refused.
        let long = "x".repeat(MAX_ADDR + 1);
        assert!(only(&hello(3, &long)).hello().is_none());
        assert!(only(&frame(HELLO, 3, |b| b.push(0xff))).hello().is_none());
        assert!(only(&table(vec![long])).decode::<u64>(0, true).is_err());
    }

    #[test]
    fn a_listener_names_each_connection_by_its_hello() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut links = Links::new(vec![Link::Me, Link::Pending, Link::Pending]);
        links.listen(listener).expect("listen");
        let mut got = Vec::new();
        let mut sweep = |links: &mut Links| {
            links
                .sweep(Some(Duration::from_secs(5)), &mut |i: Input<u64>| {
                    got.push(match i {
                        Input::Hello { rank, addr } => format!("hello {rank} {addr}"),
                        Input::Msg(e) => format!("msg {} {}", e.src, e.msg),
                        Input::Down { rank, error } => format!("down {rank} {error}"),
                        _ => "other".to_string(),
                    })
                })
                .expect("sweep");
        };

        // A silent client and a HELLO client: one sweep brings rank 1 up.
        let _silent = TcpStream::connect(addr).expect("connect");
        let one = TcpStream::connect(addr).expect("connect");
        (&one).write_all(&hello(1, "127.0.0.1:9")).expect("hello");
        sweep(&mut links);
        assert!(matches!(links.get(1), Link::Up(_)));
        assert!(matches!(links.get(2), Link::Pending));
        assert_eq!(
            links.unnamed.iter().flatten().count(),
            1,
            "the silent one waits"
        );

        // A HELLO for a rank that is not Pending: up, this endpoint's
        // own, or outside the table.
        for rank in [1, 0, 3] {
            let stray = TcpStream::connect(addr).expect("connect");
            (&stray).write_all(&hello(rank, "")).expect("hello");
            sweep(&mut links);
            assert!(dropped(&stray), "a HELLO for rank {rank} was kept");
        }

        // A HELLO after the first frame stops the link.
        let mut frames = frame(MSG, 0, |b| 5u64.encode(b));
        frames.extend(hello(1, ""));
        (&one).write_all(&frames).expect("frames");
        let deadline = Instant::now() + Duration::from_secs(5);
        while !matches!(links.get(1), Link::Dead(_)) && Instant::now() < deadline {
            sweep(&mut links);
        }
        assert_eq!(
            got,
            [
                "hello 1 127.0.0.1:9",
                "msg 1 5",
                "down 1 undecodable payload"
            ]
        );
        assert!(matches!(
            links.get(1),
            Link::Dead(TransportError::Undecodable)
        ));
    }
}
