//! The link engine under both wire endpoints: one frame grammar (see
//! the table in [`crate::transport`]'s module docs), one [`Poller`]
//! over a rank-indexed table of [`Link`]s, and one rule for how a link
//! dies. A [`crate::hub::WireHub`] and each mesh rank of a
//! [`crate::transport::WireTransport`] are this engine plus what only
//! they own: the hub its events, traffic and child processes; a mesh
//! rank its peer listener and its queue of received messages.
//!
//! The engine never decides what a death *means*. It reports each one
//! once, as [`Input::Down`], and leaves the verdict to its owner: the
//! hub surfaces it as an event, and a mesh rank treats only its
//! parent's death as fatal.

use crate::poll::{Conn, Event, Interest, Poller};
use crate::transport::{Envelope, TransportError, WireMessage};
use crate::world::TrafficStats;
use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Frame kind of one message: the payload is its [`WireMessage`] bytes.
pub(crate) const MSG: u8 = 0;
/// Frame kind of a child's last word: the payload is its traffic totals
/// (`msgs:u64 bytes:u64`), then its encoded result.
pub(crate) const RESULT: u8 = 1;
/// `kind:u8 tag:u32 len:u32`, ahead of every payload.
const HEADER: usize = 9;
/// A frame's first allocation: it holds any control-sized message, and a
/// bigger payload grows it while encoding.
const FRAME_CAP: usize = 64;

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

/// One frame as it sits in a read buffer.
struct Frame<'a> {
    kind: u8,
    tag: u32,
    payload: &'a [u8],
}

/// Parse the frame at the front of `buf`: `Ok(Some((consumed, frame)))`,
/// `Ok(None)` when more bytes are needed, `Err(Undecodable)` on a kind
/// byte that is neither [`MSG`] nor [`RESULT`].
fn parse(buf: &[u8]) -> Result<Option<(usize, Frame<'_>)>, TransportError> {
    match buf.first() {
        None => return Ok(None),
        Some(&MSG | &RESULT) => {}
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
    /// What this frame means, arriving on `rank`'s link;
    /// `Err(Undecodable)` if its payload does not decode.
    fn decode<M: WireMessage>(&self, rank: usize) -> Result<Input<M>, TransportError> {
        let input = if self.kind == MSG {
            M::from_bytes(self.payload).map(|msg| {
                Input::Msg(Envelope {
                    src: rank,
                    tag: self.tag,
                    msg,
                })
            })
        } else {
            let mut rest = self.payload;
            <(u64, u64)>::decode(&mut rest).map(|(messages, bytes)| Input::Result {
                rank,
                stats: TrafficStats { messages, bytes },
                body: rest.to_vec(),
            })
        };
        input.ok_or(TransportError::Undecodable)
    }
}

/// One entry of the link table, indexed by the rank at its far end.
pub(crate) enum Link {
    /// This endpoint's own rank.
    Me,
    /// A lower rank that has not dialed in yet.
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
    /// A link died inside the engine. A death the owner claims with
    /// [`Links::kill`] is not reported back.
    Down { rank: usize, error: TransportError },
    /// A ready token that is not a link: one of the owner's own fds.
    Other,
}

/// The engine: every link on one [`Poller`], each live one registered
/// under its rank, and the owner's own fds under tokens past the table.
pub(crate) struct Links {
    poller: Poller,
    links: Vec<Link>,
    events: Vec<Event>,
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
            events: Vec::new(),
        }
    }

    /// The state of `rank`'s link.
    pub(crate) fn get(&self, rank: usize) -> &Link {
        &self.links[rank]
    }

    /// Bring a pending `rank` up on `conn`. A connection for any other
    /// link, or for no link at all, is stale or stray and is dropped.
    pub(crate) fn up(&mut self, rank: usize, conn: Conn) {
        if let Some(link @ Link::Pending) = self.links.get_mut(rank) {
            self.poller.register(conn.fd(), rank, Interest::READABLE);
            *link = Link::Up(conn);
        }
    }

    /// Wake a sweep, as [`Input::Other`], when the owner's `fd` turns
    /// readable. `token` must lie past the link table.
    pub(crate) fn watch(&mut self, fd: RawFd, token: usize) {
        self.poller.register(fd, token, Interest::READABLE);
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
            match self.links.get_mut(ev.token) {
                None => out(Input::Other),
                Some(Link::Up(c)) => match service(ev, c, out) {
                    Ok(()) => self.poller.reregister(ev.token, c.interest()),
                    Err(error) => self.die(ev.token, error, out),
                },
                Some(_) => {}
            }
        }
        self.events = events;
        polled.map(drop)
    }
}

/// Write and read what `ev` says the link's connection `c` is ready
/// for, handing every complete frame to `out` and stopping at the first
/// bad one. `Err` says how the link died: reset or hung up at a frame
/// boundary (`PeerClosed`), hung up mid-frame (`Truncated`), or sent a
/// frame that does not decode (`Undecodable`).
fn service<M: WireMessage>(
    ev: Event,
    c: &mut Conn,
    out: &mut dyn FnMut(Input<M>),
) -> Result<(), TransportError> {
    if ev.writable {
        c.flush().map_err(|_| TransportError::PeerClosed)?;
    }
    if ev.readable {
        c.read_ready().map_err(|_| TransportError::PeerClosed)?;
        while let Some((n, frame)) = parse(c.buffered())? {
            let input = frame.decode(ev.token)?;
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
mod tests {
    use super::*;
    use pdc_core::rng::Rng;

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
        for kind in RESULT + 1..=u8::MAX {
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
}
