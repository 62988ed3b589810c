//! Readiness-driven I/O without new dependencies: a mio-style
//! registration/readiness API over the OS `poll(2)` syscall, plus the
//! buffered nonblocking connection every event loop in this crate
//! shares.
//!
//! The shape is deliberately the one mio popularised — register an fd
//! under a caller-chosen token with a read/write [`Interest`], call
//! [`Poller::poll`], get back [`Event`]s naming the ready tokens — but
//! the implementation is a flat `pollfd` array rebuilt per call. That
//! is O(fds) per wakeup where epoll is O(ready), which is the right
//! trade here: every world in this repo has tens of fds, not tens of
//! thousands, and `poll(2)` needs no registration syscalls, no
//! capability probing, and no crate. The symbol comes from the platform
//! C library that `std` already links, declared by hand — the
//! "libc-free shim".
//!
//! [`Conn`] is the per-connection state an event loop keeps: the
//! nonblocking stream, an incoming byte buffer that frames are parsed
//! out of, and an outgoing queue that absorbs short writes. Queueing
//! instead of blocking is what makes a single-threaded router safe: a
//! peer whose TCP buffer is full can never wedge the loop (the
//! userspace queue grows instead) and no thread per peer is needed.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// One gather-write segment for `writev(2)` — layout-compatible with
/// POSIX `struct iovec`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct IoVec {
    base: *const u8,
    len: usize,
}

/// `writev(2)` caps `iovcnt` at `IOV_MAX` (1024 on Linux); 64 is far
/// below that and already amortises the syscall across a full burst.
const MAX_IOV: usize = 64;

/// Bytes one [`Conn::read_some`] may add to a connection's buffer.
pub const READ_CHUNK: usize = 4 * 1024;

extern "C" {
    // POSIX poll(2); nfds_t is unsigned long on every target we build.
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    // POSIX writev(2): gather-write, one syscall for many frames.
    fn writev(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
    // kill(2), used by the fault-injection hooks (SIGSTOP a shard to
    // simulate a hang, SIGKILL handled by std's Child::kill).
    fn kill(pid: i32, sig: i32) -> i32;
}

/// `SIGSTOP`: pause a process without killing it — the socket stays
/// open, so only a heartbeat detector can tell it is gone.
pub const SIGSTOP: i32 = 19;
/// `SIGCONT`: resume a `SIGSTOP`ped process.
pub const SIGCONT: i32 = 18;

/// Send `sig` to process `pid` (see [`SIGSTOP`]/[`SIGCONT`]).
pub fn send_signal(pid: u32, sig: i32) -> io::Result<()> {
    // SAFETY: kill(2) has no memory preconditions; an invalid pid is
    // reported through errno.
    if unsafe { kill(pid as i32, sig) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Wake when the fd is readable (or hung up).
    pub const READABLE: Interest = Interest(1);
    /// Wake when the fd is writable.
    pub const WRITABLE: Interest = Interest(2);
    /// Both directions.
    pub const BOTH: Interest = Interest(3);

    fn wants_read(self) -> bool {
        self.0 & 1 != 0
    }

    fn wants_write(self) -> bool {
        self.0 & 2 != 0
    }
}

/// One ready fd, named by the token it was registered under.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration's token.
    pub token: usize,
    /// Readable, hung up, or errored — in every case the right response
    /// is to read, which surfaces EOF or the error in-band.
    pub readable: bool,
    /// Writable (or errored; writing surfaces the error).
    pub writable: bool,
}

/// Readiness selector: a token-keyed registration table polled with one
/// `poll(2)` call. Not a reactor — it never dispatches; the owning loop
/// matches on tokens.
#[derive(Debug, Default)]
pub struct Poller {
    // Small and iterated whole every poll; a Vec beats a map.
    slots: Vec<(usize, RawFd, Interest)>,
    fds: Vec<PollFd>,
}

impl Poller {
    /// An empty selector.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Register `fd` under `token`.
    ///
    /// # Panics
    /// Panics if `token` is already registered — tokens are identities,
    /// reuse is a routing bug.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) {
        assert!(
            !self.slots.iter().any(|(t, _, _)| *t == token),
            "poller token {token} registered twice"
        );
        self.slots.push((token, fd, interest));
    }

    /// Change what `token` wants to hear about. No-op if the token is
    /// not registered (the conn may have died in the same sweep).
    pub fn reregister(&mut self, token: usize, interest: Interest) {
        if let Some(slot) = self.slots.iter_mut().find(|(t, _, _)| *t == token) {
            slot.2 = interest;
        }
    }

    /// Forget `token`. No-op if absent.
    pub fn deregister(&mut self, token: usize) {
        self.slots.retain(|(t, _, _)| *t != token);
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// elapses (`None` = wait forever), filling `events` with the ready
    /// tokens. Returns the number of events; 0 on timeout or EINTR.
    /// `poll(2)` counts whole milliseconds, so a non-zero timeout rounds
    /// up to the next one (a sub-millisecond wait must not spin), and
    /// [`Duration::ZERO`] only checks.
    pub fn poll(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        self.fds.clear();
        for (_, fd, interest) in &self.slots {
            let mut ev = 0i16;
            if interest.wants_read() {
                ev |= POLLIN;
            }
            if interest.wants_write() {
                ev |= POLLOUT;
            }
            self.fds.push(PollFd {
                fd: *fd,
                events: ev,
                revents: 0,
            });
        }
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(t) => t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
        };
        // SAFETY: fds points at a live, correctly-sized PollFd array;
        // poll(2) writes only the revents fields.
        let n = unsafe {
            poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as std::ffi::c_ulong,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0); // EINTR: caller loops
            }
            return Err(err);
        }
        for (slot, fd) in self.slots.iter().zip(&self.fds) {
            let r = fd.revents;
            if r == 0 {
                continue;
            }
            assert!(r & POLLNVAL == 0, "polled a closed fd (token {})", slot.0);
            events.push(Event {
                token: slot.0,
                // HUP/ERR surface through a read/write attempt, so they
                // count as both kinds of readiness.
                readable: r & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: r & (POLLOUT | POLLHUP | POLLERR) != 0,
            });
        }
        Ok(events.len())
    }
}

/// A buffered nonblocking connection inside an event loop: reads
/// accumulate in `rbuf` for the owner to parse frames out of; writes
/// queue as whole frames and flush on writability with a gather
/// `writev(2)` — one syscall drains a burst of frames, with no
/// userspace concatenation copy — so the loop never blocks on a slow
/// peer.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    /// Queued outgoing frames, oldest first; the front frame may be
    /// partially written (see `wpos`).
    wq: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    wpos: usize,
    /// Unwritten bytes across `wq`.
    queued: usize,
    /// `write`/`writev` syscalls attempted — observability for the
    /// batching claim (and its regression test).
    write_calls: u64,
    /// `read` syscalls attempted — observability for the short-read
    /// drain (and its regression test).
    read_calls: u64,
    eof: bool,
}

impl Conn {
    /// Wrap `stream`, switching it to nonblocking with NODELAY (every
    /// protocol in this crate is request/reply with small frames).
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wq: VecDeque::new(),
            wpos: 0,
            queued: 0,
            write_calls: 0,
            read_calls: 0,
            eof: false,
        })
    }

    /// The fd to register with a [`Poller`].
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Read what the socket holds into the read buffer (call on read
    /// readiness). It reads until one read comes back short of its
    /// 16 KiB scratch buffer: a short read took everything the kernel
    /// held, and a level-triggered [`Poller::poll`] reports whatever
    /// arrives after it, so no read is spent learning that the socket
    /// is empty. An EOF behind the bytes read therefore surfaces on a
    /// later call. EOF and connection resets set [`Conn::is_eof`]
    /// rather than erroring — a vanished peer is an in-band condition
    /// for every caller; only unexpected I/O errors surface as `Err`.
    pub fn read_ready(&mut self) -> io::Result<()> {
        let mut scratch = [0u8; 16 * 1024];
        while self.read_into(&mut scratch)? == scratch.len() {}
        Ok(())
    }

    /// Like [`Conn::read_ready`], but a single read of at most
    /// [`READ_CHUNK`] bytes: the buffer grows by a bounded amount per
    /// call, so a peer that floods faster than the owner parses cannot
    /// balloon it. `Ok(false)` when the socket had nothing to give (the
    /// read would have blocked); bytes or an EOF are `Ok(true)`.
    pub fn read_some(&mut self) -> io::Result<bool> {
        let mut scratch = [0u8; READ_CHUNK];
        let n = self.read_into(&mut scratch)?;
        Ok(n > 0 || self.eof)
    }

    /// One `read(2)` through `scratch` into the buffer: the bytes that
    /// arrived, 0 at EOF or when the read would block.
    fn read_into(&mut self, scratch: &mut [u8]) -> io::Result<usize> {
        loop {
            self.read_calls += 1;
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(0);
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionReset
                        || e.kind() == io::ErrorKind::BrokenPipe =>
                {
                    self.eof = true;
                    return Ok(0);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The peer hung up (no more bytes will ever arrive).
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// Unparsed received bytes.
    pub fn buffered(&self) -> &[u8] {
        &self.rbuf[self.rpos..]
    }

    /// Discard `n` parsed bytes from the front of the read buffer.
    pub fn consume(&mut self, n: usize) {
        self.rpos += n;
        assert!(self.rpos <= self.rbuf.len(), "consumed past the buffer");
        // Compact lazily so a long-lived conn doesn't grow forever; a
        // fully parsed buffer resets for free.
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos > 64 * 1024 && self.rpos * 2 > self.rbuf.len() {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }

    /// Queue `frame` for delivery, without copying it (then call
    /// [`Conn::flush`], and keep the fd registered writable while
    /// [`Conn::wants_write`]). Empty frames are dropped — they carry no
    /// bytes and would only pad the iovec array.
    pub fn queue(&mut self, frame: Vec<u8>) {
        if !frame.is_empty() {
            self.queued += frame.len();
            self.wq.push_back(frame);
        }
    }

    /// Write queued frames until done or the socket would block, each
    /// syscall a gather `writev(2)` over up to `MAX_IOV` (64) frames. An
    /// `Err` means the peer is gone mid-frame; the owner decides what
    /// that means (the wire link engine marks the link dead).
    pub fn flush(&mut self) -> io::Result<()> {
        while !self.wq.is_empty() {
            let mut iov: Vec<IoVec> = Vec::with_capacity(self.wq.len().min(MAX_IOV));
            for (i, frame) in self.wq.iter().take(MAX_IOV).enumerate() {
                let skip = if i == 0 { self.wpos } else { 0 };
                iov.push(IoVec {
                    base: frame[skip..].as_ptr(),
                    len: frame.len() - skip,
                });
            }
            self.write_calls += 1;
            // SAFETY: every iovec points into a frame owned by `wq`,
            // which is not mutated until the call returns; writev(2)
            // only reads the described buffers.
            let n = unsafe { writev(self.stream.as_raw_fd(), iov.as_ptr(), iov.len() as i32) };
            if n < 0 {
                let e = io::Error::last_os_error();
                match e.kind() {
                    io::ErrorKind::WouldBlock => return Ok(()),
                    io::ErrorKind::Interrupted => continue,
                    _ => return Err(e),
                }
            }
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer stopped accepting bytes",
                ));
            }
            // Retire fully-written frames; a short write leaves the
            // front frame with an offset for the next readiness sweep.
            let mut left = n as usize;
            self.queued -= left;
            while left > 0 {
                let front = self.wq.front().expect("bytes written from queued frames");
                let rem = front.len() - self.wpos;
                if left >= rem {
                    self.wq.pop_front();
                    self.wpos = 0;
                    left -= rem;
                } else {
                    self.wpos += left;
                    left = 0;
                }
            }
        }
        Ok(())
    }

    /// Bytes are still queued: keep polling for writability.
    pub fn wants_write(&self) -> bool {
        !self.wq.is_empty()
    }

    /// What to poll this connection for: readable, plus writable while
    /// bytes are queued.
    pub fn interest(&self) -> Interest {
        if self.wants_write() {
            Interest::BOTH
        } else {
            Interest::READABLE
        }
    }

    /// Queued bytes not yet accepted by the kernel.
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// How many write syscalls this connection has attempted — with
    /// gather writes this stays well below the number of queued frames.
    pub fn write_syscalls(&self) -> u64 {
        self.write_calls
    }

    /// How many read syscalls this connection has attempted — with the
    /// short-read drain, one per readiness while frames are smaller
    /// than the scratch buffer.
    pub fn read_syscalls(&self) -> u64 {
        self.read_calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let a = TcpStream::connect(l.local_addr().expect("addr")).expect("connect");
        let (b, _) = l.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn poll_reports_readability_when_bytes_arrive() {
        let (a, b) = pair();
        let mut p = Poller::new();
        p.register(a.as_raw_fd(), 7, Interest::READABLE);
        let mut events = Vec::new();
        // Nothing yet: times out with no events.
        let n = p
            .poll(&mut events, Some(Duration::from_millis(10)))
            .expect("poll");
        assert_eq!(n, 0);
        (&b).write_all(b"x").expect("write");
        let n = p
            .poll(&mut events, Some(Duration::from_secs(5)))
            .expect("poll");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn a_sub_millisecond_timeout_waits_instead_of_spinning() {
        let mut p = Poller::new();
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        for _ in 0..20 {
            p.poll(&mut events, Some(Duration::from_micros(200)))
                .expect("poll");
        }
        assert!(
            start.elapsed() >= Duration::from_millis(4),
            "20 polls of 200 us took {:?}",
            start.elapsed()
        );
        let start = std::time::Instant::now();
        p.poll(&mut events, Some(Duration::ZERO)).expect("poll");
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "a zero timeout blocked"
        );
    }

    #[test]
    fn poll_reports_hangup_as_readable() {
        let (a, b) = pair();
        let mut p = Poller::new();
        p.register(a.as_raw_fd(), 1, Interest::READABLE);
        drop(b);
        let mut events = Vec::new();
        let n = p
            .poll(&mut events, Some(Duration::from_secs(5)))
            .expect("poll");
        assert_eq!(n, 1);
        assert!(events[0].readable, "EOF must wake a reader");
    }

    #[test]
    fn deregistered_tokens_stop_reporting() {
        let (a, b) = pair();
        let mut p = Poller::new();
        p.register(a.as_raw_fd(), 1, Interest::READABLE);
        p.deregister(1);
        (&b).write_all(b"x").expect("write");
        let mut events = Vec::new();
        let n = p
            .poll(&mut events, Some(Duration::from_millis(20)))
            .expect("poll");
        assert_eq!(n, 0, "deregistered fd must not report");
    }

    #[test]
    fn conn_queues_short_writes_and_parses_across_reads() {
        let (a, b) = pair();
        let mut ca = Conn::new(a).expect("conn");
        let mut cb = Conn::new(b).expect("conn");
        ca.queue(b"hello ".to_vec());
        ca.queue(b"world".to_vec());
        assert!(ca.wants_write());
        ca.flush().expect("flush");
        assert!(!ca.wants_write());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cb.buffered().len() < 11 {
            assert!(std::time::Instant::now() < deadline, "bytes never arrived");
            cb.read_ready().expect("read");
        }
        assert_eq!(cb.buffered(), b"hello world");
        cb.consume(6);
        assert_eq!(cb.buffered(), b"world");
        drop(ca);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cb.is_eof() {
            assert!(std::time::Instant::now() < deadline, "EOF never surfaced");
            cb.read_ready().expect("read");
        }
        assert_eq!(cb.buffered(), b"world", "EOF keeps buffered bytes");
    }

    #[test]
    fn flush_batches_many_queued_frames_into_few_syscalls() {
        let (a, b) = pair();
        let mut ca = Conn::new(a).expect("conn");
        let mut cb = Conn::new(b).expect("conn");
        let mut expect = Vec::new();
        for i in 0..10u8 {
            let frame = vec![i; 100];
            expect.extend_from_slice(&frame);
            ca.queue(frame);
        }
        assert!(ca.wants_write());
        ca.flush().expect("flush");
        assert!(!ca.wants_write());
        // The gather write is the point: a multi-frame burst must not
        // cost one syscall per frame.
        assert!(
            ca.write_syscalls() < 10,
            "10 frames took {} write syscalls",
            ca.write_syscalls()
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cb.buffered().len() < expect.len() {
            assert!(std::time::Instant::now() < deadline, "bytes never arrived");
            cb.read_ready().expect("read");
        }
        assert_eq!(cb.buffered(), &expect[..], "frames arrive in order");
    }

    /// Block until `p` reports its one registration readable.
    fn wait_readable(p: &mut Poller) {
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !events.first().is_some_and(|e: &Event| e.readable) {
            assert!(std::time::Instant::now() < deadline, "never readable");
            p.poll(&mut events, Some(Duration::from_secs(5)))
                .expect("poll");
        }
    }

    /// The drain stops at its first short read: a frame smaller than
    /// the scratch buffer costs one read, a burst bigger than it arrives
    /// whole over reads that readiness alone drives, and an EOF behind
    /// bytes surfaces on the next call, once the poll reports it.
    #[test]
    fn read_ready_stops_at_the_first_short_read() {
        let (a, b) = pair();
        let mut cb = Conn::new(b).expect("conn");
        let mut p = Poller::new();
        p.register(cb.fd(), 1, Interest::READABLE);

        (&a).write_all(b"one small frame").expect("write");
        wait_readable(&mut p);
        cb.read_ready().expect("read");
        assert_eq!(cb.buffered(), b"one small frame");
        assert_eq!(cb.read_syscalls(), 1, "a short read ends the drain");
        cb.consume(cb.buffered().len());

        let burst: Vec<u8> = (0..40 * 1024).map(|i| (i % 251) as u8).collect();
        let writer = {
            let (a, burst) = (a.try_clone().expect("clone"), burst.clone());
            std::thread::spawn(move || (&a).write_all(&burst).expect("burst"))
        };
        while cb.buffered().len() < burst.len() {
            wait_readable(&mut p);
            cb.read_ready().expect("read");
        }
        writer.join().expect("writer");
        assert_eq!(cb.buffered(), &burst[..], "the burst arrives in order");
        cb.consume(burst.len());

        (&a).write_all(b"last").expect("write");
        drop(a);
        wait_readable(&mut p);
        cb.read_ready().expect("read");
        assert_eq!(cb.buffered(), b"last");
        assert!(!cb.is_eof(), "the short read stopped before the EOF");
        wait_readable(&mut p);
        cb.read_ready().expect("read");
        assert!(cb.is_eof(), "the EOF surfaces on the next call");
        assert_eq!(cb.buffered(), b"last", "EOF keeps buffered bytes");
    }

    #[test]
    fn short_writes_resume_mid_frame_across_flushes() {
        let (a, b) = pair();
        let mut ca = Conn::new(a).expect("conn");
        let mut cb = Conn::new(b).expect("conn");
        // Far beyond any socket buffer, so flush hits WouldBlock with
        // the front frame partially written, plus trailing frames that
        // must stay intact behind it.
        let big = vec![0xabu8; 4 * 1024 * 1024];
        ca.queue(big.clone());
        ca.queue(b"tail-1".to_vec());
        ca.queue(b"tail-2".to_vec());
        let total = big.len() + 12;
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while cb.buffered().len() < total {
            assert!(std::time::Instant::now() < deadline, "transfer stalled");
            ca.flush().expect("flush");
            cb.read_ready().expect("read");
        }
        assert!(!ca.wants_write());
        assert_eq!(&cb.buffered()[..big.len()], &big[..]);
        assert_eq!(&cb.buffered()[big.len()..], b"tail-1tail-2");
    }
}
