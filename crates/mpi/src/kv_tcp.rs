//! The client-server lab over **real TCP sockets** — CS87's "C socket
//! client-server" short lab, on loopback.
//!
//! A line-oriented protocol (one request per line, one reply per line):
//!
//! ```text
//! GET <key>             -> VALUE <version> <value> | NOTFOUND
//! PUT <key> <value>     -> OK <version>
//! DEL <key>             -> OK 0 | NOTFOUND
//! CAS <key> <ver> <val> -> OK <version> | CONFLICT <actual>
//! QUIT                  -> BYE (connection closes)
//! ```
//!
//! One codec ([`parse_line`], [`render`]) maps lines to
//! [`crate::kv::Request`]s and [`crate::kv::Reply`]s back to lines, and
//! one function ([`crate::kv::apply`]) executes them, so the store
//! semantics are the in-process server's, verbatim. Two server
//! architectures share both:
//!
//! * [`TcpKvServer`] — one thread per connection (the lab's first
//!   architecture), shared store behind a mutex.
//! * [`EventLoopKvServer`] — a single-threaded readiness loop on
//!   [`Poller`]: every connection is a [`LineConn`], the loop owns the
//!   store outright (no lock), and it sleeps in `poll(2)` until a socket
//!   is ready — no thread explosion at high fan-in, no busy sweep.
//!
//! [`LineConn`] is also the client connection of `db::serve`'s front
//! end, so line framing, buffer caps and error accounting are one
//! mechanism everywhere a client socket is served from an event loop.
//!
//! Connections that die mid-request (a half-read line at EOF, a read or
//! write error) never crash the server and never execute the truncated
//! request; each such failure bumps the server's `kv.conn_errors`
//! counter in its pdc-trace session. Failures *caused by shutdown* are
//! not client failures and are never counted: shutdown stops reading
//! and lets in-flight replies finish writing, so a server stopped under
//! load reports zero spurious errors.

use crate::kv::{self, Reply, Request, Store};
use crate::poll::{Conn, Event, Interest, Poller};
use pdc_core::metrics::Counter;
use pdc_core::trace::TraceSession;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Longest accepted request line, in bytes, including the newline. A
/// client that streams more than this without a `\n` gets `ERR
/// too-long`, one `kv.conn_errors` bump, and a closed connection — on
/// every server — instead of growing a server-side buffer without
/// bound.
pub const MAX_LINE: usize = 4096;

/// Cap on buffered, not-yet-written reply bytes per connection. A
/// client that pipelines requests but never reads replies hits this
/// instead of OOMing the event loop; such a connection is dropped and
/// counted in `kv.conn_errors`.
pub const MAX_WBUF: usize = 256 * 1024;

// ---------------------------------------------------------------------
// The line codec
// ---------------------------------------------------------------------

/// One request line, parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// A well-formed store request.
    Request(Request),
    /// `QUIT`: answer `BYE` and close.
    Quit,
    /// A malformed line; the payload is the `ERR …` reply to send.
    Err(String),
}

/// Parse one request line (trailing newline optional). `PUT` and `CAS`
/// take the rest of the line as the value, so values may hold spaces.
pub fn parse_line(line: &str) -> Line {
    let line = line.trim();
    let cmd = line.split(' ').next().unwrap_or("");
    let mut args = line
        .splitn(if cmd == "CAS" { 4 } else { 3 }, ' ')
        .skip(1)
        .map(str::to_string);
    let req = match cmd {
        "GET" => args.next().map(|key| Request::Get { key }),
        "DEL" => args.next().map(|key| Request::Delete { key }),
        "PUT" => match (args.next(), args.next()) {
            (Some(key), Some(value)) => Some(Request::Put { key, value }),
            _ => None,
        },
        "CAS" => match (args.next(), args.next(), args.next()) {
            (Some(key), Some(ver), Some(value)) => match ver.parse() {
                Ok(expect_version) => Some(Request::Cas {
                    key,
                    expect_version,
                    value,
                }),
                Err(_) => return Line::Err("ERR bad version".into()),
            },
            _ => None,
        },
        "QUIT" => return Line::Quit,
        _ => return Line::Err(format!("ERR unknown command {cmd:?}")),
    };
    req.map_or_else(
        || {
            Line::Err(format!(
                "ERR usage: {}",
                match cmd {
                    "PUT" => "PUT <key> <value>",
                    "CAS" => "CAS <key> <version> <value>",
                    "DEL" => "DEL <key>",
                    _ => "GET <key>",
                }
            ))
        },
        Line::Request,
    )
}

/// The protocol line for `reply` (no newline).
pub fn render(reply: &Reply) -> String {
    match reply {
        Reply::Value { value, version } => format!("VALUE {version} {value}"),
        Reply::NotFound => "NOTFOUND".into(),
        Reply::Ok { version } => format!("OK {version}"),
        Reply::CasConflict { actual_version } => format!("CONFLICT {actual_version}"),
        Reply::Bye => "BYE".into(),
    }
}

/// Answer one parsed line against a store both servers hold.
fn respond(line: Line, store: &mut Store) -> String {
    match line {
        Line::Request(req) => render(&kv::apply(store, &req)),
        Line::Quit => render(&Reply::Bye),
        Line::Err(reply) => reply,
    }
}

// ---------------------------------------------------------------------
// LineConn: one client socket inside an event loop
// ---------------------------------------------------------------------

/// One client connection inside a readiness loop, on [`Conn`]:
///
/// * **framing** — complete lines come out of [`LineConn::next_line`]
///   already parsed; a line longer than [`MAX_LINE`] yields `ERR
///   too-long` instead, and [`LineConn::fill`] reads at most one
///   [`crate::poll::READ_CHUNK`] per call, so a flooding client never
///   buffers more than `MAX_LINE` plus one chunk;
/// * **replies** — [`LineConn::reply`] queues a line; past [`MAX_WBUF`]
///   unwritten bytes the client is shed;
/// * **accounting** — EOF mid-line, an over-long line, a read or write
///   failure and a shed client each bump `kv.conn_errors` once, unless
///   the caller says the server is shutting down.
///
/// After `QUIT`, EOF or an over-long line the connection is *closing*:
/// it reads nothing more and is [`LineConn::is_done`] once its queued
/// replies are written.
pub struct LineConn {
    conn: Conn,
    errors: Counter,
    closing: bool,
    dead: bool,
}

impl LineConn {
    /// Wrap an accepted client socket (nonblocking, `TCP_NODELAY`),
    /// counting its failures into `errors`.
    pub fn new(stream: TcpStream, errors: Counter) -> io::Result<LineConn> {
        Ok(LineConn {
            conn: Conn::new(stream)?,
            errors,
            closing: false,
            dead: false,
        })
    }

    /// The fd to register with a [`Poller`].
    pub fn fd(&self) -> RawFd {
        self.conn.fd()
    }

    /// Read one chunk of whatever the client sent (nothing ready costs
    /// one syscall).
    pub fn fill(&mut self, shutting_down: bool) {
        if !self.closing && !self.dead && self.conn.read_some().is_err() {
            self.fail(shutting_down);
        }
    }

    /// The next complete request line, if one is buffered. `QUIT` and an
    /// over-long line close the connection; anything buffered after
    /// them is dropped unexecuted.
    pub fn next_line(&mut self, shutting_down: bool) -> Option<Line> {
        if self.closing || self.dead {
            return None;
        }
        let buf = self.conn.buffered();
        match buf.iter().take(MAX_LINE).position(|&b| b == b'\n') {
            Some(end) => {
                let line = parse_line(&String::from_utf8_lossy(&buf[..end]));
                self.conn.consume(end + 1);
                self.closing = line == Line::Quit;
                Some(line)
            }
            None if buf.len() >= MAX_LINE => {
                self.closing = true;
                self.count(shutting_down);
                Some(Line::Err("ERR too-long".into()))
            }
            None => {
                if self.conn.is_eof() {
                    // Leftover bytes are a request the client never
                    // finished: count it, never execute it.
                    self.closing = true;
                    if !buf.is_empty() {
                        self.count(shutting_down);
                    }
                }
                None
            }
        }
    }

    /// Queue one reply line (the newline is added here).
    pub fn reply(&mut self, text: &str, shutting_down: bool) {
        if self.dead {
            return;
        }
        self.conn.queue(format!("{text}\n").into_bytes());
        if self.conn.queued_bytes() > MAX_WBUF {
            self.fail(shutting_down);
        }
    }

    /// Write as much queued reply as the socket accepts.
    pub fn flush(&mut self, shutting_down: bool) {
        if !self.dead && self.conn.wants_write() && self.conn.flush().is_err() {
            self.fail(shutting_down);
        }
    }

    /// Reply bytes are still queued.
    pub fn wants_write(&self) -> bool {
        !self.dead && self.conn.wants_write()
    }

    /// No more requests will be read from this connection.
    pub fn is_closing(&self) -> bool {
        self.closing || self.dead
    }

    /// Finished: broken, or closing with every reply written. Drop it.
    pub fn is_done(&self) -> bool {
        self.dead || (self.closing && !self.conn.wants_write())
    }

    /// What to poll this connection for; `None` once it is done.
    pub fn interest(&self) -> Option<Interest> {
        match (self.is_done(), self.closing) {
            (true, _) => None,
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => Some(self.conn.interest()),
        }
    }

    fn fail(&mut self, shutting_down: bool) {
        self.dead = true;
        self.count(shutting_down);
    }

    fn count(&self, shutting_down: bool) {
        if !shutting_down {
            self.errors.inc();
        }
    }
}

/// Accept every connection waiting on a nonblocking `listener`; a
/// failed accept counts into `errors`, as the connection would have.
pub fn accept_ready(listener: &TcpListener, errors: &Counter) -> Vec<LineConn> {
    let mut accepted = Vec::new();
    loop {
        match listener.accept() {
            Ok((s, _)) => match LineConn::new(s, errors.clone()) {
                Ok(c) => accepted.push(c),
                Err(_) => errors.inc(),
            },
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return accepted,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                errors.inc();
                return accepted;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Thread-per-connection server
// ---------------------------------------------------------------------

/// A running TCP KV server.
pub struct TcpKvServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    /// Clones of every accepted stream, so shutdown can force-close
    /// connections whose clients are still attached (otherwise joining
    /// their threads would block on a read forever).
    conns: Arc<Mutex<Vec<TcpStream>>>,
    trace: TraceSession,
}

impl TcpKvServer {
    /// Bind to an ephemeral loopback port and start serving, with a
    /// private trace session.
    pub fn start() -> io::Result<TcpKvServer> {
        TcpKvServer::start_traced(&TraceSession::new())
    }

    /// Like [`TcpKvServer::start`], publishing `kv.conn_errors` into a
    /// shared `session`.
    pub fn start_traced(session: &TraceSession) -> io::Result<TcpKvServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let store = Arc::new(Mutex::new(Store::new()));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let conn_errors = session.counter("kv.conn_errors");
        let sd = Arc::clone(&shutdown);
        let conns2 = Arc::clone(&conns);
        let accept_handle = std::thread::spawn(move || {
            let mut conn_handles = Vec::new();
            for stream in listener.incoming() {
                if sd.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                stream.set_nodelay(true).ok();
                if let Ok(clone) = stream.try_clone() {
                    conns2.lock().unwrap().push(clone);
                }
                let store = Arc::clone(&store);
                let errors = conn_errors.clone();
                let sd = Arc::clone(&sd);
                conn_handles.push(std::thread::spawn(move || {
                    serve_conn(stream, &store, &errors, &sd)
                }));
            }
            for h in conn_handles {
                let _ = h.join();
            }
        });
        Ok(TcpKvServer {
            addr,
            shutdown,
            accept_handle: Some(accept_handle),
            conns,
            trace: session.clone(),
        })
    }

    /// The server's address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections that failed mid-request so far (`kv.conn_errors`).
    pub fn conn_errors(&self) -> u64 {
        self.trace.snapshot().get("kv.conn_errors")
    }

    /// Stop accepting, drain live connections, and join every server
    /// thread.
    ///
    /// Connections are half-closed on the **read** side only: a thread
    /// blocked in `read_line` wakes with a clean EOF, while a thread
    /// mid-write finishes its in-flight reply undisturbed (closing both
    /// directions here used to race those writes into spurious
    /// `kv.conn_errors` bumps). Whatever the teardown interrupts is the
    /// server's doing, not a client failure, so `serve_conn` counts no
    /// errors once the shutdown flag is up.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for c in self.conns.lock().unwrap().iter() {
            let _ = c.shutdown(std::net::Shutdown::Read);
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_conn(
    stream: TcpStream,
    store: &Mutex<Store>,
    conn_errors: &Counter,
    shutdown: &AtomicBool,
) {
    // A failure observed after shutdown began is the server tearing the
    // connection down, not the client misbehaving: never count it.
    let count_error = || {
        if !shutdown.load(Ordering::SeqCst) {
            conn_errors.inc();
        }
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            count_error();
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut raw = Vec::new();
    loop {
        raw.clear();
        // The same framing as a LineConn: a line, newline included, of
        // at most MAX_LINE bytes.
        let read = (&mut reader)
            .take(MAX_LINE as u64)
            .read_until(b'\n', &mut raw);
        let line = match read {
            // Clean EOF: client closed between requests.
            Ok(0) => break,
            Ok(_) if raw.ends_with(b"\n") => parse_line(&String::from_utf8_lossy(&raw)),
            // Over-long request: tell the client why before closing.
            Ok(n) if n == MAX_LINE => {
                count_error();
                let _ = writer.write_all(b"ERR too-long\n");
                break;
            }
            // EOF mid-line or a read error: the client vanished
            // mid-request. Never execute a truncated request — a
            // half-read "DEL xy…" is not the request that was sent.
            _ => {
                count_error();
                break;
            }
        };
        let quit = line == Line::Quit;
        let reply = respond(line, &mut store.lock().expect("kv store poisoned"));
        if writer.write_all(format!("{reply}\n").as_bytes()).is_err() {
            count_error();
            break;
        }
        if quit {
            break;
        }
    }
    // The accept thread keeps a clone of this socket for shutdown, so
    // dropping ours would not close it: end the connection explicitly.
    let _ = writer.shutdown(std::net::Shutdown::Both);
}

// ---------------------------------------------------------------------
// Event-loop server
// ---------------------------------------------------------------------

/// A running KV server with the same line protocol as [`TcpKvServer`],
/// but one thread for all connections: a [`Poller`] loop over the
/// listener and a [`LineConn`] per client. The loop blocks in `poll(2)`
/// until some socket is ready, executes complete lines against a store
/// it owns outright (no mutex), and writes as much reply as each socket
/// accepts. A connection that isn't ready costs nothing at all.
pub struct EventLoopKvServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    trace: TraceSession,
}

impl EventLoopKvServer {
    /// Bind to an ephemeral loopback port and start the loop, with a
    /// private trace session.
    pub fn start() -> io::Result<EventLoopKvServer> {
        EventLoopKvServer::start_traced(&TraceSession::new())
    }

    /// Like [`EventLoopKvServer::start`], publishing `kv.conn_errors`
    /// into a shared `session`.
    pub fn start_traced(session: &TraceSession) -> io::Result<EventLoopKvServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conn_errors = session.counter("kv.conn_errors");
        let sd = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || event_loop(&listener, &conn_errors, &sd));
        Ok(EventLoopKvServer {
            addr,
            shutdown,
            handle: Some(handle),
            trace: session.clone(),
        })
    }

    /// The server's address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections that failed mid-request so far (`kv.conn_errors`).
    pub fn conn_errors(&self) -> u64 {
        self.trace.snapshot().get("kv.conn_errors")
    }

    /// Stop the loop and join it. The loop drains first — complete
    /// requests already received are executed and their replies
    /// flushed — so a shutdown under load loses no acknowledged work
    /// and, as with [`TcpKvServer::shutdown`], counts no spurious
    /// `kv.conn_errors`.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the loop out of poll(2): the listener turns readable.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Poller token of the event loop's listener (connections count up
/// from 0).
const LISTENER: usize = usize::MAX;

fn event_loop(listener: &TcpListener, conn_errors: &Counter, shutdown: &AtomicBool) {
    let mut store = Store::new();
    let mut poller = Poller::new();
    poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE);
    let mut conns: HashMap<usize, LineConn> = HashMap::new();
    let mut next_token = 0;
    let mut events = Vec::new();
    let mut draining = false;
    loop {
        if poller.poll(&mut events, None).is_err() {
            return;
        }
        if !draining && shutdown.load(Ordering::SeqCst) {
            // Stop accepting, then give every connection one last read
            // and write; the loop ends once no reply is left queued.
            draining = true;
            poller.deregister(LISTENER);
            events = conns
                .keys()
                .map(|&token| Event {
                    token,
                    readable: true,
                    writable: true,
                })
                .collect();
        }
        for ev in &events {
            if ev.token == LISTENER {
                for c in accept_ready(listener, conn_errors) {
                    poller.register(c.fd(), next_token, Interest::READABLE);
                    conns.insert(next_token, c);
                    next_token += 1;
                }
                continue;
            }
            let Some(c) = conns.get_mut(&ev.token) else {
                continue;
            };
            if ev.readable {
                c.fill(draining);
                while let Some(line) = c.next_line(draining) {
                    let reply = respond(line, &mut store);
                    c.reply(&reply, draining);
                }
            }
            c.flush(draining);
            match c.interest() {
                Some(interest) => poller.reregister(ev.token, interest),
                None => {
                    poller.deregister(ev.token);
                    conns.remove(&ev.token);
                }
            }
        }
        if draining && !conns.values().any(LineConn::wants_write) {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A blocking line-protocol client.
pub struct TcpKvClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TcpKvClient {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> io::Result<TcpKvClient> {
        let stream = TcpStream::connect(addr)?;
        // One small request per reply: without nodelay, Nagle holding
        // the request back for the previous reply's delayed ACK puts
        // ~40ms of idle wire time on every call.
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TcpKvClient {
            writer: stream,
            reader,
        })
    }

    /// Send one request line; return the reply line. A server that
    /// closes before replying is [`io::ErrorKind::UnexpectedEof`].
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        let mut line = String::with_capacity(request.len() + 1);
        line.push_str(request);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        line.clear();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            ));
        }
        Ok(line.trim_end().to_string())
    }
}

/// Protocol edge cases every server of this line protocol must handle
/// identically — both servers here and `db::serve`'s front end run
/// them. Each check takes the server's address and a reader for its
/// `kv.conn_errors` counter, and panics on a violation.
pub mod conformance {
    use super::{TcpKvClient, MAX_LINE};
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// Send `PUT a 1\nQUIT\nPUT b 2\n` in one write; return the reply
    /// lines the server produced, stopping at EOF or once a read
    /// timeout shows no further reply is coming.
    fn pipeline_past_quit(addr: SocketAddr) -> Vec<String> {
        let s = TcpStream::connect(addr).expect("connect");
        (&s).write_all(b"PUT a 1\nQUIT\nPUT b 2\n")
            .expect("pipelined burst");
        s.set_read_timeout(Some(Duration::from_millis(500)))
            .expect("read timeout");
        let mut r = BufReader::new(s);
        let mut replies = Vec::new();
        let mut l = String::new();
        loop {
            l.clear();
            match r.read_line(&mut l) {
                Ok(0) | Err(_) => return replies,
                Ok(_) => replies.push(l.trim_end().to_string()),
            }
        }
    }

    /// A pipelined burst containing QUIT: the prefix is executed, the
    /// suffix is dropped, and nothing about it is a connection error.
    /// Expects keys `a` and `b` absent beforehand.
    pub fn assert_quit_drops_pipelined_suffix(addr: SocketAddr, conn_errors: impl Fn() -> u64) {
        assert_eq!(pipeline_past_quit(addr), ["OK 1", "BYE"]);
        let mut c = TcpKvClient::connect(addr).expect("connect");
        assert_eq!(
            c.call("GET a").expect("GET a"),
            "VALUE 1 1",
            "prefix executed"
        );
        assert_eq!(
            c.call("GET b").expect("GET b"),
            "NOTFOUND",
            "suffix dropped"
        );
        assert_eq!(conn_errors(), 0, "a clean QUIT is not a conn error");
    }

    /// Stream [`MAX_LINE`] bytes with no newline; expect `ERR too-long`,
    /// a closed connection, exactly one `kv.conn_errors` bump, and a
    /// server that still serves new clients. Expects the counter at 0
    /// and key `ok` absent beforehand.
    pub fn assert_overlong_line_rejected(addr: SocketAddr, conn_errors: impl Fn() -> u64) {
        let s = TcpStream::connect(addr).expect("connect");
        // Exactly MAX_LINE newline-less bytes: enough to trip the cap,
        // small enough to never block the writer.
        (&s).write_all(&vec![b'A'; MAX_LINE]).expect("flood");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut r = BufReader::new(s);
        let mut reply = String::new();
        let _ = r.read_line(&mut reply);
        assert_eq!(reply.trim_end(), "ERR too-long");
        // The overflow was counted (before the reply went out)…
        assert_eq!(conn_errors(), 1);
        // …and the server survived.
        let mut c = TcpKvClient::connect(addr).expect("connect");
        assert_eq!(c.call("PUT ok 1").expect("PUT ok"), "OK 1");
    }
}

#[cfg(test)]
mod tests {
    use super::conformance::{assert_overlong_line_rejected, assert_quit_drops_pipelined_suffix};
    use super::*;

    /// GET/PUT/DEL/CAS, malformed lines and QUIT through one connection.
    fn assert_full_protocol(addr: SocketAddr) {
        let mut c = TcpKvClient::connect(addr).unwrap();
        assert_eq!(c.call("GET x").unwrap(), "NOTFOUND");
        assert_eq!(c.call("PUT x 41").unwrap(), "OK 1");
        assert_eq!(c.call("PUT x 42").unwrap(), "OK 2");
        assert_eq!(c.call("GET x").unwrap(), "VALUE 2 42");
        assert_eq!(c.call("CAS x 2 43").unwrap(), "OK 3");
        assert_eq!(c.call("CAS x 2 stale").unwrap(), "CONFLICT 3");
        assert_eq!(c.call("DEL x").unwrap(), "OK 0");
        assert_eq!(c.call("GET x").unwrap(), "NOTFOUND");
        for bad in ["FROB x", "GET", "CAS k notanumber v"] {
            assert!(c.call(bad).unwrap().starts_with("ERR"), "{bad:?}");
        }
        assert_eq!(c.call("QUIT").unwrap(), "BYE");
    }

    #[test]
    fn get_put_del_over_real_sockets() {
        let server = TcpKvServer::start().unwrap();
        assert_full_protocol(server.addr());
        server.shutdown();
    }

    #[test]
    fn cas_over_sockets() {
        let server = TcpKvServer::start().unwrap();
        let mut c = TcpKvClient::connect(server.addr()).unwrap();
        assert_eq!(c.call("CAS k 0 first").unwrap(), "OK 1");
        assert_eq!(c.call("CAS k 1 second").unwrap(), "OK 2");
        assert_eq!(c.call("CAS k 1 stale").unwrap(), "CONFLICT 2");
        assert_eq!(c.call("GET k").unwrap(), "VALUE 2 second");
        server.shutdown();
    }

    /// Four clients write their own key 50 times each; every last
    /// write is visible to a fifth.
    fn assert_concurrent_clients_share_store(addr: SocketAddr) {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpKvClient::connect(addr).unwrap();
                    for j in 0..50 {
                        let r = c.call(&format!("PUT c{i} v{j}")).unwrap();
                        assert!(r.starts_with("OK "), "{r}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut c = TcpKvClient::connect(addr).unwrap();
        for i in 0..4 {
            assert_eq!(c.call(&format!("GET c{i}")).unwrap(), "VALUE 50 v49");
        }
    }

    #[test]
    fn concurrent_clients_shared_store() {
        let server = TcpKvServer::start().unwrap();
        assert_concurrent_clients_share_store(server.addr());
        server.shutdown();
    }

    #[test]
    fn concurrent_cas_one_winner() {
        let server = TcpKvServer::start().unwrap();
        let addr = server.addr();
        let mut c = TcpKvClient::connect(addr).unwrap();
        c.call("PUT hot base").unwrap(); // version 1
        let wins: usize = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpKvClient::connect(addr).unwrap();
                    let r = c.call(&format!("CAS hot 1 w{i}")).unwrap();
                    usize::from(r.starts_with("OK"))
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(wins, 1, "server linearizes CAS across sockets");
        server.shutdown();
    }

    /// A client that dies mid-request (half a line, no newline) is
    /// counted once; its truncated "DEL victim" is never executed, and
    /// existing and new clients keep working.
    fn assert_mid_request_disconnect_survived(addr: SocketAddr, conn_errors: impl Fn() -> u64) {
        let mut c = TcpKvClient::connect(addr).unwrap();
        assert_eq!(c.call("PUT victim alive").unwrap(), "OK 1");
        {
            let mut bad = TcpStream::connect(addr).unwrap();
            bad.write_all(b"DEL victim").unwrap();
            // Drop closes the socket: the server sees EOF mid-line.
        }
        // The error is counted (poll: the server runs async).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while conn_errors() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "kv.conn_errors never incremented"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(conn_errors(), 1);
        assert_eq!(c.call("GET victim").unwrap(), "VALUE 1 alive");
        let mut c2 = TcpKvClient::connect(addr).unwrap();
        assert_eq!(c2.call("GET victim").unwrap(), "VALUE 1 alive");
    }

    #[test]
    fn mid_request_disconnect_is_survived_and_counted() {
        let server = TcpKvServer::start().unwrap();
        assert_mid_request_disconnect_survived(server.addr(), || server.conn_errors());
        server.shutdown();
    }

    #[test]
    fn clean_disconnect_without_quit_is_not_an_error() {
        let server = TcpKvServer::start().unwrap();
        let addr = server.addr();
        {
            let mut c = TcpKvClient::connect(addr).unwrap();
            assert_eq!(c.call("PUT k v").unwrap(), "OK 1");
            // Drop without QUIT: complete requests only, clean EOF.
        }
        // Give the connection thread a moment to observe EOF.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(server.conn_errors(), 0);
        server.shutdown();
    }

    /// N clients loop GET → CAS on one key; returns the sorted list of
    /// versions the `OK <version>` replies handed out across all
    /// clients.
    fn hammer_one_key(addr: SocketAddr, clients: usize, rounds: usize) -> Vec<u64> {
        let mut seed = TcpKvClient::connect(addr).unwrap();
        assert_eq!(seed.call("PUT hot base").unwrap(), "OK 1");
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpKvClient::connect(addr).unwrap();
                    let mut wins = Vec::new();
                    for _ in 0..rounds {
                        let r = c.call("GET hot").unwrap();
                        let ver: u64 = r.split(' ').nth(1).unwrap().parse().unwrap();
                        let r = c.call(&format!("CAS hot {ver} w{i}")).unwrap();
                        if let Some(v) = r.strip_prefix("OK ") {
                            wins.push(v.parse::<u64>().unwrap());
                        } else {
                            assert!(r.starts_with("CONFLICT "), "{r}");
                        }
                    }
                    wins
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all
    }

    /// The contention invariant: the server must hand out each version
    /// to exactly one winner. Since only successful CAS bumps the
    /// version, the won versions must be exactly {2, 3, …, final} with
    /// no duplicates and no gaps.
    fn assert_cas_serialized(addr: SocketAddr) {
        let wins = hammer_one_key(addr, 6, 30);
        assert!(!wins.is_empty(), "at least one CAS must win");
        let mut c = TcpKvClient::connect(addr).unwrap();
        let reply = c.call("GET hot").unwrap();
        let final_ver: u64 = reply.split(' ').nth(1).unwrap().parse().unwrap();
        assert_eq!(final_ver, 1 + wins.len() as u64, "one bump per OK");
        assert_eq!(
            wins,
            (2..=final_ver).collect::<Vec<u64>>(),
            "every version won exactly once"
        );
    }

    #[test]
    fn cas_contention_one_ok_per_version_threaded_server() {
        let server = TcpKvServer::start().unwrap();
        assert_cas_serialized(server.addr());
        server.shutdown();
    }

    #[test]
    fn cas_contention_one_ok_per_version_event_loop_server() {
        let server = EventLoopKvServer::start().unwrap();
        assert_cas_serialized(server.addr());
        server.shutdown();
    }

    /// Drive a server with request/response loops while it shuts down;
    /// whatever the teardown interrupts must not surface as client
    /// failures in `kv.conn_errors`.
    fn shutdown_under_load(addr: SocketAddr, shutdown: impl FnOnce()) {
        let stop = Arc::new(AtomicBool::new(false));
        let clients: Vec<_> = (0..4)
            .map(|i| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let Ok(mut c) = TcpKvClient::connect(addr) else {
                        return;
                    };
                    let mut j = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        j += 1;
                        match c.call(&format!("PUT k{i} v{j}")) {
                            // Server left mid-call (EOF or error):
                            // expected during shutdown.
                            Ok(r) if r.starts_with("OK ") => {}
                            _ => return,
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        shutdown();
        stop.store(true, Ordering::SeqCst);
        for c in clients {
            c.join().unwrap();
        }
    }

    #[test]
    fn threaded_shutdown_mid_traffic_counts_no_spurious_errors() {
        // Pins the fix for the shutdown race: force-closing both stream
        // directions used to kill in-flight replies and bump
        // kv.conn_errors for connections that did nothing wrong.
        let session = TraceSession::new();
        let server = TcpKvServer::start_traced(&session).unwrap();
        shutdown_under_load(server.addr(), move || server.shutdown());
        assert_eq!(
            session.snapshot().get("kv.conn_errors"),
            0,
            "shutdown fabricated connection errors"
        );
    }

    #[test]
    fn event_loop_shutdown_mid_traffic_counts_no_spurious_errors() {
        let session = TraceSession::new();
        let server = EventLoopKvServer::start_traced(&session).unwrap();
        shutdown_under_load(server.addr(), move || server.shutdown());
        assert_eq!(session.snapshot().get("kv.conn_errors"), 0);
    }

    #[test]
    fn event_loop_serves_the_full_protocol() {
        let server = EventLoopKvServer::start().unwrap();
        assert_full_protocol(server.addr());
        server.shutdown();
    }

    #[test]
    fn event_loop_handles_pipelined_requests_in_one_write() {
        // Three requests in a single syscall: the loop must split lines
        // itself instead of relying on one-read-per-request framing.
        let server = EventLoopKvServer::start().unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"PUT a 1\nPUT b 2\nGET a\n").unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut l = String::new();
            r.read_line(&mut l).unwrap();
            lines.push(l.trim_end().to_string());
        }
        assert_eq!(lines, ["OK 1", "OK 1", "VALUE 1 1"]);
        server.shutdown();
    }

    #[test]
    fn event_loop_concurrent_clients_shared_store() {
        let server = EventLoopKvServer::start().unwrap();
        assert_concurrent_clients_share_store(server.addr());
        server.shutdown();
    }

    #[test]
    fn event_loop_mid_request_disconnect_is_survived_and_counted() {
        let server = EventLoopKvServer::start().unwrap();
        assert_mid_request_disconnect_survived(server.addr(), || server.conn_errors());
        server.shutdown();
    }

    #[test]
    fn threaded_quit_drops_pipelined_suffix() {
        let server = TcpKvServer::start().unwrap();
        assert_quit_drops_pipelined_suffix(server.addr(), || server.conn_errors());
        server.shutdown();
    }

    #[test]
    fn event_loop_quit_drops_pipelined_suffix() {
        let server = EventLoopKvServer::start().unwrap();
        assert_quit_drops_pipelined_suffix(server.addr(), || server.conn_errors());
        server.shutdown();
    }

    #[test]
    fn threaded_overlong_line_rejected_not_buffered() {
        let server = TcpKvServer::start().unwrap();
        assert_overlong_line_rejected(server.addr(), || server.conn_errors());
        server.shutdown();
    }

    #[test]
    fn event_loop_overlong_line_rejected_not_buffered() {
        let server = EventLoopKvServer::start().unwrap();
        assert_overlong_line_rejected(server.addr(), || server.conn_errors());
        server.shutdown();
    }

    /// Pins the write-phase accounting: a reply the socket will never
    /// take (`writev` making no progress, or failing as here on a
    /// write-shut socket) is a dead connection counted in
    /// `kv.conn_errors` — unless the server is shutting down.
    #[test]
    fn zero_length_write_is_a_dead_connection() {
        let session = TraceSession::new();
        let errors = session.counter("kv.conn_errors");
        for (shutting_down, counted) in [(false, 1), (true, 1)] {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let _client = TcpStream::connect(l.local_addr().unwrap()).unwrap();
            let (s, _) = l.accept().unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            let mut c = LineConn::new(s, errors.clone()).unwrap();
            c.reply("OK 1", shutting_down);
            assert!(c.wants_write());
            c.flush(shutting_down);
            assert!(c.is_done(), "a dead write ends the connection");
            assert_eq!(c.interest(), None);
            assert_eq!(errors.get(), counted);
        }
    }

    /// A client streaming newline-less bytes far past the cap: each
    /// fill adds at most one read chunk, and the line is rejected once
    /// the buffer reaches MAX_LINE.
    #[test]
    fn line_conn_bounds_a_flooding_client() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let writer = std::thread::spawn(move || {
            let _ = (&client).write_all(&vec![b'A'; 64 * MAX_LINE]);
            client
        });
        let (s, _) = l.accept().unwrap();
        let errors = TraceSession::new().counter("kv.conn_errors");
        let mut c = LineConn::new(s, errors.clone()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let line = loop {
            assert!(std::time::Instant::now() < deadline, "flood never rejected");
            c.fill(false);
            assert!(c.conn.buffered().len() <= MAX_LINE + crate::poll::READ_CHUNK);
            if let Some(line) = c.next_line(false) {
                break line;
            }
        };
        assert_eq!(line, Line::Err("ERR too-long".into()));
        assert!(c.is_closing());
        assert_eq!(errors.get(), 1);
        drop(c);
        drop(writer.join().unwrap());
    }

    #[test]
    fn codec_parses_every_command_and_rejects_malformed_lines() {
        let req = |line: &str| match parse_line(line) {
            Line::Request(r) => r,
            other => panic!("{line:?} parsed as {other:?}"),
        };
        assert_eq!(req("GET k\n"), Request::Get { key: "k".into() });
        assert_eq!(req("DEL k"), Request::Delete { key: "k".into() });
        assert_eq!(
            req("PUT k two words"),
            Request::Put {
                key: "k".into(),
                value: "two words".into()
            }
        );
        assert_eq!(
            req("CAS k 3 v w"),
            Request::Cas {
                key: "k".into(),
                expect_version: 3,
                value: "v w".into()
            }
        );
        assert_eq!(parse_line("QUIT\r\n"), Line::Quit);
        for bad in ["GET", "PUT k", "DEL", "CAS k 1", "CAS k x v", "FROB x", ""] {
            assert!(
                matches!(parse_line(bad), Line::Err(e) if e.starts_with("ERR ")),
                "{bad:?}"
            );
        }
        // `render` is pinned end to end by `assert_full_protocol`.
    }

    fn assert_call_after_quit_is_unexpected_eof(addr: SocketAddr) {
        let mut c = TcpKvClient::connect(addr).unwrap();
        assert_eq!(c.call("QUIT").unwrap(), "BYE");
        // Wait for the server's end to close: peek sees EOF.
        c.writer
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        assert_eq!(c.writer.peek(&mut [0u8; 1]).unwrap(), 0);
        let err = c.call("GET x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn call_after_quit_is_unexpected_eof_not_an_empty_reply() {
        let threaded = TcpKvServer::start().unwrap();
        assert_call_after_quit_is_unexpected_eof(threaded.addr());
        threaded.shutdown();
        let event_loop = EventLoopKvServer::start().unwrap();
        assert_call_after_quit_is_unexpected_eof(event_loop.addr());
        event_loop.shutdown();
    }
}
