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
//! semantics are the in-process server's, verbatim. [`TcpKvServer`]
//! serves them one thread per connection (the lab's first
//! architecture), with the shared store behind a mutex.
//!
//! The event-loop architecture is `db::serve`'s front end: one thread
//! making one `poll(2)` per pass over the listener and every client
//! socket, each a [`LineConn`], and touching only the sockets that poll
//! reports: it accepts when the listener is readable, reads a client
//! when its socket is, and writes a queued reply when the socket takes
//! it. Line framing, buffer caps and error accounting are one mechanism
//! wherever a client socket is served from an event loop. Both servers
//! pass every check in [`conformance`].
//!
//! Connections that die mid-request (a half-read line at EOF, a read or
//! write error) never crash the server and never execute the truncated
//! request; each such failure bumps the server's `kv.conn_errors`
//! counter in its pdc-trace session. Failures *caused by shutdown* are
//! not client failures and are never counted: shutdown stops reading
//! and lets in-flight replies finish writing, so a server stopped under
//! load reports zero spurious errors.

use crate::kv::{self, Reply, Request, Store};
use crate::poll::{Conn, Interest};
use pdc_core::metrics::Counter;
use pdc_core::trace::TraceSession;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::RawFd;
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

    /// The fd to register with a [`crate::Poller`].
    pub fn fd(&self) -> RawFd {
        self.conn.fd()
    }

    /// Read one chunk of whatever the client sent, at most one
    /// [`crate::poll::READ_CHUNK`]; call it when a poll reports the
    /// socket readable, and take every buffered line before the next
    /// poll, which reports only what the kernel still holds. `true` if
    /// the read came back empty: the socket would have blocked, so no
    /// poll had reported it ready. A closing connection reads nothing.
    pub fn fill(&mut self, shutting_down: bool) -> bool {
        if self.closing || self.dead {
            return false;
        }
        match self.conn.read_some() {
            Ok(got) => !got,
            Err(_) => {
                self.fail(shutting_down);
                false
            }
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

    /// No more requests will be read from this connection.
    pub fn is_closing(&self) -> bool {
        self.closing || self.dead
    }

    /// What to poll this connection for: readable until it is closing,
    /// and writable while replies are queued, so a reply the socket
    /// refused resumes as soon as the socket takes bytes again. `None`
    /// once it wants neither.
    pub fn interest(&self) -> Option<Interest> {
        let read = !self.is_closing();
        let write = !self.dead && self.conn.wants_write();
        match (read, write) {
            (true, true) => Some(Interest::BOTH),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        }
    }

    /// Finished: broken, or closing with every reply written. Drop it.
    pub fn is_done(&self) -> bool {
        self.dead || (self.closing && !self.conn.wants_write())
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

/// Accept one connection from a nonblocking `listener`; call it when a
/// poll reports the listener readable, which a level-triggered poll
/// does again while more connections wait. `Ok(None)` when there was
/// none to take; a failed accept is `Err` and counts into `errors`, as
/// the connection would have.
pub fn accept_ready(listener: &TcpListener, errors: &Counter) -> io::Result<Option<LineConn>> {
    loop {
        let accepted = listener
            .accept()
            .and_then(|(s, _)| LineConn::new(s, errors.clone()));
        match accepted {
            Ok(conn) => return Ok(Some(conn)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                errors.inc();
                return Err(e);
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
        let reply = match line {
            Line::Request(req) => {
                let mut store = store.lock().expect("kv store poisoned");
                render(&kv::apply(&mut store, &req))
            }
            Line::Quit => render(&Reply::Bye),
            Line::Err(reply) => reply,
        };
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

/// Protocol edge cases every GET/PUT/DEL server of this line protocol
/// must handle identically. [`TcpKvServer`] and `db::serve`'s front end
/// both run [`suite`](conformance::suite) against a fresh server; each
/// check uses keys of its own and asserts only on changes of the
/// server's `kv.conn_errors` counter, so they run in sequence.
pub mod conformance {
    use super::{TcpKvClient, MAX_LINE};
    use crate::poll::READ_CHUNK;
    use std::io::{self, BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::{Duration, Instant};

    /// Every check, in turn, against the server at `addr`; `conn_errors`
    /// reads its `kv.conn_errors` counter. Panics on a violation.
    pub fn suite(addr: SocketAddr, conn_errors: impl Fn() -> u64) {
        assert_pipelined_burst_answered_up_to_quit(addr, &conn_errors);
        assert_burst_past_one_read_answered_in_order(addr, &conn_errors);
        assert_call_after_quit_is_unexpected_eof(addr);
        assert_mid_request_disconnect_counted_once(addr, &conn_errors);
        assert_concurrent_clients_share_the_store(addr);
        assert_overlong_line_rejected(addr, &conn_errors);
    }

    /// Requests in one write, QUIT among them: the server splits the
    /// lines itself instead of relying on one read per request, answers
    /// each in order up to `BYE`, drops the rest unexecuted, and counts
    /// nothing as a connection error.
    fn assert_pipelined_burst_answered_up_to_quit(addr: SocketAddr, conn_errors: impl Fn() -> u64) {
        let before = conn_errors();
        let s = TcpStream::connect(addr).expect("connect");
        (&s).write_all(b"PUT a 1\nPUT b 2\nGET a\nQUIT\nPUT c 3\n")
            .expect("pipelined burst");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let replies: Vec<String> = BufReader::new(s).lines().map_while(Result::ok).collect();
        assert_eq!(replies, ["OK 1", "OK 1", "VALUE 1 1", "BYE"]);
        let mut c = TcpKvClient::connect(addr).expect("connect");
        assert_eq!(c.call("GET c").expect("GET c"), "NOTFOUND", "suffix run");
        assert_eq!(conn_errors(), before, "a clean QUIT is not a conn error");
    }

    /// A thousand `PUT`s of one key and a `QUIT` in one write, several
    /// [`READ_CHUNK`]s long: every line is answered in order, `OK 1` to
    /// `OK 1000`, then `BYE`, with no connection error. An event-loop
    /// server must take the lines already in its buffer too, where the
    /// kernel has no more readiness to report.
    fn assert_burst_past_one_read_answered_in_order(
        addr: SocketAddr,
        conn_errors: impl Fn() -> u64,
    ) {
        let puts = 1000;
        let before = conn_errors();
        let mut burst: String = (1..=puts).map(|v| format!("PUT burst v{v}\n")).collect();
        burst.push_str("QUIT\n");
        assert!(burst.len() > 2 * READ_CHUNK);
        let s = TcpStream::connect(addr).expect("connect");
        (&s).write_all(burst.as_bytes()).expect("burst");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let replies: Vec<String> = BufReader::new(s).lines().map_while(Result::ok).collect();
        let expect = (1..=puts).map(|v| format!("OK {v}")).chain(["BYE".into()]);
        let wrong = replies
            .iter()
            .zip(expect)
            .position(|(got, want)| *got != want);
        assert!(
            replies.len() == puts + 1 && wrong.is_none(),
            "{} replies to {} lines, the first wrong at {wrong:?}",
            replies.len(),
            puts + 1
        );
        assert_eq!(conn_errors(), before, "a clean burst is not a conn error");
    }

    /// A call on a connection the server closed after `BYE` is
    /// `UnexpectedEof`, not an empty reply.
    fn assert_call_after_quit_is_unexpected_eof(addr: SocketAddr) {
        let mut c = TcpKvClient::connect(addr).expect("connect");
        assert_eq!(c.call("QUIT").expect("QUIT"), "BYE");
        // Wait for the server's end to close: peek sees EOF.
        c.writer
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        assert_eq!(c.writer.peek(&mut [0u8; 1]).expect("peek"), 0);
        let err = c.call("GET x").expect_err("a reply after BYE");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    /// A client that leaves between requests, without QUIT, did nothing
    /// wrong. One that dies mid-request (half a line, no newline) is
    /// counted once; its truncated "DEL victim" is never executed, and
    /// existing and new clients keep working.
    fn assert_mid_request_disconnect_counted_once(addr: SocketAddr, conn_errors: impl Fn() -> u64) {
        let before = conn_errors();
        let mut c = TcpKvClient::connect(addr).expect("connect");
        assert_eq!(c.call("PUT victim alive").expect("PUT victim"), "OK 1");
        let mut clean = TcpKvClient::connect(addr).expect("connect");
        assert_eq!(clean.call("GET victim").expect("GET"), "VALUE 1 alive");
        drop(clean);
        // Give the server a moment to observe the clean EOF.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(conn_errors(), before, "a clean disconnect was counted");
        {
            let mut bad = TcpStream::connect(addr).expect("connect");
            bad.write_all(b"DEL victim").expect("half a request");
            // Drop closes the socket: the server sees EOF mid-line.
        }
        // The error is counted (poll: the server runs async).
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn_errors() == before {
            assert!(
                Instant::now() < deadline,
                "kv.conn_errors never incremented"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(conn_errors(), before + 1);
        assert_eq!(c.call("GET victim").expect("GET"), "VALUE 1 alive");
        let mut c = TcpKvClient::connect(addr).expect("connect");
        assert_eq!(c.call("GET victim").expect("GET"), "VALUE 1 alive");
    }

    /// Four clients write their own key 50 times each; every last
    /// write is visible to a fifth.
    fn assert_concurrent_clients_share_the_store(addr: SocketAddr) {
        let clients: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpKvClient::connect(addr).expect("connect");
                    for j in 0..50 {
                        let r = c.call(&format!("PUT c{i} v{j}")).expect("PUT");
                        assert!(r.starts_with("OK "), "{r}");
                    }
                })
            })
            .collect();
        for h in clients {
            h.join().expect("client thread");
        }
        let mut c = TcpKvClient::connect(addr).expect("connect");
        for i in 0..4 {
            let r = c.call(&format!("GET c{i}")).expect("GET");
            assert_eq!(r, "VALUE 50 v49");
        }
    }

    /// Stream [`MAX_LINE`] bytes with no newline; expect `ERR too-long`,
    /// a closed connection, exactly one `kv.conn_errors` bump, and a
    /// server that still serves new clients.
    fn assert_overlong_line_rejected(addr: SocketAddr, conn_errors: impl Fn() -> u64) {
        let before = conn_errors();
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
        assert_eq!(conn_errors(), before + 1);
        // …and the server survived.
        let mut c = TcpKvClient::connect(addr).expect("connect");
        assert_eq!(c.call("PUT ok 1").expect("PUT ok"), "OK 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threaded_server_passes_the_conformance_suite() {
        let server = TcpKvServer::start().unwrap();
        conformance::suite(server.addr(), || server.conn_errors());
        server.shutdown();
    }

    /// GET/PUT/DEL/CAS, malformed lines and QUIT through one connection.
    #[test]
    fn get_put_del_over_real_sockets() {
        let server = TcpKvServer::start().unwrap();
        let mut c = TcpKvClient::connect(server.addr()).unwrap();
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
    #[test]
    fn cas_contention_one_ok_per_version_threaded_server() {
        let server = TcpKvServer::start().unwrap();
        let wins = hammer_one_key(server.addr(), 6, 30);
        assert!(!wins.is_empty(), "at least one CAS must win");
        let mut c = TcpKvClient::connect(server.addr()).unwrap();
        let reply = c.call("GET hot").unwrap();
        let final_ver: u64 = reply.split(' ').nth(1).unwrap().parse().unwrap();
        assert_eq!(final_ver, 1 + wins.len() as u64, "one bump per OK");
        assert_eq!(
            wins,
            (2..=final_ver).collect::<Vec<u64>>(),
            "every version won exactly once"
        );
        server.shutdown();
    }

    /// Drive the server with request/response loops while it shuts
    /// down; whatever the teardown interrupts must not surface as client
    /// failures in `kv.conn_errors`. Pins the fix for the shutdown race:
    /// force-closing both stream directions used to kill in-flight
    /// replies and bump kv.conn_errors for connections that did nothing
    /// wrong.
    #[test]
    fn threaded_shutdown_mid_traffic_counts_no_spurious_errors() {
        let session = TraceSession::new();
        let server = TcpKvServer::start_traced(&session).unwrap();
        let addr = server.addr();
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
        server.shutdown();
        stop.store(true, Ordering::SeqCst);
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(
            session.snapshot().get("kv.conn_errors"),
            0,
            "shutdown fabricated connection errors"
        );
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
            assert!(!c.is_done(), "the reply is queued");
            c.flush(shutting_down);
            assert!(c.is_done(), "a dead write ends the connection");
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
        // `render` is pinned end to end by `get_put_del_over_real_sockets`.
    }
}
