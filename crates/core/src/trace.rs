//! pdc-trace: one observability schema for real and simulated runs.
//!
//! The same trace vocabulary covers the work-stealing pool (real
//! threads), [`SimMachine`](crate::machine::SimMachine) (simulated
//! cores), and the `pdc-mpi` rank world (message passing), so a bench
//! can overlay "what the simulator predicted" against "what the pool
//! did" in a single JSON document.
//!
//! Two layers:
//!
//! * **Counters** — named monotone totals in a [`metrics::Registry`]
//!   (see [`crate::metrics`]). Naming convention: dotted lowercase
//!   `subsystem.metric`, e.g. `pool.steals`, `machine.barriers`,
//!   `mpi.bytes`, `ft.reassignments`, `kv.conn_errors`.
//! * **Events** — a bounded per-thread [`TraceRecorder`]. Every event
//!   carries a logical timestamp drawn from one shared atomic clock, an
//!   `actor` (worker index, simulated core, or MPI rank), an
//!   [`EventKind`], and two kind-specific `u64` payload fields. When a
//!   thread's buffer fills, further events are counted in `dropped`
//!   rather than blocking or reallocating.
//!
//! [`TraceSession`] bundles a shared registry with a recorder and
//! exports both as `pdc-trace/2` JSON (hand-rolled via
//! [`report::json_escape`](crate::report::json_escape) — the build is
//! offline, so there is no serde). Schema 2 extends schema 1 with the
//! `gpu.*` / `io.*` / `cache.*` counter families, the `kernel` and
//! `coll_begin`/`coll_end` event kinds, and an optional `tables` array
//! of JSON-ified report tables (see
//! [`TraceSession::to_json_with_tables`]).

use crate::metrics::{Counter, Registry, Snapshot};
use crate::report::json_escape;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default per-thread event capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// `mode` payload of [`EventKind::Acquire`]/[`EventKind::Release`]:
/// shared (reader-side) ownership of a site, e.g. an rwlock read guard.
pub const SYNC_SHARED: u64 = 0;
/// `mode` payload: exclusive ownership of a site (mutex, spin, ticket,
/// rwlock write guard). Only exclusive/shared acquisitions feed the
/// lockset and lock-order analyses.
pub const SYNC_EXCLUSIVE: u64 = 1;
/// `mode` payload: a synchronisation *pulse* — a semaphore permit,
/// barrier episode, condvar signal, bounded-buffer hand-off, or
/// once-cell publication. Pulses carry happens-before edges but are not
/// held locks; the lock-order analysis treats a pulse currently "held"
/// (acquired and not yet released) as a *gate* that can serialise
/// otherwise-cyclic acquisition orders.
pub const SYNC_PULSE: u64 = 2;

/// Site id meaning "never trace this primitive" (internal
/// implementation locks, e.g. a mutex's waiter-queue spinlock).
pub const SITE_UNTRACED: u64 = u64::MAX;

static NEXT_SITE: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh process-wide synchronisation site id (or fork/join
/// handle). Ids are never reused and never 0 or [`SITE_UNTRACED`].
pub fn next_site_id() -> u64 {
    NEXT_SITE.fetch_add(1, Ordering::Relaxed)
}

/// A lazily-allocated per-primitive site id.
///
/// `const`-constructible so `const fn new` primitives (spin, ticket,
/// rwlock, once-cell) can embed one; the id is drawn from
/// [`next_site_id`] on first use. [`SiteId::disabled`] yields a
/// permanently untraced site for internal locks whose events would only
/// pollute the analysis.
#[derive(Debug)]
pub struct SiteId(AtomicU64);

impl SiteId {
    /// An unallocated site; the id is assigned on first [`SiteId::get`].
    pub const fn new() -> Self {
        SiteId(AtomicU64::new(0))
    }

    /// A site that never records (always `None`).
    pub const fn disabled() -> Self {
        SiteId(AtomicU64::new(SITE_UNTRACED))
    }

    /// Whether this site is permanently untraced (never records, never
    /// allocates an id). Cheap: one relaxed load.
    pub fn is_disabled(&self) -> bool {
        self.0.load(Ordering::Relaxed) == SITE_UNTRACED
    }

    /// The site id, allocating one on first call. `None` if disabled.
    pub fn get(&self) -> Option<u64> {
        match self.0.load(Ordering::Relaxed) {
            SITE_UNTRACED => None,
            0 => {
                let id = next_site_id();
                // First caller wins; losers adopt the winner's id.
                match self
                    .0
                    .compare_exchange(0, id, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => Some(id),
                    Err(cur) => Some(cur),
                }
            }
            id => Some(id),
        }
    }
}

impl Default for SiteId {
    fn default() -> Self {
        SiteId::new()
    }
}

/// What happened. The two payload fields of [`Event`] are named per
/// kind; see [`EventKind::field_names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A task was submitted (`task` = sequence number, `pending` =
    /// tasks in flight after the submit).
    Spawn,
    /// A worker stole work (`victim` = queue stolen from, `tasks` =
    /// tasks obtained).
    Steal,
    /// A barrier completed (`index` = barrier sequence number,
    /// `participants` = cores/ranks that synchronised).
    Barrier,
    /// A mutual-exclusion section was entered (`index` = lock sequence
    /// number, `entries` = total entries so far).
    Lock,
    /// A message was sent (`peer` = destination, `bytes` = payload
    /// size).
    Send,
    /// A message was received (`peer` = source, `bytes` = payload
    /// size).
    Recv,
    /// A parallel phase completed (`index` = phase sequence number,
    /// `tasks` = tasks in the phase).
    Phase,
    /// Free-form marker (`a`, `b` caller-defined).
    Mark,
    /// A GPU kernel launch completed (`launch` = launch sequence
    /// number on the device, `cycles` = modeled cycle cost).
    Kernel,
    /// A rank entered a collective (`coll` = collective id code, `seq`
    /// = per-rank collective sequence number). Sends/recvs recorded by
    /// the same actor between a `coll_begin` and its matching
    /// `coll_end` belong to that collective.
    CollBegin,
    /// A rank left a collective (`coll`, `seq` match the begin mark).
    CollEnd,
    /// A synchronisation site was acquired (`site` = stable per-primitive
    /// id from [`next_site_id`], `mode` = [`SYNC_SHARED`],
    /// [`SYNC_EXCLUSIVE`] or [`SYNC_PULSE`]). Recorded *after* the
    /// acquisition succeeds, so in logical-timestamp order an acquire
    /// never precedes the release that enabled it.
    Acquire,
    /// A synchronisation site was released (`site`, `mode` as for
    /// `Acquire`). Recorded *before* the releasing store, for the same
    /// ordering guarantee.
    Release,
    /// A shared variable was read (`var` = caller-chosen variable id,
    /// `aux` caller-defined).
    Read,
    /// A shared variable was written (`var`, `aux` as for `Read`).
    Write,
    /// The recording thread published its causal history under a fresh
    /// handle (`handle` = id from [`next_site_id`], `task`
    /// caller-defined) — e.g. a pool submit or the parent side of a
    /// fork-join split.
    Fork,
    /// The recording thread adopted the causal history published under
    /// `handle` (`task` caller-defined) — e.g. a worker starting a
    /// submitted task, or the parent joining a finished child.
    Join,
    /// The recording thread woke from a condition-style wait on `site`
    /// (`seq` = the notification count observed). Semantically a pulse
    /// acquire: the waiter adopts the history the matching [`Signal`]
    /// published. Recorded *after* the wakeup (and any mutex
    /// re-acquisition), so its timestamp follows the signal's.
    Wait,
    /// The recording thread signalled waiters on `site` (`seq` = the
    /// notification count after this signal). Semantically a pulse
    /// release: publishes the signaller's history to every waiter woken
    /// by this notification. Recorded *before* waiters are woken.
    Signal,
    /// A message was sent on an in-process channel (`chan` = stable
    /// channel id from [`next_site_id`], `seq` = per-channel send
    /// sequence number). Unlike [`EventKind::Send`], which pairs by
    /// (sender, peer) actor ids, channel events pair FIFO per channel:
    /// the *n*-th `chan_recv` on a channel adopts the history published
    /// by the *n*-th `chan_send`. Recorded *before* the message is
    /// enqueued.
    ChanSend,
    /// A message was received on an in-process channel (`chan`, `seq`
    /// match the send). Recorded *after* the message is dequeued.
    ChanRecv,
}

impl EventKind {
    /// Stable lowercase name used in the JSON export.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Spawn => "spawn",
            EventKind::Steal => "steal",
            EventKind::Barrier => "barrier",
            EventKind::Lock => "lock",
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::Phase => "phase",
            EventKind::Mark => "mark",
            EventKind::Kernel => "kernel",
            EventKind::CollBegin => "coll_begin",
            EventKind::CollEnd => "coll_end",
            EventKind::Acquire => "acquire",
            EventKind::Release => "release",
            EventKind::Read => "read",
            EventKind::Write => "write",
            EventKind::Fork => "fork",
            EventKind::Join => "join",
            EventKind::Wait => "wait",
            EventKind::Signal => "signal",
            EventKind::ChanSend => "chan_send",
            EventKind::ChanRecv => "chan_recv",
        }
    }

    /// Parse a stable lowercase name back into the kind (the inverse of
    /// [`EventKind::as_str`]); `None` for unknown names. Used by the
    /// `pdc-trace/2` parser in [`crate::merge`] when a parent process
    /// re-reads the snapshots its rank processes wrote to disk.
    pub fn parse_name(name: &str) -> Option<EventKind> {
        Some(match name {
            "spawn" => EventKind::Spawn,
            "steal" => EventKind::Steal,
            "barrier" => EventKind::Barrier,
            "lock" => EventKind::Lock,
            "send" => EventKind::Send,
            "recv" => EventKind::Recv,
            "phase" => EventKind::Phase,
            "mark" => EventKind::Mark,
            "kernel" => EventKind::Kernel,
            "coll_begin" => EventKind::CollBegin,
            "coll_end" => EventKind::CollEnd,
            "acquire" => EventKind::Acquire,
            "release" => EventKind::Release,
            "read" => EventKind::Read,
            "write" => EventKind::Write,
            "fork" => EventKind::Fork,
            "join" => EventKind::Join,
            "wait" => EventKind::Wait,
            "signal" => EventKind::Signal,
            "chan_send" => EventKind::ChanSend,
            "chan_recv" => EventKind::ChanRecv,
            _ => return None,
        })
    }

    /// Whether this kind's `a` payload is a process-local id from
    /// [`next_site_id`] — a site, variable, fork/join handle or channel
    /// — rather than global vocabulary such as a peer rank or a
    /// collective code. Canonicalization renumbers these ids per run,
    /// and merging namespaces them per process.
    #[inline]
    pub fn a_is_local_id(self) -> bool {
        matches!(
            self,
            EventKind::Acquire
                | EventKind::Release
                | EventKind::Wait
                | EventKind::Signal
                | EventKind::Read
                | EventKind::Write
                | EventKind::Fork
                | EventKind::Join
                | EventKind::ChanSend
                | EventKind::ChanRecv
        )
    }

    /// JSON field names for the `a`/`b` payload of this kind.
    pub fn field_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::Spawn => ("task", "pending"),
            EventKind::Steal => ("victim", "tasks"),
            EventKind::Barrier => ("index", "participants"),
            EventKind::Lock => ("index", "entries"),
            EventKind::Send => ("peer", "bytes"),
            EventKind::Recv => ("peer", "bytes"),
            EventKind::Phase => ("index", "tasks"),
            EventKind::Mark => ("a", "b"),
            EventKind::Kernel => ("launch", "cycles"),
            EventKind::CollBegin => ("coll", "seq"),
            EventKind::CollEnd => ("coll", "seq"),
            EventKind::Acquire => ("site", "mode"),
            EventKind::Release => ("site", "mode"),
            EventKind::Read => ("var", "aux"),
            EventKind::Write => ("var", "aux"),
            EventKind::Fork => ("handle", "task"),
            EventKind::Join => ("handle", "task"),
            EventKind::Wait => ("site", "seq"),
            EventKind::Signal => ("site", "seq"),
            EventKind::ChanSend => ("chan", "seq"),
            EventKind::ChanRecv => ("chan", "seq"),
        }
    }
}

/// One recorded occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Logical timestamp from the session-wide atomic clock. Orders
    /// events across threads without reading wall clocks.
    pub ts: u64,
    /// Who: pool worker index, simulated core, or MPI rank.
    pub actor: u32,
    /// What happened.
    pub kind: EventKind,
    /// First payload field; meaning per [`EventKind::field_names`].
    pub a: u64,
    /// Second payload field; meaning per [`EventKind::field_names`].
    pub b: u64,
}

impl Event {
    /// Render as one `pdc-trace/2` JSON object.
    pub fn to_json(&self) -> String {
        let (fa, fb) = self.kind.field_names();
        format!(
            "{{\"ts\":{},\"actor\":{},\"kind\":\"{}\",\"{}\":{},\"{}\":{}}}",
            self.ts,
            self.actor,
            self.kind.as_str(),
            fa,
            self.a,
            fb,
            self.b
        )
    }
}

#[derive(Debug)]
struct ThreadBuf {
    actor: u32,
    events: Mutex<Vec<Event>>,
}

#[derive(Debug)]
struct RecorderInner {
    clock: AtomicU64,
    capacity: usize,
    dropped: AtomicU64,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    auto_actor: AtomicU32,
}

impl RecorderInner {
    fn register(self: &Arc<Self>, actor: u32) -> ThreadTrace {
        let buf = Arc::new(ThreadBuf {
            actor,
            events: Mutex::new(Vec::new()),
        });
        self.threads
            .lock()
            .expect("trace recorder poisoned")
            .push(buf.clone());
        ThreadTrace {
            buf,
            inner: self.clone(),
        }
    }
}

/// First actor id handed out by [`ThreadTrace::sibling_auto`]; explicit
/// actors (worker indices, ranks, simulated cores) live far below this.
pub const AUTO_ACTOR_BASE: u32 = 1 << 20;

/// Bounded multi-producer event recorder.
///
/// Each producing thread registers once via [`TraceRecorder::thread`]
/// and then records into its own buffer; the only cross-thread traffic
/// on the hot path is the `fetch_add` on the shared logical clock.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new(DEFAULT_EVENT_CAPACITY)
    }
}

impl TraceRecorder {
    /// A recorder allowing `capacity_per_thread` events per registered
    /// thread before it starts counting drops.
    pub fn new(capacity_per_thread: usize) -> Self {
        TraceRecorder {
            inner: Arc::new(RecorderInner {
                clock: AtomicU64::new(0),
                capacity: capacity_per_thread,
                dropped: AtomicU64::new(0),
                threads: Mutex::new(Vec::new()),
                auto_actor: AtomicU32::new(AUTO_ACTOR_BASE),
            }),
        }
    }

    /// Register a producing thread (or simulated core, or rank).
    pub fn thread(&self, actor: u32) -> ThreadTrace {
        self.inner.register(actor)
    }

    /// Current logical time (next timestamp to be issued).
    pub fn now(&self) -> u64 {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// Events recorded so far, merged across threads and sorted by
    /// logical timestamp.
    pub fn events(&self) -> Vec<Event> {
        let threads = self.inner.threads.lock().expect("trace recorder poisoned");
        let mut out = Vec::new();
        for t in threads.iter() {
            out.extend(
                t.events
                    .lock()
                    .expect("trace buffer poisoned")
                    .iter()
                    .copied(),
            );
        }
        out.sort_by_key(|e| e.ts);
        out
    }

    /// Events discarded because a per-thread buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

/// A single thread's handle into a [`TraceRecorder`].
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    buf: Arc<ThreadBuf>,
    inner: Arc<RecorderInner>,
}

impl ThreadTrace {
    /// Record one event, stamping it with the shared logical clock.
    /// Silently counted as dropped once the buffer is full.
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        let ts = self.inner.clock.fetch_add(1, Ordering::Relaxed);
        let mut events = self.buf.events.lock().expect("trace buffer poisoned");
        if events.len() < self.inner.capacity {
            events.push(Event {
                ts,
                actor: self.buf.actor,
                kind,
                a,
                b,
            });
        } else {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The actor id this handle records as.
    pub fn actor(&self) -> u32 {
        self.buf.actor
    }

    /// A new handle into the same recorder under a fresh automatically
    /// allocated actor id (from [`AUTO_ACTOR_BASE`] upward) — for
    /// short-lived threads (e.g. the child of a fork-join split) that
    /// have no natural worker/rank index.
    pub fn sibling_auto(&self) -> ThreadTrace {
        let actor = self.inner.auto_actor.fetch_add(1, Ordering::Relaxed);
        self.inner.register(actor)
    }
}

// ---------------------------------------------------------------------
// Thread-local sync trace: lets pdc-sync primitives record acquire/
// release events with the correct actor without threading a handle
// through every guard signature. Runtimes that own threads (pool
// workers, MPI rank threads, fixtures) install a handle; everything is
// a no-op when none is installed.
// ---------------------------------------------------------------------

thread_local! {
    static SYNC_TRACE: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

// Fast global gate: stays `false` until the first install anywhere in
// the process, so untraced programs pay one relaxed load per lock op
// instead of a thread-local lookup.
static SYNC_TRACING_EVER: AtomicBool = AtomicBool::new(false);

/// Install `trace` as this thread's sync trace, returning the previous
/// one (reinstall it to nest scopes).
pub fn install_sync_trace(trace: ThreadTrace) -> Option<ThreadTrace> {
    SYNC_TRACING_EVER.store(true, Ordering::Release);
    SYNC_TRACE.with(|c| c.borrow_mut().replace(trace))
}

/// Remove and return this thread's sync trace, if any.
pub fn clear_sync_trace() -> Option<ThreadTrace> {
    if !SYNC_TRACING_EVER.load(Ordering::Acquire) {
        return None;
    }
    SYNC_TRACE.with(|c| c.borrow_mut().take())
}

/// A clone of this thread's installed sync trace, if any.
pub fn current_sync_trace() -> Option<ThreadTrace> {
    if !SYNC_TRACING_EVER.load(Ordering::Acquire) {
        return None;
    }
    SYNC_TRACE.with(|c| c.borrow().clone())
}

/// Record `kind(a, b)` against this thread's installed sync trace.
/// Returns whether an event was recorded.
pub fn record_sync(kind: EventKind, a: u64, b: u64) -> bool {
    if !SYNC_TRACING_EVER.load(Ordering::Acquire) {
        return false;
    }
    SYNC_TRACE.with(|c| match &*c.borrow() {
        Some(t) => {
            t.record(kind, a, b);
            true
        }
        None => false,
    })
}

/// Record an [`EventKind::Acquire`]/[`EventKind::Release`] against
/// `site`, allocating the site id only if a trace is installed.
pub fn record_sync_site(kind: EventKind, site: &SiteId, mode: u64) {
    if !SYNC_TRACING_EVER.load(Ordering::Acquire) {
        return;
    }
    SYNC_TRACE.with(|c| {
        if let Some(t) = &*c.borrow() {
            if let Some(id) = site.get() {
                t.record(kind, id, mode);
            }
        }
    });
}

/// `a` payload of a [`EventKind::Mark`] carrying a step-attribution
/// weight in `b`: the recording strand performed `b` abstract unit-cost
/// operations since its previous event. The span pass
/// (`pdc_analyze::span`) weighs these marks by `b` when measuring
/// empirical work and critical-path length; every other event weighs 1.
pub const MARK_STEPS: u64 = u64::MAX - 1;

/// Attribute `steps` unit-cost operations to this thread's installed
/// sync trace (see [`MARK_STEPS`]). A no-op when no trace is installed,
/// so algorithm kernels can call it unconditionally. Returns whether an
/// event was recorded.
pub fn record_steps(steps: u64) -> bool {
    record_sync(EventKind::Mark, MARK_STEPS, steps)
}

/// Record a shared-variable read of `var` (see [`EventKind::Read`]).
pub fn record_var_read(var: u64) {
    record_sync(EventKind::Read, var, 0);
}

/// Record a shared-variable write of `var` (see [`EventKind::Write`]).
pub fn record_var_write(var: u64) {
    record_sync(EventKind::Write, var, 0);
}

/// A shared registry + recorder pair: one trace for one experiment.
///
/// Cloning shares both halves, so a bench can hand the same session to
/// a `WorkStealingPool`, a `SimMachine`, and an MPI world and export
/// all their counters and events as one document.
#[derive(Debug, Clone, Default)]
pub struct TraceSession {
    registry: Arc<Registry>,
    recorder: TraceRecorder,
}

impl TraceSession {
    /// A session with the default per-thread event capacity.
    pub fn new() -> Self {
        TraceSession::default()
    }

    /// A session allowing `capacity_per_thread` events per thread.
    pub fn with_capacity(capacity_per_thread: usize) -> Self {
        TraceSession {
            registry: Arc::new(Registry::new()),
            recorder: TraceRecorder::new(capacity_per_thread),
        }
    }

    /// The shared counter registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Fetch or create a counter in the shared registry.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Register a producing thread/core/rank with the recorder.
    pub fn thread(&self, actor: u32) -> ThreadTrace {
        self.recorder.thread(actor)
    }

    /// Snapshot the shared registry.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// All events so far, sorted by logical timestamp.
    pub fn events(&self) -> Vec<Event> {
        self.recorder.events()
    }

    /// Events dropped due to full buffers.
    pub fn dropped(&self) -> u64 {
        self.recorder.dropped()
    }

    /// Current value of the session-wide logical clock: the timestamp
    /// the next recorded event will receive. Lets controllers attribute
    /// events to execution windows without re-reading the whole stream.
    pub fn now(&self) -> u64 {
        self.recorder.now()
    }

    /// Export the whole session as `pdc-trace/2` JSON.
    pub fn to_json(&self) -> String {
        self.to_json_with_meta(&[])
    }

    /// Export as `pdc-trace/2` JSON with caller-supplied metadata
    /// (e.g. `[("bench", "t1_machine")]`).
    pub fn to_json_with_meta(&self, meta: &[(&str, String)]) -> String {
        self.to_json_with_tables(meta, &[])
    }

    /// Export as `pdc-trace/2` JSON with metadata plus a `tables` array
    /// of pre-serialized JSON table objects (as produced by
    /// [`Table::to_json`](crate::report::Table::to_json)), so one
    /// document carries both the counters and the printed tables they
    /// back. The array is omitted when `tables` is empty, keeping
    /// schema-1 consumers working unchanged.
    pub fn to_json_with_tables(&self, meta: &[(&str, String)], tables: &[String]) -> String {
        let mut out = String::from("{\"schema\":\"pdc-trace/2\"");
        if !meta.is_empty() {
            out.push_str(",\"meta\":{");
            for (i, (k, v)) in meta.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push('}');
        }
        if !tables.is_empty() {
            out.push_str(",\"tables\":[");
            for (i, t) in tables.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(t);
            }
            out.push(']');
        }
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), value));
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str(&format!("],\"dropped\":{}}}", self.dropped()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn events_get_distinct_ordered_timestamps() {
        let rec = TraceRecorder::new(64);
        let t = rec.thread(0);
        t.record(EventKind::Phase, 0, 8);
        t.record(EventKind::Barrier, 0, 4);
        t.record(EventKind::Phase, 1, 8);
        let evs = rec.events();
        assert_eq!(evs.len(), 3);
        assert!(evs.windows(2).all(|w| w[0].ts < w[1].ts));
        assert_eq!(evs[1].kind, EventKind::Barrier);
    }

    #[test]
    fn capacity_bounds_buffer_and_counts_drops() {
        let rec = TraceRecorder::new(2);
        let t = rec.thread(3);
        for i in 0..5 {
            t.record(EventKind::Mark, i, 0);
        }
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn multi_thread_merge_is_globally_ordered() {
        let rec = TraceRecorder::new(1024);
        let mut handles = Vec::new();
        for actor in 0..4u32 {
            let t = rec.thread(actor);
            handles.push(thread::spawn(move || {
                for i in 0..100 {
                    t.record(EventKind::Mark, i, 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let evs = rec.events();
        assert_eq!(evs.len(), 400);
        assert!(evs.windows(2).all(|w| w[0].ts < w[1].ts));
        // Every actor contributed.
        for actor in 0..4 {
            assert!(evs.iter().any(|e| e.actor == actor));
        }
    }

    #[test]
    fn session_json_has_schema_counters_events() {
        let s = TraceSession::with_capacity(16);
        s.counter("pool.executed").add(42);
        s.thread(1).record(EventKind::Steal, 0, 3);
        let json = s.to_json_with_meta(&[("bench", "demo".to_string())]);
        assert!(json.starts_with("{\"schema\":\"pdc-trace/2\""));
        assert!(json.contains("\"meta\":{\"bench\":\"demo\"}"));
        assert!(json.contains("\"pool.executed\":42"));
        assert!(json.contains("\"kind\":\"steal\""));
        assert!(json.contains("\"victim\":0"));
        assert!(json.contains("\"tasks\":3"));
        assert!(json.ends_with("\"dropped\":0}"));
        // No tables were supplied: the array is omitted entirely.
        assert!(!json.contains("\"tables\""));
    }

    #[test]
    fn session_json_embeds_tables() {
        let s = TraceSession::with_capacity(16);
        s.counter("gpu.launches").inc();
        let tables = vec![
            "{\"title\":\"A\",\"headers\":[\"x\"],\"rows\":[[\"1\"]]}".to_string(),
            "{\"title\":\"B\",\"headers\":[\"y\"],\"rows\":[]}".to_string(),
        ];
        let json = s.to_json_with_tables(&[], &tables);
        assert!(json.contains("\"tables\":[{\"title\":\"A\""));
        assert!(json.contains("{\"title\":\"B\""));
        assert!(json.contains("\"gpu.launches\":1"));
    }

    #[test]
    fn schema2_event_kinds_are_stable() {
        assert_eq!(EventKind::Kernel.as_str(), "kernel");
        assert_eq!(EventKind::Kernel.field_names(), ("launch", "cycles"));
        assert_eq!(EventKind::CollBegin.as_str(), "coll_begin");
        assert_eq!(EventKind::CollEnd.as_str(), "coll_end");
        assert_eq!(EventKind::CollBegin.field_names(), ("coll", "seq"));
        assert_eq!(EventKind::CollEnd.field_names(), ("coll", "seq"));
        let e = Event {
            ts: 7,
            actor: 2,
            kind: EventKind::Kernel,
            a: 1,
            b: 900,
        };
        assert_eq!(
            e.to_json(),
            "{\"ts\":7,\"actor\":2,\"kind\":\"kernel\",\"launch\":1,\"cycles\":900}"
        );
    }

    #[test]
    fn cloned_session_shares_registry_and_clock() {
        let a = TraceSession::new();
        let b = a.clone();
        a.counter("n").inc();
        b.counter("n").inc();
        assert_eq!(a.snapshot().get("n"), 2);
        b.thread(0).record(EventKind::Mark, 0, 0);
        assert_eq!(a.events().len(), 1);
    }

    #[test]
    fn event_kind_names_are_stable() {
        assert_eq!(EventKind::Send.as_str(), "send");
        assert_eq!(EventKind::Send.field_names(), ("peer", "bytes"));
        assert_eq!(EventKind::Phase.field_names(), ("index", "tasks"));
    }

    #[test]
    fn analysis_event_kinds_are_stable() {
        assert_eq!(EventKind::Acquire.as_str(), "acquire");
        assert_eq!(EventKind::Release.as_str(), "release");
        assert_eq!(EventKind::Read.as_str(), "read");
        assert_eq!(EventKind::Write.as_str(), "write");
        assert_eq!(EventKind::Fork.as_str(), "fork");
        assert_eq!(EventKind::Join.as_str(), "join");
        assert_eq!(EventKind::Acquire.field_names(), ("site", "mode"));
        assert_eq!(EventKind::Release.field_names(), ("site", "mode"));
        assert_eq!(EventKind::Read.field_names(), ("var", "aux"));
        assert_eq!(EventKind::Write.field_names(), ("var", "aux"));
        assert_eq!(EventKind::Fork.field_names(), ("handle", "task"));
        assert_eq!(EventKind::Join.field_names(), ("handle", "task"));
        let e = Event {
            ts: 3,
            actor: 1,
            kind: EventKind::Acquire,
            a: 9,
            b: SYNC_EXCLUSIVE,
        };
        assert_eq!(
            e.to_json(),
            "{\"ts\":3,\"actor\":1,\"kind\":\"acquire\",\"site\":9,\"mode\":1}"
        );
    }

    #[test]
    fn local_ids_are_exactly_the_site_var_handle_and_chan_payloads() {
        let names = "spawn steal barrier lock send recv phase mark kernel coll_begin coll_end \
                     acquire release read write fork join wait signal chan_send chan_recv";
        let (mut kinds, mut local) = (0, 0);
        for name in names.split_whitespace() {
            let kind = EventKind::parse_name(name).unwrap();
            assert_eq!(kind.as_str(), name);
            let by_field = matches!(kind.field_names().0, "site" | "var" | "handle" | "chan");
            assert_eq!(kind.a_is_local_id(), by_field, "{name}");
            kinds += 1;
            local += usize::from(by_field);
        }
        assert_eq!((kinds, local), (21, 10));
    }

    #[test]
    fn condition_event_kinds_are_stable() {
        assert_eq!(EventKind::Wait.as_str(), "wait");
        assert_eq!(EventKind::Signal.as_str(), "signal");
        assert_eq!(EventKind::Wait.field_names(), ("site", "seq"));
        assert_eq!(EventKind::Signal.field_names(), ("site", "seq"));
        assert_eq!(EventKind::parse_name("wait"), Some(EventKind::Wait));
        assert_eq!(EventKind::parse_name("signal"), Some(EventKind::Signal));
        let e = Event {
            ts: 4,
            actor: 2,
            kind: EventKind::Signal,
            a: 9,
            b: 1,
        };
        assert_eq!(
            e.to_json(),
            "{\"ts\":4,\"actor\":2,\"kind\":\"signal\",\"site\":9,\"seq\":1}"
        );
    }

    #[test]
    fn site_ids_are_lazy_unique_and_stable() {
        let a = SiteId::new();
        let b = SiteId::new();
        let ia = a.get().unwrap();
        assert_eq!(a.get(), Some(ia), "site id is stable across calls");
        let ib = b.get().unwrap();
        assert_ne!(ia, ib, "distinct sites get distinct ids");
        assert_ne!(ia, 0);
        assert_ne!(ia, SITE_UNTRACED);
        assert_eq!(SiteId::disabled().get(), None);
    }

    #[test]
    fn sync_trace_install_record_clear() {
        let rec = TraceRecorder::new(64);
        assert!(!record_sync(EventKind::Mark, 0, 0), "no trace installed");
        let prev = install_sync_trace(rec.thread(7));
        assert!(prev.is_none());
        assert!(record_sync(EventKind::Fork, 11, 0));
        let site = SiteId::new();
        record_sync_site(EventKind::Acquire, &site, SYNC_EXCLUSIVE);
        record_sync_site(EventKind::Release, &site, SYNC_EXCLUSIVE);
        record_var_write(42);
        let cleared = clear_sync_trace();
        assert!(cleared.is_some());
        assert!(!record_sync(EventKind::Mark, 0, 0), "cleared");
        let evs = rec.events();
        assert_eq!(evs.len(), 4);
        assert!(evs.iter().all(|e| e.actor == 7));
        assert_eq!(evs[1].kind, EventKind::Acquire);
        assert_eq!(evs[1].a, site.get().unwrap());
        assert_eq!(evs[3].kind, EventKind::Write);
        assert_eq!(evs[3].a, 42);
        // Disabled sites never record.
        install_sync_trace(rec.thread(7));
        record_sync_site(EventKind::Acquire, &SiteId::disabled(), SYNC_EXCLUSIVE);
        clear_sync_trace();
        assert_eq!(rec.events().len(), 4);
    }

    #[test]
    fn sibling_auto_allocates_fresh_actor_ids() {
        let rec = TraceRecorder::new(16);
        let t = rec.thread(0);
        let c1 = t.sibling_auto();
        let c2 = c1.sibling_auto();
        assert_eq!(c1.actor(), AUTO_ACTOR_BASE);
        assert_eq!(c2.actor(), AUTO_ACTOR_BASE + 1);
        c1.record(EventKind::Join, 1, 0);
        assert_eq!(rec.events()[0].actor, AUTO_ACTOR_BASE);
    }
}
