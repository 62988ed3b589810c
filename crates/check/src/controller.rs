//! The controlled scheduler: serializes every checked task onto one
//! baton, granted at the yield points `pdc_sync::hooks` exposes.
//!
//! Invariant: at most one checked task is ever runnable. Each hook call
//! is a *decision point* — the controller computes the set of enabled
//! tasks, asks its [`Decide`] strategy to pick one, grants that task the
//! baton, and blocks the caller until it is picked again. Because every
//! blocking moment in `pdc-sync` funnels through the hooks, the whole
//! interleaving of the test body becomes a deterministic function of the
//! strategy's choices — which is what makes exhaustive enumeration,
//! randomized PCT search, and exact record/replay possible at all.
//!
//! Enabledness mirrors the primitives' own blocking conditions:
//!
//! * spin waiters are re-enabled by [`Checker::site_changed`] on their
//!   site, tracked with per-site change epochs — sound because the
//!   waiter captures its epoch while holding the baton, so no change
//!   can slip between the failed condition check and the capture;
//! * parked tasks carry a `thread::park` token set by `unpark`;
//! * joiners wait on the child reaching `Finished`.
//!
//! When the enabled set is empty while unfinished tasks remain, the
//! schedule has *deterministically deadlocked* — not a timeout heuristic
//! but a precise statement that no task can make progress.
//!
//! Hand-off polls before it sleeps. The baton holder is mirrored in
//! one atomic, stored only under the controller's mutex; a waiting
//! task polls it with `yield_now` for a fixed number of rounds, then
//! parks. A grant stores the new holder there and unparks only the
//! thread it names, which costs a system call only if that thread has
//! parked. The granted task then takes the mutex and re-checks the
//! baton, so the mirror is a hint and the mutex-guarded state stays
//! the only truth. The same wait serves idle pool workers and the
//! teardown barrier.
//!
//! Teardown is panic-driven: once `aborting` is set (deadlock, step
//! budget, or a real panic in the body), the mirror reads "aborting",
//! every waiting task is unparked, and every hook entry from forward
//! execution panics with [`AbortSchedule`], unwinding all tasks
//! through their guards; hook calls made *while already unwinding*
//! (guard drops) degrade to no-ops so teardown itself never blocks.

use crate::strategy::{ChoiceRecord, Decide};
use crate::wait;
use pdc_analyze::deps::Access;
use pdc_core::trace::TraceSession;
pub use pdc_sync::hooks::AbortSchedule;
use pdc_sync::hooks::{Checker, ChoiceKind, TaskId};
use std::collections::HashMap;
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{Thread, ThreadId};
use std::time::{Duration, Instant};

/// Per-decision metadata the partial-order reducer consumes: what kind
/// of choice it was, who ran, where the session clock stood at the
/// grant, and which scheduler-level resources the step touched.
///
/// The step's *full* footprint is this hook-level list plus every trace
/// event whose timestamp falls in `[ts, next step's ts)` — the events
/// the granted task recorded while it held the baton. The hook-level
/// accesses cover what the event stream cannot see: failed probes
/// (a spin re-check that found the site still held records no event),
/// park/unpark token traffic, and the exit a joiner resumed on. Without
/// them, blocked steps would have empty footprints and the dependence
/// relation would be unsound.
#[derive(Debug, Clone)]
pub struct StepInfo {
    /// What the decision chose between.
    pub kind: ChoiceKind,
    /// The task that was granted (or, for data choices, kept) the baton.
    pub task: TaskId,
    /// Session logical clock at the grant; events with `ts >= this` and
    /// `< next.ts` were recorded during this step.
    pub ts: u64,
    /// Hook-level accesses accumulated while the step ran.
    pub accesses: Vec<Access>,
}

/// Why a schedule stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Body ran to completion with every task finished.
    Ok,
    /// A real panic in the body (assertion failure, etc.).
    Panic(String),
    /// No task was enabled while these tasks were still unfinished.
    Deadlock(Vec<TaskId>),
    /// The step budget ran out (livelock guard / depth bound).
    Truncated,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Blocked in a spin loop on `site` (`None` = untraced site, any
    /// change re-enables); enabled once the epoch counter advances.
    SpinWaiting {
        site: Option<u64>,
        epoch: u64,
    },
    /// Blocked in `park`; enabled while the unpark token is set.
    Parked,
    /// Blocked joining another task; enabled once it finishes.
    JoinWaiting(TaskId),
    Finished,
}

#[derive(Debug)]
struct TaskState {
    status: Status,
    park_token: bool,
    /// The thread running the task, recorded when it starts: `unpark`
    /// finds the task by it, and a grant or an abort unparks it.
    thread: Option<Thread>,
}

impl TaskState {
    fn new() -> Self {
        TaskState {
            status: Status::Runnable,
            park_token: false,
            thread: None,
        }
    }
}

/// [`Controller::granted`] when no task holds the baton.
const NOBODY: u32 = u32::MAX;
/// [`Controller::granted`] once the schedule is aborting.
const ABORTING: u32 = u32::MAX - 1;

/// What a finished schedule leaves in its controller, moved out by
/// [`Controller::take_summary`].
#[derive(Debug)]
pub struct Summary {
    /// Why the schedule stopped.
    pub outcome: Outcome,
    /// The decision log (enabled sets + picks).
    pub choices: Vec<ChoiceRecord>,
    /// One entry per choice record (same indexing).
    pub step_infos: Vec<StepInfo>,
    /// Decision points consumed.
    pub steps: usize,
    /// Tasks registered during the schedule, root included.
    pub task_count: usize,
}

struct State {
    tasks: Vec<TaskState>,
    /// Holder of the baton; `None` once everything finished or aborted.
    current: Option<TaskId>,
    /// Change epochs for spin-wait enablement.
    site_epoch: HashMap<u64, u64>,
    any_epoch: u64,
    strategy: Box<dyn Decide>,
    choices: Vec<ChoiceRecord>,
    /// One entry per choice record (same indexing).
    step_infos: Vec<StepInfo>,
    steps: usize,
    aborting: bool,
    truncated: bool,
    deadlock: Option<Vec<TaskId>>,
    panic_msg: Option<String>,
    /// The exploring thread, once it waits at the teardown barrier.
    explorer: Option<Thread>,
}

/// One controlled schedule's scheduler; implements
/// [`pdc_sync::hooks::Checker`] and is installed process-wide for the
/// duration of the schedule (explorations are serialized by
/// [`crate::explore`]'s global lock).
pub struct Controller {
    inner: Mutex<State>,
    /// Lock-free mirror of `State::current` for waiting tasks to poll:
    /// the holder's id, [`NOBODY`] or [`ABORTING`]. Release-stored only
    /// while `inner` is held, by [`Controller::publish`]; a waiter
    /// Acquire-loads it, then re-reads `current` under `inner`.
    granted: AtomicU32,
    /// Release-set by the last task's exit; the teardown barrier
    /// Acquire-polls it.
    all_finished: AtomicBool,
    max_steps: usize,
    /// Session clock for attributing trace events to steps; `None`
    /// keeps all step timestamps at 0 (footprints then carry only
    /// hook-level accesses).
    clock: Option<TraceSession>,
}

impl Controller {
    /// A controller with the root body registered as task 0, already
    /// holding the baton.
    pub fn new(strategy: Box<dyn Decide>, max_steps: usize) -> Self {
        Controller::with_clock(strategy, max_steps, None)
    }

    /// As [`Controller::new`], additionally reading `clock`'s logical
    /// clock at every grant so each recorded decision knows which trace
    /// events its step produced.
    pub fn with_clock(
        strategy: Box<dyn Decide>,
        max_steps: usize,
        clock: Option<TraceSession>,
    ) -> Self {
        Controller {
            inner: Mutex::new(State {
                tasks: vec![TaskState::new()],
                current: Some(0),
                site_epoch: HashMap::new(),
                any_epoch: 0,
                strategy,
                choices: Vec::new(),
                step_infos: Vec::new(),
                steps: 0,
                aborting: false,
                truncated: false,
                deadlock: None,
                panic_msg: None,
                explorer: None,
            }),
            granted: AtomicU32::new(0),
            all_finished: AtomicBool::new(false),
            max_steps,
            clock,
        }
    }

    /// Append a hook-level access to the step currently holding the
    /// baton (the most recent decision). Accesses before the first
    /// decision belong to the root preamble every schedule shares and
    /// are deliberately dropped.
    fn note_access(st: &mut MutexGuard<'_, State>, access: Access) {
        if let Some(info) = st.step_infos.last_mut() {
            info.accesses.push(access);
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record the root body's thread handle (for `unpark` lookups).
    pub fn register_root_thread(&self) {
        let mut st = self.lock();
        st.tasks[0].thread = Some(std::thread::current());
    }

    /// Called by hooks entered from *forward* execution: panic out of
    /// the body when the schedule is aborting. Hooks reached while the
    /// thread is already unwinding (guard drops) must instead degrade to
    /// no-ops — teardown may never block or double-panic.
    fn abort_check(&self, st: &MutexGuard<'_, State>) -> bool {
        if !st.aborting {
            return false;
        }
        if std::thread::panicking() {
            return true; // caller becomes a no-op
        }
        panic_any(AbortSchedule);
    }

    fn is_enabled(st: &State, id: TaskId) -> bool {
        let t = &st.tasks[id as usize];
        match &t.status {
            Status::Runnable => true,
            Status::SpinWaiting { site, epoch } => match site {
                Some(s) => st.site_epoch.get(s).copied().unwrap_or(0) > *epoch,
                None => st.any_epoch > *epoch,
            },
            Status::Parked => t.park_token,
            Status::JoinWaiting(child) => st.tasks[*child as usize].status == Status::Finished,
            Status::Finished => false,
        }
    }

    fn enabled_tasks(st: &State) -> Vec<TaskId> {
        (0..st.tasks.len() as TaskId)
            .filter(|&id| Self::is_enabled(st, id))
            .collect()
    }

    /// Mirror `current` and `aborting` into [`Controller::granted`].
    /// Caller holds the lock, so the mirror never runs ahead of them.
    fn publish(&self, st: &State) {
        let granted = if st.aborting {
            ABORTING
        } else {
            st.current.unwrap_or(NOBODY)
        };
        self.granted.store(granted, Ordering::Release);
    }

    /// Tear the schedule down: no task holds the baton any more, and
    /// every waiting task (plus the teardown barrier) is unparked to
    /// see it.
    fn abort(&self, st: &mut MutexGuard<'_, State>) {
        st.aborting = true;
        st.current = None;
        self.publish(st);
        for thread in st.tasks.iter().filter_map(|t| t.thread.as_ref()) {
            thread.unpark();
        }
        if let Some(explorer) = &st.explorer {
            explorer.unpark();
        }
    }

    /// Pick the next baton holder. Caller must currently hold the baton
    /// (or be the exiting task that just released it).
    fn decide(&self, st: &mut MutexGuard<'_, State>) {
        let enabled = Self::enabled_tasks(st);
        if enabled.is_empty() {
            let live: Vec<TaskId> = (0..st.tasks.len() as TaskId)
                .filter(|&id| st.tasks[id as usize].status != Status::Finished)
                .collect();
            st.current = None;
            self.publish(st);
            if !live.is_empty() {
                st.deadlock = Some(live);
                self.abort(st);
            }
            return;
        }
        st.steps += 1;
        if st.steps > self.max_steps {
            st.truncated = true;
            self.abort(st);
            return;
        }
        let decision_index = st.choices.len();
        let idx = st
            .strategy
            .pick(decision_index, &enabled)
            .min(enabled.len() - 1);
        let id = enabled[idx];
        st.choices.push(ChoiceRecord {
            enabled,
            picked_index: idx,
        });
        // Waking from a blocked state *consumes* whatever enabled the
        // task: seed the new step's footprint with it, so the enabling
        // step (release / unpark / exit) and this wake are dependent —
        // the DPOR dependence graph needs that edge to know the pair
        // cannot be freely commuted.
        let wake_access = match &st.tasks[id as usize].status {
            Status::SpinWaiting { site: Some(s), .. } => Some(Access::Site(*s)),
            Status::SpinWaiting { site: None, .. } => Some(Access::AnySite),
            Status::Parked => Some(Access::ParkToken(id)),
            Status::JoinWaiting(child) => Some(Access::TaskExit(*child)),
            Status::Runnable | Status::Finished => None,
        };
        let ts = self.clock.as_ref().map(|c| c.now()).unwrap_or(0);
        st.step_infos.push(StepInfo {
            kind: ChoiceKind::Task,
            task: id,
            ts,
            accesses: wake_access.into_iter().collect(),
        });
        let t = &mut st.tasks[id as usize];
        if t.status == Status::Parked {
            t.park_token = false; // park consumes the token on wake
        }
        t.status = Status::Runnable;
        st.current = Some(id);
        self.publish(st);
        // After the publish, so the woken task finds its grant. A task
        // that has not started yet has no thread; it finds the grant
        // under the lock in `start_task`.
        if let Some(thread) = &st.tasks[id as usize].thread {
            thread.unpark();
        }
    }

    /// Block until `task` holds the baton (or the schedule aborts).
    ///
    /// The wait polls the [`Controller::granted`] mirror, then parks
    /// until [`Controller::decide`] or [`Controller::abort`] unparks
    /// this thread. Either way the verdict is re-read under the lock.
    fn wait_for_grant<'a>(&'a self, mut st: MutexGuard<'a, State>, task: TaskId) {
        while st.current != Some(task) {
            if st.aborting {
                drop(st);
                if std::thread::panicking() {
                    return;
                }
                panic_any(AbortSchedule);
            }
            drop(st);
            let granted = || {
                let holder = self.granted.load(Ordering::Acquire);
                holder == task || holder == ABORTING
            };
            wait::wait_until(granted, None);
            st = self.lock();
        }
    }

    /// Common hook body: hand the baton to the strategy's next pick and
    /// wait to be picked again.
    fn block_as(&self, task: TaskId, status: Status) {
        let mut st = self.lock();
        if self.abort_check(&st) {
            return;
        }
        st.tasks[task as usize].status = status;
        self.decide(&mut st);
        self.wait_for_grant(st, task);
    }

    /// Abort the schedule because `msg` escaped a task body. Never
    /// panics or blocks — callers are mid-unwind.
    pub fn abort_for_panic(&self, msg: &str) {
        let mut st = self.lock();
        if st.panic_msg.is_none() {
            st.panic_msg = Some(msg.to_string());
        }
        self.abort(&mut st);
    }

    /// Wait for every registered task to reach `Finished` (teardown
    /// barrier before uninstalling the checker), bounded by `timeout`.
    /// Returns `false` on timeout — a bug in the controller, surfaced
    /// loudly by [`crate::explore`].
    ///
    /// The calling thread is recorded, then polls a flag that the last
    /// task's exit sets; after the polling rounds it parks until that
    /// exit, or an abort, unparks it.
    pub fn wait_all_finished(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.lock().explorer = Some(std::thread::current());
        wait::wait_until(|| self.all_finished.load(Ordering::Acquire), Some(deadline))
    }

    /// Move the schedule's outcome, decision log, per-step metadata and
    /// counts out of the controller, read once after teardown.
    pub fn take_summary(&self) -> Summary {
        let mut st = self.lock();
        let outcome = if let Some(msg) = st.panic_msg.take() {
            Outcome::Panic(msg)
        } else if let Some(live) = st.deadlock.take() {
            Outcome::Deadlock(live)
        } else if st.truncated {
            Outcome::Truncated
        } else {
            Outcome::Ok
        };
        Summary {
            outcome,
            choices: std::mem::take(&mut st.choices),
            step_infos: std::mem::take(&mut st.step_infos),
            steps: st.steps,
            task_count: st.tasks.len(),
        }
    }
}

impl Checker for Controller {
    fn yield_point(&self, task: TaskId) {
        self.block_as(task, Status::Runnable);
    }

    fn spin_wait(&self, task: TaskId, site: Option<u64>) {
        // Capture the epoch NOW: the caller just observed the resource
        // unavailable, and it holds the baton, so nothing can have
        // changed the site since that observation.
        let mut st = self.lock();
        if self.abort_check(&st) {
            return;
        }
        // The failed probe read the site's state: record it, so the
        // probe conflicts with the release that will change it.
        Self::note_access(
            &mut st,
            match site {
                Some(s) => Access::Site(s),
                None => Access::AnySite,
            },
        );
        let epoch = match site {
            Some(s) => st.site_epoch.get(&s).copied().unwrap_or(0),
            None => st.any_epoch,
        };
        st.tasks[task as usize].status = Status::SpinWaiting { site, epoch };
        self.decide(&mut st);
        self.wait_for_grant(st, task);
    }

    fn site_changed(&self, site: u64) {
        let mut st = self.lock();
        if st.aborting {
            return; // teardown: nothing is spin-waiting anymore
        }
        Self::note_access(&mut st, Access::Site(site));
        *st.site_epoch.entry(site).or_insert(0) += 1;
        st.any_epoch += 1;
        // Not a decision point: the caller continues to its own next
        // yield, where newly-enabled waiters join the enabled set.
    }

    fn park(&self, task: TaskId) {
        let mut st = self.lock();
        if self.abort_check(&st) {
            return;
        }
        Self::note_access(&mut st, Access::ParkToken(task));
        if st.tasks[task as usize].park_token {
            // Token already available: park returns immediately, but it
            // is still a preemption point.
            st.tasks[task as usize].park_token = false;
            st.tasks[task as usize].status = Status::Runnable;
        } else {
            st.tasks[task as usize].status = Status::Parked;
        }
        self.decide(&mut st);
        self.wait_for_grant(st, task);
    }

    fn unpark(&self, thread: &Thread) -> bool {
        let mut st = self.lock();
        if st.aborting {
            // All managed tasks are being woken by the abort broadcast;
            // claiming the unpark is safe and avoids stray real tokens.
            return true;
        }
        // Pooled workers run one task after another, so a thread may
        // appear more than once: its latest task is the one it runs now.
        let tid: ThreadId = thread.id();
        let Some(idx) = st
            .tasks
            .iter()
            .rposition(|t| t.thread.as_ref().map(|h| h.id()) == Some(tid))
        else {
            return false; // unmanaged thread: caller does a real unpark
        };
        Self::note_access(&mut st, Access::ParkToken(idx as TaskId));
        st.tasks[idx].park_token = true;
        // Not a decision point (unpark never blocks the caller); the
        // parked task becomes enabled at the caller's next yield.
        true
    }

    fn spawn_task(&self, _parent: TaskId) -> TaskId {
        let mut st = self.lock();
        let id = st.tasks.len() as TaskId;
        st.tasks.push(TaskState::new());
        // The child is Runnable (hence enabled) immediately, but the
        // parent keeps the baton: granting an unstarted task is safe —
        // it blocks nobody — and the parent's post-spawn yield_point is
        // the first real decision.
        id
    }

    fn start_task(&self, task: TaskId) {
        let mut st = self.lock();
        st.tasks[task as usize].thread = Some(std::thread::current());
        self.wait_for_grant(st, task);
    }

    fn exit_task(&self, task: TaskId) {
        // Never panics, never blocks: every task must reach Finished so
        // teardown can complete.
        let mut st = self.lock();
        // The exit is what a joiner's wake consumes: putting it in the
        // final step's footprint chains the child's last step before
        // the joiner's resume in the dependence graph.
        Self::note_access(&mut st, Access::TaskExit(task));
        st.tasks[task as usize].status = Status::Finished;
        if !st.aborting && st.current == Some(task) {
            self.decide(&mut st);
        }
        if st.tasks.iter().all(|t| t.status == Status::Finished) {
            self.all_finished.store(true, Ordering::Release);
            if let Some(explorer) = &st.explorer {
                explorer.unpark();
            }
        }
    }

    fn join_wait(&self, waiter: TaskId, child: TaskId) {
        // Deliberately NOT a footprint access: the probe ("is the child
        // still running?") has no observable effect, and noting it would
        // make it conflict with the child's exit. That conflict is
        // excluded from races as irreversible, but it would still count
        // as a happens-before edge — and an edge that can never be
        // reversed must not *cover* (and thereby suppress) the seeding
        // of genuine reversible races across it. Only the exit itself
        // and the wake it grants carry `Access::TaskExit`.
        self.block_as(waiter, Status::JoinWaiting(child));
    }

    fn task_panicked(&self, _task: TaskId, message: &str) {
        self.abort_for_panic(message);
    }

    fn choice_point(&self, task: TaskId, kind: ChoiceKind, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let mut st = self.lock();
        if self.abort_check(&st) {
            return 0;
        }
        st.steps += 1;
        if st.steps > self.max_steps {
            st.truncated = true;
            self.abort(&mut st);
            drop(st);
            if std::thread::panicking() {
                return 0;
            }
            panic_any(AbortSchedule);
        }
        // A data decision: recorded like a scheduling decision (so
        // replay, DFS backtracking and shrinking handle it unchanged)
        // with pseudo-ids 0..n standing in for the alternatives. The
        // baton stays with the calling task.
        let enabled: Vec<TaskId> = (0..n as TaskId).collect();
        let decision_index = st.choices.len();
        let idx = st.strategy.pick(decision_index, &enabled).min(n - 1);
        st.choices.push(ChoiceRecord {
            enabled,
            picked_index: idx,
        });
        let ts = self.clock.as_ref().map(|c| c.now()).unwrap_or(0);
        st.step_infos.push(StepInfo {
            kind,
            task,
            ts,
            accesses: Vec::new(),
        });
        idx
    }
}
