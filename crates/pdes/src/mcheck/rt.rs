//! The model-checking runtime: cooperative virtual threads, a DFS schedule
//! explorer with deterministic replay, an operational weak-memory model,
//! and a vector-clock race detector.
//!
//! ## Architecture
//!
//! [`explore`] runs one *scenario* (built fresh for every schedule by the
//! caller's closure) under every interleaving the bounds admit. Scenario
//! threads are real OS threads, but they run **cooperatively**: every
//! facade operation parks the thread in [`announce`] until the single
//! driver thread grants it. The driver executes the operation's semantics
//! centrally (against the modelled memory), so exactly one thread is
//! between decision points at any time and replay is deterministic.
//!
//! Two kinds of decisions are recorded on a DFS stack:
//!
//! * **Sched** — which enabled virtual thread performs its pending
//!   operation next (filtered by sleep sets and the preemption bound);
//! * **Read** — which store in a location's history an atomic load
//!   observes (bounded by coherence and `max_read_depth`).
//!
//! Backtracking advances the deepest frame with an unexplored alternative
//! and replays the prefix. When the stack empties, the state space (under
//! the configured bounds) is exhausted and the report says `complete`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::obs::json::quote;

/// Index of a registered modelled object (atomic, cell, mutex, condvar).
pub type ObjId = u32;
type Tid = usize;

/// Read-modify-write flavours the facade needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RmwOp {
    /// `fetch_add`
    Add(u64),
    /// `fetch_sub`
    Sub(u64),
}

/// A virtual thread's pending operation, announced to the driver.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    /// First announcement of every scenario thread: lets the driver choose
    /// the start order.
    Start,
    Load {
        obj: ObjId,
        ord: Ordering,
    },
    Store {
        obj: ObjId,
        ord: Ordering,
        val: u64,
    },
    Rmw {
        obj: ObjId,
        ord: Ordering,
        rmw: RmwOp,
    },
    CellRead {
        obj: ObjId,
    },
    CellWrite {
        obj: ObjId,
    },
    Lock {
        obj: ObjId,
    },
    Unlock {
        obj: ObjId,
    },
    /// Atomically release `mutex` and park on `cv`.
    CondWait {
        cv: ObjId,
        mutex: ObjId,
    },
    /// Internal: parked on `cv`; never enabled. `notify_all` flips it to
    /// [`Op::Reacquire`].
    AwaitNotify {
        cv: ObjId,
        mutex: ObjId,
    },
    /// Internal: woken from a condvar, waiting to re-take the mutex.
    Reacquire {
        mutex: ObjId,
    },
    NotifyAll {
        cv: ObjId,
    },
    /// Voluntary preemption point (switching away is free).
    Yield,
    /// The finale thread: enabled only once every other thread finished;
    /// executing it joins all their views/clocks (join = happens-before).
    FinaleWait,
}

fn is_acq(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_rel(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// `(obj, writes)` pairs an op touches, for the independence relation.
fn accesses(op: Op) -> [Option<(ObjId, bool)>; 2] {
    match op {
        Op::Load { obj, .. } | Op::CellRead { obj } => [Some((obj, false)), None],
        Op::Store { obj, .. }
        | Op::Rmw { obj, .. }
        | Op::CellWrite { obj }
        | Op::Lock { obj }
        | Op::Unlock { obj } => [Some((obj, true)), None],
        Op::Reacquire { mutex } => [Some((mutex, true)), None],
        Op::CondWait { cv, mutex } => [Some((cv, true)), Some((mutex, true))],
        Op::AwaitNotify { cv, .. } | Op::NotifyAll { cv } => [Some((cv, true)), None],
        Op::Start | Op::Yield | Op::FinaleWait => [None, None],
    }
}

/// Two ops are dependent if they touch a common object and at least one
/// writes it. Conservative (more dependence = less pruning, still sound).
fn dependent(a: Op, b: Op) -> bool {
    for fa in accesses(a).into_iter().flatten() {
        for fb in accesses(b).into_iter().flatten() {
            if fa.0 == fb.0 && (fa.1 || fb.1) {
                return true;
            }
        }
    }
    false
}

/// One store in a location's history.
struct StoreMsg {
    val: u64,
    /// Release view: the writer's `(per-location view, vector clock)` at
    /// store time. Present when the store is `Release`-or-stronger or
    /// continues a release sequence (RMW). An acquire load that reads the
    /// message joins both — that is the happens-before edge.
    rel: Option<(Vec<usize>, Vec<u32>)>,
}

struct AtomicState {
    stores: Vec<StoreMsg>,
    /// Index of the latest `SeqCst` store; `SeqCst` loads may not read
    /// anything older (per-location approximation of the global S order).
    sc_floor: usize,
}

struct CellState {
    /// Epoch of the last write: `(writer tid, writer's clock)`.
    last_write: Option<(Tid, u32)>,
    /// Per-thread clock of each thread's latest read since the last write.
    reads: Vec<u32>,
}

struct MutexState {
    owner: Option<Tid>,
    /// View + clock released by the last unlock; joined on the next lock.
    view: Vec<usize>,
    vc: Vec<u32>,
}

struct CondvarState {
    waiters: Vec<Tid>,
}

enum ObjState {
    Atomic(AtomicState),
    Cell(CellState),
    Mutex(MutexState),
    Condvar(CondvarState),
}

struct Obj {
    label: String,
    st: ObjState,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThrState {
    /// Between spawn and first announce, or granted and executing user
    /// code. The driver waits until no thread is `Running`.
    Running,
    /// Parked in [`announce`] with a pending op (or blocked on one).
    Parked,
    Finished,
}

struct Thr {
    name: String,
    state: ThrState,
    pending: Option<Op>,
    granted: bool,
    ret: u64,
    vc: Vec<u32>,
    /// Per-location minimum readable store index (coherence view).
    view: Vec<usize>,
    /// Did this thread's last executed op invite a switch (`Yield`)?
    yielded: bool,
    is_finale: bool,
}

impl Thr {
    fn new(name: String, n_threads: usize, is_finale: bool) -> Self {
        Thr {
            name,
            state: ThrState::Running,
            pending: None,
            granted: false,
            ret: 0,
            vc: vec![0; n_threads],
            view: Vec::new(),
            yielded: false,
            is_finale,
        }
    }
}

fn view_get(view: &[usize], obj: ObjId) -> usize {
    view.get(obj as usize).copied().unwrap_or(0)
}

fn view_set(view: &mut Vec<usize>, obj: ObjId, idx: usize) {
    let o = obj as usize;
    if view.len() <= o {
        view.resize(o + 1, 0);
    }
    view[o] = view[o].max(idx);
}

fn view_join(into: &mut Vec<usize>, from: &[usize]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(from.iter()) {
        *a = (*a).max(*b);
    }
}

fn vc_join(into: &mut [u32], from: &[u32]) {
    for (a, b) in into.iter_mut().zip(from.iter()) {
        *a = (*a).max(*b);
    }
}

/// A confirmed property violation, with the full failing interleaving.
#[derive(Clone, Debug)]
pub struct Violation {
    /// `"race"`, `"deadlock"`, `"assert"`, or `"steps"`.
    pub kind: String,
    pub message: String,
    /// The executed interleaving, one formatted step per line.
    pub trace: Vec<String>,
    /// 1-based index of the failing schedule in DFS order.
    pub schedule: u64,
}

/// Shared state between the driver and the virtual threads.
struct Inner {
    threads: Vec<Thr>,
    objs: Vec<Obj>,
    counts: [u32; 4],
    trace: Vec<(Tid, Op, u64)>,
    aborting: bool,
    violation: Option<Violation>,
}

impl Inner {
    fn new() -> Self {
        Inner {
            threads: Vec::new(),
            objs: Vec::new(),
            counts: [0; 4],
            trace: Vec::new(),
            aborting: false,
            violation: None,
        }
    }

    fn fmt_op(&self, op: Op, ret: u64) -> String {
        let lbl = |o: ObjId| self.objs[o as usize].label.clone();
        match op {
            Op::Start => "start".into(),
            Op::Load { obj, ord } => format!("{}.load({ord:?}) -> {ret}", lbl(obj)),
            Op::Store { obj, ord, val } => format!("{}.store({val}, {ord:?})", lbl(obj)),
            Op::Rmw { obj, ord, rmw } => {
                let (name, n) = match rmw {
                    RmwOp::Add(n) => ("fetch_add", n),
                    RmwOp::Sub(n) => ("fetch_sub", n),
                };
                format!("{}.{name}({n}, {ord:?}) -> {ret}", lbl(obj))
            }
            Op::CellRead { obj } => format!("{}.read", lbl(obj)),
            Op::CellWrite { obj } => format!("{}.write", lbl(obj)),
            Op::Lock { obj } => format!("{}.lock", lbl(obj)),
            Op::Unlock { obj } => format!("{}.unlock", lbl(obj)),
            Op::CondWait { cv, mutex } => format!("{}.wait({}) [park]", lbl(cv), lbl(mutex)),
            Op::AwaitNotify { cv, .. } => format!("parked on {}", lbl(cv)),
            Op::Reacquire { mutex } => format!("{}.lock [post-wait]", lbl(mutex)),
            Op::NotifyAll { cv } => format!("{}.notify_all", lbl(cv)),
            Op::Yield => "yield".into(),
            Op::FinaleWait => "finale [joins all threads]".into(),
        }
    }

    fn fmt_trace(&self) -> Vec<String> {
        self.trace
            .iter()
            .enumerate()
            .map(|(i, &(tid, op, ret))| {
                format!(
                    "#{i:<3} {:<10} {}",
                    self.threads[tid].name,
                    self.fmt_op(op, ret)
                )
            })
            .collect()
    }

    fn set_violation(&mut self, schedule: u64, kind: &str, message: String) {
        if self.violation.is_none() {
            let trace = self.fmt_trace();
            self.violation = Some(Violation {
                kind: kind.to_string(),
                message,
                trace,
                schedule,
            });
        }
    }

    /// Wake every parked thread into the abort path.
    fn abort_all(&mut self) {
        self.aborting = true;
        for t in &mut self.threads {
            if t.state == ThrState::Parked {
                t.granted = true;
            }
        }
    }
}

struct Ctl {
    mx: Mutex<Inner>,
    cv: Condvar,
}

fn lock(mx: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    mx.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Panic payload used to unwind a virtual thread out of an aborted
/// schedule. The harness swallows it silently.
pub(crate) struct McheckAbort;

// ---------------------------------------------------------------------------
// Thread-local model context
// ---------------------------------------------------------------------------

struct VCtx {
    ctl: Arc<Ctl>,
    /// `None` on the driver thread during scenario build (registration
    /// works; operations are an authoring error).
    tid: Option<Tid>,
}

thread_local! {
    static VCTX: std::cell::RefCell<Option<VCtx>> = const { std::cell::RefCell::new(None) };
}

fn ctx() -> Option<(Arc<Ctl>, Option<Tid>)> {
    VCTX.with(|c| c.borrow().as_ref().map(|v| (v.ctl.clone(), v.tid)))
}

fn set_ctx(v: Option<VCtx>) {
    VCTX.with(|c| *c.borrow_mut() = v);
}

// ---------------------------------------------------------------------------
// Facade entry points (called by `crate::sync` under cfg(mcheck))
// ---------------------------------------------------------------------------

fn register(kind_idx: usize, prefix: &str, st: ObjState) -> Option<ObjId> {
    let (ctl, _) = ctx()?;
    let mut g = lock(&ctl.mx);
    let id = g.objs.len() as ObjId;
    let n = g.counts[kind_idx];
    g.counts[kind_idx] += 1;
    g.objs.push(Obj {
        label: format!("{prefix}{n}"),
        st,
    });
    Some(id)
}

pub(crate) fn register_atomic(init: u64) -> Option<ObjId> {
    register(
        0,
        "a",
        ObjState::Atomic(AtomicState {
            stores: vec![StoreMsg {
                val: init,
                rel: None,
            }],
            sc_floor: 0,
        }),
    )
}

pub(crate) fn register_cell() -> Option<ObjId> {
    register(
        1,
        "c",
        ObjState::Cell(CellState {
            last_write: None,
            reads: Vec::new(),
        }),
    )
}

pub(crate) fn register_mutex() -> Option<ObjId> {
    register(
        2,
        "m",
        ObjState::Mutex(MutexState {
            owner: None,
            view: Vec::new(),
            vc: Vec::new(),
        }),
    )
}

pub(crate) fn register_condvar() -> Option<ObjId> {
    register(
        3,
        "cv",
        ObjState::Condvar(CondvarState {
            waiters: Vec::new(),
        }),
    )
}

fn announce_op(op: Op) -> Option<u64> {
    let (ctl, tid) = ctx()?;
    let tid = tid.expect(
        "facade operation during scenario build; initialise state via constructors, \
         perform operations from scenario threads",
    );
    Some(announce(&ctl, tid, op))
}

pub(crate) fn atomic_load(obj: ObjId, ord: Ordering) -> Option<u64> {
    announce_op(Op::Load { obj, ord })
}

/// Returns `true` if the store was modelled (caller skips the native op).
pub(crate) fn atomic_store(obj: ObjId, val: u64, ord: Ordering) -> bool {
    announce_op(Op::Store { obj, ord, val }).is_some()
}

/// Returns the previous value if modelled.
pub(crate) fn atomic_rmw(obj: ObjId, rmw: RmwOp, ord: Ordering) -> Option<u64> {
    announce_op(Op::Rmw { obj, ord, rmw })
}

pub(crate) fn cell_read(obj: ObjId) {
    announce_op(Op::CellRead { obj });
}

pub(crate) fn cell_write(obj: ObjId) {
    announce_op(Op::CellWrite { obj });
}

/// Returns `true` if the lock was modelled (the caller still takes the
/// native, uncontended lock for the data it guards).
pub(crate) fn mutex_lock(obj: ObjId) -> bool {
    announce_op(Op::Lock { obj }).is_some()
}

pub(crate) fn mutex_unlock(obj: ObjId) {
    announce_op(Op::Unlock { obj });
}

/// Modelled `Condvar::wait`: releases the modelled mutex and parks until a
/// notify, then re-acquires. The caller must have dropped the native guard
/// first and re-take it afterwards.
pub(crate) fn cond_wait(cv: ObjId, mutex: ObjId) {
    announce_op(Op::CondWait { cv, mutex });
}

/// Returns `true` if modelled (caller skips the native notify).
pub(crate) fn cond_notify_all(cv: ObjId) -> bool {
    announce_op(Op::NotifyAll { cv }).is_some()
}

/// Voluntary preemption point for model code (free switch under the
/// preemption bound). No-op outside a model context.
pub fn yield_now() {
    if let Some((_, Some(_))) = ctx() {
        announce_op(Op::Yield);
    }
}

/// Model invariant check: panics (→ `"assert"` violation with the full
/// interleaving) when `cond` is false.
pub fn check(cond: bool, msg: &str) {
    if !cond {
        std::panic::panic_any(CheckFailed(format!("model invariant violated: {msg}")));
    }
}

/// Panic payload for [`check`] failures: reported through the violation
/// machinery (with the failing interleaving), silenced on stderr.
struct CheckFailed(String);

/// Park in `announce` until the driver grants our pending op.
fn announce(ctl: &Ctl, tid: Tid, op: Op) -> u64 {
    let mut g = lock(&ctl.mx);
    if g.aborting {
        drop(g);
        return abort_exit();
    }
    {
        let t = &mut g.threads[tid];
        t.pending = Some(op);
        t.state = ThrState::Parked;
        t.granted = false;
    }
    ctl.cv.notify_all();
    while !g.threads[tid].granted {
        g = ctl.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
    }
    g.threads[tid].granted = false;
    if g.aborting {
        drop(g);
        return abort_exit();
    }
    g.threads[tid].ret
}

/// [`McheckAbort`] unwinds are pure control flow (thousands per
/// exploration): silence the default panic hook for them, both for clean
/// output and to skip backtrace capture on every pruned schedule.
fn quiet_mcheck_aborts() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<McheckAbort>() || info.payload().is::<CheckFailed>() {
                return;
            }
            prev(info);
        }));
    });
}

fn abort_exit() -> u64 {
    if std::thread::panicking() {
        // Facade op during unwind (e.g. a guard or ring Drop) on an aborted
        // schedule: return a dummy value rather than double-panicking.
        return 0;
    }
    std::panic::panic_any(McheckAbort)
}

// ---------------------------------------------------------------------------
// Scenario construction
// ---------------------------------------------------------------------------

type ThreadFn = Box<dyn FnOnce() + Send + 'static>;

/// One schedule's cast of virtual threads. The builder closure passed to
/// [`explore`] is re-run for every schedule, so thread bodies capture
/// freshly-built state (usually `Arc`s created inside the builder).
#[derive(Default)]
pub struct Scenario {
    threads: Vec<(String, ThreadFn)>,
    finale: Option<ThreadFn>,
}

impl Scenario {
    /// Add a scenario thread.
    pub fn thread(&mut self, name: &str, f: impl FnOnce() + Send + 'static) {
        self.threads.push((name.to_string(), Box::new(f)));
    }

    /// Set the finale: runs after every scenario thread finished, with
    /// happens-before edges from all of them (it sees everything).
    pub fn finale(&mut self, f: impl FnOnce() + Send + 'static) {
        self.finale = Some(Box::new(f));
    }
}

fn harness(ctl: Arc<Ctl>, tid: Tid, f: ThreadFn, is_finale: bool) {
    set_ctx(Some(VCtx {
        ctl: ctl.clone(),
        tid: Some(tid),
    }));
    let first = if is_finale { Op::FinaleWait } else { Op::Start };
    let r = catch_unwind(AssertUnwindSafe(|| {
        announce(&ctl, tid, first);
        f();
    }));
    let mut g = lock(&ctl.mx);
    match r {
        Ok(()) => {}
        Err(p) if p.is::<McheckAbort>() => {}
        Err(p) => {
            let msg = p
                .downcast_ref::<CheckFailed>()
                .map(|c| c.0.clone())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic (non-string payload)".to_string());
            // Schedule number is stamped by the driver when it harvests the
            // violation; 0 is a placeholder.
            g.set_violation(0, "assert", msg);
            g.abort_all();
        }
    }
    g.threads[tid].state = ThrState::Finished;
    ctl.cv.notify_all();
    drop(g);
    set_ctx(None);
}

// ---------------------------------------------------------------------------
// Exploration
// ---------------------------------------------------------------------------

/// Bounds for one exploration. All zeros mean "unlimited" except
/// `max_read_depth` (0 = only the latest store, i.e. sequential
/// consistency for loads).
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Stop (incomplete) after this many schedules. 0 = unlimited.
    pub max_schedules: u64,
    /// CHESS preemption bound: involuntary context switches per schedule.
    pub max_preemptions: u32,
    /// How many stores *behind the latest* a load may still read (subject
    /// to coherence).
    pub max_read_depth: usize,
    /// Per-schedule step budget; exceeding it is reported as a violation
    /// (models must be loop-bounded).
    pub max_steps: usize,
    /// Wall-clock safety net. 0 = unlimited.
    pub wall_ms: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_schedules: 500_000,
            max_preemptions: 3,
            max_read_depth: 2,
            max_steps: 20_000,
            wall_ms: 20_000,
        }
    }
}

/// Outcome of one [`explore`] call.
#[derive(Clone, Debug)]
pub struct ModelReport {
    pub name: String,
    /// Schedules executed (including replay prefixes).
    pub schedules: u64,
    /// Total operations executed across all schedules.
    pub transitions: u64,
    /// Extra alternatives introduced by weak-memory read-from choices.
    pub read_branches: u64,
    /// Candidate threads skipped because they were in the sleep set.
    pub sleep_prunes: u64,
    /// Times the preemption bound forced the running thread to continue.
    pub preempt_prunes: u64,
    /// Schedules cut short because every enabled thread was asleep
    /// (subtree already covered).
    pub pruned_subtrees: u64,
    /// True iff the bounded state space was exhausted without violation.
    pub complete: bool,
    pub wall_ms: u64,
    pub violation: Option<Violation>,
}

impl ModelReport {
    /// Hand-rolled JSON (the crate is dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"name\":{},\"schedules\":{},\"transitions\":{},\"read_branches\":{},\
             \"sleep_prunes\":{},\"preempt_prunes\":{},\"pruned_subtrees\":{},\
             \"complete\":{},\"wall_ms\":{}",
            quote(&self.name),
            self.schedules,
            self.transitions,
            self.read_branches,
            self.sleep_prunes,
            self.preempt_prunes,
            self.pruned_subtrees,
            self.complete,
            self.wall_ms,
        ));
        match &self.violation {
            None => s.push_str(",\"violation\":null}"),
            Some(v) => {
                s.push_str(&format!(
                    ",\"violation\":{{\"kind\":{},\"schedule\":{},\"message\":{},\"trace\":[",
                    quote(&v.kind),
                    v.schedule,
                    quote(&v.message),
                ));
                for (i, step) in v.trace.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&quote(step));
                }
                s.push_str("]}}");
            }
        }
        s
    }
}

enum Frame {
    Sched { alts: Vec<Tid>, idx: usize },
    Read { alts: Vec<usize>, idx: usize },
}

enum ExecOutcome {
    Grant(u64),
    /// Thread re-blocked (condvar wait); nothing to grant.
    Block,
    Abort,
}

enum SchedChoice {
    Tid(Tid),
    /// Every enabled thread is in the sleep set: subtree already covered.
    Pruned,
}

struct Explorer {
    cfg: ExploreConfig,
    stack: Vec<Frame>,
    depth: usize,
    preempts: u32,
    last_tid: Option<Tid>,
    sleep: Vec<(Tid, Op)>,
    schedule_no: u64,
    transitions: u64,
    read_branches: u64,
    sleep_prunes: u64,
    preempt_prunes: u64,
    pruned_subtrees: u64,
}

impl Explorer {
    fn new(cfg: ExploreConfig) -> Self {
        Explorer {
            cfg,
            stack: Vec::new(),
            depth: 0,
            preempts: 0,
            last_tid: None,
            sleep: Vec::new(),
            schedule_no: 0,
            transitions: 0,
            read_branches: 0,
            sleep_prunes: 0,
            preempt_prunes: 0,
            pruned_subtrees: 0,
        }
    }

    fn enabled(g: &Inner, tid: Tid) -> bool {
        let t = &g.threads[tid];
        if t.state != ThrState::Parked {
            return false;
        }
        match t.pending {
            None => false,
            Some(Op::Lock { obj }) | Some(Op::Reacquire { mutex: obj }) => {
                match &g.objs[obj as usize].st {
                    ObjState::Mutex(m) => m.owner.is_none(),
                    _ => unreachable!("lock on non-mutex object"),
                }
            }
            Some(Op::AwaitNotify { .. }) => false,
            Some(Op::FinaleWait) => g
                .threads
                .iter()
                .all(|o| o.is_finale || o.state == ThrState::Finished),
            Some(_) => true,
        }
    }

    /// Pick the next virtual thread to run. `enabled` is non-empty.
    fn choose_sched(&mut self, g: &Inner, enabled: &[Tid]) -> SchedChoice {
        let replaying = self.depth < self.stack.len();
        let chosen = if replaying {
            match &self.stack[self.depth] {
                Frame::Sched { alts, idx } => alts[*idx],
                Frame::Read { .. } => unreachable!("sched point replayed a read frame"),
            }
        } else {
            // Sleep-set filter.
            let mut cands: Vec<Tid> = enabled
                .iter()
                .copied()
                .filter(|t| !self.sleep.iter().any(|(s, _)| s == t))
                .collect();
            self.sleep_prunes += (enabled.len() - cands.len()) as u64;
            if cands.is_empty() {
                return SchedChoice::Pruned;
            }
            // Preemption bound: keeping the previous thread running is
            // free; switching away while it is enabled (and didn't yield)
            // costs one preemption.
            let last_live = self.last_tid.filter(|l| cands.contains(l));
            if let Some(last) = last_live {
                let invited = g.threads[last].yielded;
                if !invited && self.preempts >= self.cfg.max_preemptions {
                    self.preempt_prunes += (cands.len() - 1) as u64;
                    cands = vec![last];
                } else {
                    // Continuation-first ordering keeps the first schedule
                    // depth-first and cheap.
                    cands.sort_unstable_by_key(|&t| (t != last, t));
                }
            } else {
                cands.sort_unstable();
            }
            let first = cands[0];
            self.stack.push(Frame::Sched {
                alts: cands,
                idx: 0,
            });
            first
        };

        // Sleep-set bookkeeping (runs for replayed and fresh frames alike —
        // the state is recomputed deterministically during descent).
        let (alts, idx) = match &self.stack[self.depth] {
            Frame::Sched { alts, idx } => (alts.clone(), *idx),
            Frame::Read { .. } => unreachable!(),
        };
        let chosen_op = g.threads[chosen]
            .pending
            .expect("chosen thread has pending op");
        let mut child_sleep = std::mem::take(&mut self.sleep);
        for &prev in &alts[..idx] {
            if let Some(op) = g.threads[prev].pending {
                child_sleep.push((prev, op));
            }
        }
        child_sleep.retain(|&(t, op)| t != chosen && !dependent(op, chosen_op));
        self.sleep = child_sleep;

        // Preemption accounting.
        if let Some(last) = self.last_tid {
            if last != chosen && Self::enabled(g, last) && !g.threads[last].yielded {
                self.preempts += 1;
            }
        }
        self.last_tid = Some(chosen);
        self.depth += 1;
        SchedChoice::Tid(chosen)
    }

    /// Pick which store a load observes. `alts` is latest-first, non-empty.
    fn choose_read(&mut self, alts: Vec<usize>) -> usize {
        if self.depth < self.stack.len() {
            let r = match &self.stack[self.depth] {
                Frame::Read { alts, idx } => alts[*idx],
                Frame::Sched { .. } => unreachable!("read point replayed a sched frame"),
            };
            self.depth += 1;
            return r;
        }
        self.read_branches += (alts.len() - 1) as u64;
        let first = alts[0];
        self.stack.push(Frame::Read { alts, idx: 0 });
        self.depth += 1;
        first
    }

    /// Execute `op`'s semantics against the modelled memory.
    fn exec(&mut self, g: &mut Inner, tid: Tid, op: Op) -> ExecOutcome {
        let n = g.threads.len();
        g.threads[tid].vc[tid] += 1;
        g.threads[tid].yielded = matches!(op, Op::Yield);
        match op {
            Op::Start | Op::Yield => ExecOutcome::Grant(0),
            Op::FinaleWait => {
                // Joining every thread's view/clock is the happens-before
                // edge "join() returned", so the finale reads all state
                // race-free.
                let mut view = std::mem::take(&mut g.threads[tid].view);
                let mut vc = std::mem::take(&mut g.threads[tid].vc);
                for (o, thr) in g.threads.iter().enumerate() {
                    if o != tid {
                        view_join(&mut view, &thr.view);
                        vc_join(&mut vc, &thr.vc);
                    }
                }
                g.threads[tid].view = view;
                g.threads[tid].vc = vc;
                ExecOutcome::Grant(0)
            }
            Op::Load { obj, ord } => {
                let (floor, len) = {
                    let a = atomic(g, obj);
                    let len = a.stores.len();
                    let mut floor = 0;
                    if ord == Ordering::SeqCst {
                        floor = a.sc_floor;
                    }
                    floor = floor.max(len.saturating_sub(self.cfg.max_read_depth + 1));
                    (floor, len)
                };
                let floor = floor.max(view_get(&g.threads[tid].view, obj));
                let i = if floor + 1 == len {
                    len - 1
                } else {
                    self.choose_read((floor..len).rev().collect())
                };
                view_set(&mut g.threads[tid].view, obj, i);
                let (val, rel) = {
                    let a = atomic(g, obj);
                    let m = &a.stores[i];
                    (m.val, m.rel.clone())
                };
                if is_acq(ord) {
                    if let Some((v, vc)) = rel {
                        view_join(&mut g.threads[tid].view, &v);
                        vc_join(&mut g.threads[tid].vc, &vc);
                    }
                }
                ExecOutcome::Grant(val)
            }
            Op::Store { obj, ord, val } => {
                let idx = atomic(g, obj).stores.len();
                view_set(&mut g.threads[tid].view, obj, idx);
                let rel = if is_rel(ord) {
                    Some((g.threads[tid].view.clone(), g.threads[tid].vc.clone()))
                } else {
                    None
                };
                let a = atomic(g, obj);
                a.stores.push(StoreMsg { val, rel });
                if ord == Ordering::SeqCst {
                    a.sc_floor = idx;
                }
                ExecOutcome::Grant(0)
            }
            Op::Rmw { obj, ord, rmw } => {
                // RMWs read the latest store (atomicity) and continue any
                // release sequence they land on.
                let (prev_val, prev_rel, prev_idx) = {
                    let a = atomic(g, obj);
                    let i = a.stores.len() - 1;
                    (a.stores[i].val, a.stores[i].rel.clone(), i)
                };
                view_set(&mut g.threads[tid].view, obj, prev_idx);
                if is_acq(ord) {
                    if let Some((v, vc)) = &prev_rel {
                        view_join(&mut g.threads[tid].view, v);
                        vc_join(&mut g.threads[tid].vc, vc);
                    }
                }
                let new_val = match rmw {
                    RmwOp::Add(x) => prev_val.wrapping_add(x),
                    RmwOp::Sub(x) => prev_val.wrapping_sub(x),
                };
                let idx = prev_idx + 1;
                view_set(&mut g.threads[tid].view, obj, idx);
                let own = if is_rel(ord) {
                    Some((g.threads[tid].view.clone(), g.threads[tid].vc.clone()))
                } else {
                    None
                };
                let rel = match (prev_rel, own) {
                    (None, None) => None,
                    (Some(p), None) => Some(p),
                    (None, Some(o)) => Some(o),
                    (Some((pv, pc)), Some((mut ov, mut oc))) => {
                        view_join(&mut ov, &pv);
                        vc_join(&mut oc, &pc);
                        Some((ov, oc))
                    }
                };
                let a = atomic(g, obj);
                a.stores.push(StoreMsg { val: new_val, rel });
                if ord == Ordering::SeqCst {
                    a.sc_floor = idx;
                }
                ExecOutcome::Grant(prev_val)
            }
            Op::CellRead { obj } => {
                let vc_self = g.threads[tid].vc.clone();
                let c = cell(g, obj);
                if let Some((w, clk)) = c.last_write {
                    if w != tid && vc_self[w] < clk {
                        let msg = self.race_msg(g, obj, tid, "read", true);
                        g.set_violation(self.schedule_no, "race", msg);
                        return ExecOutcome::Abort;
                    }
                }
                let c = cell(g, obj);
                if c.reads.len() < n {
                    c.reads.resize(n, 0);
                }
                c.reads[tid] = c.reads[tid].max(vc_self[tid]);
                ExecOutcome::Grant(0)
            }
            Op::CellWrite { obj } => {
                let vc_self = g.threads[tid].vc.clone();
                let c = cell(g, obj);
                if let Some((w, clk)) = c.last_write {
                    if w != tid && vc_self[w] < clk {
                        let msg = self.race_msg(g, obj, tid, "write", true);
                        g.set_violation(self.schedule_no, "race", msg);
                        return ExecOutcome::Abort;
                    }
                }
                let c = cell(g, obj);
                let racy_reader = c
                    .reads
                    .iter()
                    .enumerate()
                    .find(|&(u, &clk)| u != tid && clk > 0 && vc_self[u] < clk)
                    .map(|(u, _)| u);
                if racy_reader.is_some() {
                    let msg = self.race_msg(g, obj, tid, "write", false);
                    g.set_violation(self.schedule_no, "race", msg);
                    return ExecOutcome::Abort;
                }
                let clk = vc_self[tid];
                let c = cell(g, obj);
                c.last_write = Some((tid, clk));
                c.reads.clear();
                ExecOutcome::Grant(0)
            }
            Op::Lock { obj } | Op::Reacquire { mutex: obj } => {
                let (mv, mvc) = {
                    let m = mutex(g, obj);
                    debug_assert!(m.owner.is_none(), "lock granted while owned");
                    m.owner = Some(tid);
                    (m.view.clone(), m.vc.clone())
                };
                view_join(&mut g.threads[tid].view, &mv);
                vc_join(&mut g.threads[tid].vc, &mvc);
                ExecOutcome::Grant(0)
            }
            Op::Unlock { obj } => {
                let view = g.threads[tid].view.clone();
                let vc = g.threads[tid].vc.clone();
                let m = mutex(g, obj);
                m.owner = None;
                m.view = view;
                m.vc = vc;
                ExecOutcome::Grant(0)
            }
            Op::CondWait { cv, mutex: mx } => {
                let view = g.threads[tid].view.clone();
                let vc = g.threads[tid].vc.clone();
                {
                    let m = mutex(g, mx);
                    m.owner = None;
                    m.view = view;
                    m.vc = vc;
                }
                match &mut g.objs[cv as usize].st {
                    ObjState::Condvar(c) => c.waiters.push(tid),
                    _ => unreachable!("wait on non-condvar object"),
                }
                g.threads[tid].pending = Some(Op::AwaitNotify { cv, mutex: mx });
                ExecOutcome::Block
            }
            Op::NotifyAll { cv } => {
                let waiters = match &mut g.objs[cv as usize].st {
                    ObjState::Condvar(c) => std::mem::take(&mut c.waiters),
                    _ => unreachable!("notify on non-condvar object"),
                };
                for w in waiters {
                    if let Some(Op::AwaitNotify { mutex, .. }) = g.threads[w].pending {
                        g.threads[w].pending = Some(Op::Reacquire { mutex });
                    }
                }
                ExecOutcome::Grant(0)
            }
            Op::AwaitNotify { .. } => unreachable!("AwaitNotify is never enabled"),
        }
    }

    fn race_msg(&self, g: &Inner, obj: ObjId, tid: Tid, kind: &str, vs_write: bool) -> String {
        let against = if vs_write {
            "a previous write"
        } else {
            "a previous read"
        };
        format!(
            "data race on {}: {} by `{}` not ordered after {} (missing release/acquire edge)",
            g.objs[obj as usize].label, kind, g.threads[tid].name, against
        )
    }

    /// Drive one schedule to completion. Returns the violation, if any.
    fn drive(&mut self, ctl: &Ctl) -> Option<Violation> {
        let mut g = lock(&ctl.mx);
        loop {
            while !g.aborting
                && g.violation.is_none()
                && g.threads.iter().any(|t| t.state == ThrState::Running)
            {
                g = ctl.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            if g.aborting {
                break;
            }
            if g.violation.is_some() {
                g.abort_all();
                break;
            }
            if g.threads.iter().all(|t| t.state == ThrState::Finished) {
                break;
            }
            if g.trace.len() >= self.cfg.max_steps {
                g.set_violation(
                    self.schedule_no,
                    "steps",
                    format!(
                        "schedule exceeded {} steps — unbounded loop in the model?",
                        self.cfg.max_steps
                    ),
                );
                g.abort_all();
                break;
            }
            let enabled: Vec<Tid> = (0..g.threads.len())
                .filter(|&t| Self::enabled(&g, t))
                .collect();
            if enabled.is_empty() {
                let stuck: Vec<String> = g
                    .threads
                    .iter()
                    .filter(|t| t.state != ThrState::Finished)
                    .map(|t| {
                        let pend = t
                            .pending
                            .map(|op| g.fmt_op(op, 0))
                            .unwrap_or_else(|| "<none>".into());
                        format!("`{}` blocked on: {}", t.name, pend)
                    })
                    .collect();
                g.set_violation(
                    self.schedule_no,
                    "deadlock",
                    format!("no enabled thread; {}", stuck.join("; ")),
                );
                g.abort_all();
                break;
            }
            let tid = match self.choose_sched(&g, &enabled) {
                SchedChoice::Tid(t) => t,
                SchedChoice::Pruned => {
                    self.pruned_subtrees += 1;
                    g.abort_all();
                    break;
                }
            };
            let op = g.threads[tid]
                .pending
                .take()
                .expect("granted without pending");
            self.transitions += 1;
            match self.exec(&mut g, tid, op) {
                ExecOutcome::Grant(ret) => {
                    g.trace.push((tid, op, ret));
                    let t = &mut g.threads[tid];
                    t.ret = ret;
                    t.granted = true;
                    t.state = ThrState::Running;
                }
                ExecOutcome::Block => {
                    g.trace.push((tid, op, 0));
                }
                ExecOutcome::Abort => {
                    g.trace.push((tid, op, 0));
                    g.abort_all();
                    ctl.cv.notify_all();
                    break;
                }
            }
            ctl.cv.notify_all();
        }
        ctl.cv.notify_all();
        let mut v = g.violation.take();
        if let Some(v) = v.as_mut() {
            // Panics from harnesses carry a placeholder schedule number.
            v.schedule = self.schedule_no;
        }
        v
    }

    /// Build and run one schedule.
    fn run_one(&mut self, build: &dyn Fn(&mut Scenario)) -> Option<Violation> {
        self.depth = 0;
        self.preempts = 0;
        self.last_tid = None;
        self.sleep.clear();

        let ctl = Arc::new(Ctl {
            mx: Mutex::new(Inner::new()),
            cv: Condvar::new(),
        });
        set_ctx(Some(VCtx {
            ctl: ctl.clone(),
            tid: None,
        }));
        let mut scen = Scenario::default();
        build(&mut scen);
        set_ctx(None);

        let n = scen.threads.len() + usize::from(scen.finale.is_some());
        assert!(n > 0, "scenario has no threads");
        {
            let mut g = lock(&ctl.mx);
            for (name, _) in &scen.threads {
                let t = Thr::new(name.clone(), n, false);
                g.threads.push(t);
            }
            if scen.finale.is_some() {
                g.threads.push(Thr::new("finale".into(), n, true));
            }
        }
        let mut handles = Vec::with_capacity(n);
        for (tid, (name, f)) in scen.threads.into_iter().enumerate() {
            let c = ctl.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mcheck-{name}"))
                    .stack_size(256 * 1024)
                    .spawn(move || harness(c, tid, f, false))
                    .expect("spawn virtual thread"),
            );
        }
        if let Some(f) = scen.finale {
            let c = ctl.clone();
            handles.push(
                std::thread::Builder::new()
                    .name("mcheck-finale".into())
                    .stack_size(256 * 1024)
                    .spawn(move || harness(c, n - 1, f, true))
                    .expect("spawn finale thread"),
            );
        }
        let v = self.drive(&ctl);
        for h in handles {
            let _ = h.join();
        }
        v
    }
}

fn atomic(g: &mut Inner, obj: ObjId) -> &mut AtomicState {
    match &mut g.objs[obj as usize].st {
        ObjState::Atomic(a) => a,
        _ => unreachable!("atomic op on non-atomic object"),
    }
}

fn cell(g: &mut Inner, obj: ObjId) -> &mut CellState {
    match &mut g.objs[obj as usize].st {
        ObjState::Cell(c) => c,
        _ => unreachable!("cell op on non-cell object"),
    }
}

fn mutex(g: &mut Inner, obj: ObjId) -> &mut MutexState {
    match &mut g.objs[obj as usize].st {
        ObjState::Mutex(m) => m,
        _ => unreachable!("mutex op on non-mutex object"),
    }
}

/// Exhaustively explore `build`'s scenario under `cfg`'s bounds.
///
/// `build` is invoked once per schedule and must be deterministic: create
/// all shared state inside it and hand `Arc` clones to the scenario
/// threads. Exploration stops at the first violation (reported with the
/// failing interleaving), on budget exhaustion, or when the bounded state
/// space is exhausted (`complete = true`).
pub fn explore(name: &str, cfg: &ExploreConfig, build: impl Fn(&mut Scenario)) -> ModelReport {
    quiet_mcheck_aborts();
    let started = Instant::now();
    let mut ex = Explorer::new(cfg.clone());
    let mut complete = false;
    let mut violation = None;
    loop {
        ex.schedule_no += 1;
        if let Some(v) = ex.run_one(&build) {
            violation = Some(v);
            break;
        }
        // Backtrack: advance the deepest frame with an unexplored
        // alternative; drop exhausted frames.
        let mut advanced = false;
        while let Some(top) = ex.stack.last_mut() {
            let (idx, len) = match top {
                Frame::Sched { alts, idx } => (idx, alts.len()),
                Frame::Read { alts, idx } => (idx, alts.len()),
            };
            if *idx + 1 < len {
                *idx += 1;
                advanced = true;
                break;
            }
            ex.stack.pop();
        }
        if !advanced {
            complete = true;
            break;
        }
        if cfg.max_schedules > 0 && ex.schedule_no >= cfg.max_schedules {
            break;
        }
        if cfg.wall_ms > 0 && started.elapsed().as_millis() as u64 >= cfg.wall_ms {
            break;
        }
    }
    ModelReport {
        name: name.to_string(),
        schedules: ex.schedule_no,
        transitions: ex.transitions,
        read_branches: ex.read_branches,
        sleep_prunes: ex.sleep_prunes,
        preempt_prunes: ex.preempt_prunes,
        pruned_subtrees: ex.pruned_subtrees,
        complete,
        wall_ms: started.elapsed().as_millis() as u64,
        violation,
    }
}

// ---------------------------------------------------------------------------
// Litmus tests: the checker checking itself
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{MAtomicBool, MAtomicU64, MCell, MMutex};
    use std::sync::Arc;
    use std::sync::Mutex as StdMutex;

    /// `MCell` is deliberately `!Sync` (its owners implement `Sync` with
    /// their own protocol argument); the litmus tests share one through
    /// this wrapper and let the race detector judge the protocol.
    struct RacyCell(MCell<u64>);
    // SAFETY: accesses go through `read_with`/`write_with`, which the
    // model checker serializes and race-checks — that is the point of the
    // tests below.
    unsafe impl Sync for RacyCell {}

    fn small() -> ExploreConfig {
        ExploreConfig {
            max_schedules: 200_000,
            max_preemptions: 3,
            max_read_depth: 2,
            max_steps: 5_000,
            wall_ms: 30_000,
        }
    }

    /// Message passing with a Relaxed flag: the classic publication race.
    #[test]
    fn litmus_mp_relaxed_flag_is_racy() {
        let r = explore("mp_relaxed", &small(), |s| {
            let cell = Arc::new(RacyCell(MCell::new(0u64)));
            let flag = Arc::new(MAtomicBool::new(false));
            {
                let (cell, flag) = (cell.clone(), flag.clone());
                s.thread("writer", move || {
                    // SAFETY: model thread is sole writer; the race (if
                    // any) is what the checker must find.
                    unsafe { cell.0.write_with(|p| *p = 42) };
                    // ORDER: Relaxed — the ordering under test: no release
                    // edge, so the flag must NOT publish the cell write.
                    flag.store(true, Ordering::Relaxed);
                });
            }
            s.thread("reader", move || {
                // ORDER: Relaxed — the ordering under test (no acquire).
                if flag.load(Ordering::Relaxed) {
                    // SAFETY: as above — the checker decides if this races.
                    let _ = unsafe { cell.0.read_with(|p| *p) };
                }
            });
        });
        let v = r.violation.expect("relaxed message passing must race");
        assert_eq!(v.kind, "race", "violation: {}", v.message);
        assert!(!v.trace.is_empty(), "race report carries the interleaving");
    }

    /// Same shape with Release/Acquire: must verify clean AND complete.
    #[test]
    fn litmus_mp_release_acquire_is_clean() {
        let r = explore("mp_rel_acq", &small(), |s| {
            let cell = Arc::new(RacyCell(MCell::new(0u64)));
            let flag = Arc::new(MAtomicBool::new(false));
            let seen = Arc::new(StdMutex::new(Vec::new()));
            {
                let (cell, flag) = (cell.clone(), flag.clone());
                s.thread("writer", move || {
                    // SAFETY: write happens-before the Release store the
                    // reader acquires.
                    unsafe { cell.0.write_with(|p| *p = 42) };
                    // ORDER: Release — the ordering under test: publishes
                    // the cell write to the acquire load below.
                    flag.store(true, Ordering::Release);
                });
            }
            {
                let (cell, seen) = (cell.clone(), seen.clone());
                s.thread("reader", move || {
                    // ORDER: Acquire — the ordering under test; pairs with
                    // the Release store above.
                    if flag.load(Ordering::Acquire) {
                        // SAFETY: guarded by the acquired flag.
                        let v = unsafe { cell.0.read_with(|p| *p) };
                        seen.lock().unwrap().push(v);
                    }
                });
            }
            s.finale(move || {
                for &v in seen.lock().unwrap().iter() {
                    check(v == 42, "acquire reader saw a stale cell value");
                }
            });
        });
        assert!(r.violation.is_none(), "violation: {:?}", r.violation);
        assert!(r.complete, "state space must be exhausted");
        assert!(r.schedules > 1, "must have explored multiple schedules");
    }

    /// Store buffering: with Relaxed (or even SeqCst-free) ops both loads
    /// may read 0 — prove the model exhibits the weak outcome by asserting
    /// its absence and expecting a violation.
    #[test]
    fn litmus_store_buffer_weak_outcome_exists() {
        let r = explore("store_buffer", &small(), |s| {
            let x = Arc::new(MAtomicU64::new(0));
            let y = Arc::new(MAtomicU64::new(0));
            let out = Arc::new(StdMutex::new((1u64, 1u64)));
            {
                let (x, y, out) = (x.clone(), y.clone(), out.clone());
                s.thread("t1", move || {
                    // ORDER: Relaxed (both) — the orderings under test:
                    // nothing forbids the store-buffer outcome r1 == r2 == 0.
                    x.store(1, Ordering::Relaxed);
                    let r1 = y.load(Ordering::Relaxed);
                    out.lock().unwrap().0 = r1;
                });
            }
            {
                let (x, y, out) = (x.clone(), y.clone(), out.clone());
                s.thread("t2", move || {
                    // ORDER: Relaxed (both) — see t1.
                    y.store(1, Ordering::Relaxed);
                    let r2 = x.load(Ordering::Relaxed);
                    out.lock().unwrap().1 = r2;
                });
            }
            s.finale(move || {
                let (r1, r2) = *out.lock().unwrap();
                check(!(r1 == 0 && r2 == 0), "both-zero outcome reached");
            });
        });
        let v = r
            .violation
            .expect("store-buffer weak outcome must be reachable");
        assert_eq!(v.kind, "assert");
    }

    /// SeqCst on the same location: a load ordered after a SeqCst store
    /// cannot read older stores (per-location floor).
    #[test]
    fn litmus_seqcst_floor_forbids_stale_read() {
        let r = explore("sc_floor", &small(), |s| {
            let x = Arc::new(MAtomicU64::new(0));
            let out = Arc::new(StdMutex::new(Vec::new()));
            {
                let (x, out) = (x.clone(), out.clone());
                s.thread("w", move || {
                    // ORDER: SeqCst (both) — the orderings under test: the
                    // per-location SC floor must forbid the stale read-back.
                    x.store(1, Ordering::SeqCst);
                    let seen = x.load(Ordering::SeqCst);
                    out.lock().unwrap().push(seen);
                });
            }
            s.finale(move || {
                for &v in out.lock().unwrap().iter() {
                    check(v >= 1, "SeqCst load read a store older than the SC floor");
                }
            });
        });
        assert!(r.violation.is_none(), "violation: {:?}", r.violation);
        assert!(r.complete);
    }

    /// ABBA lock ordering must be reported as a deadlock.
    #[test]
    fn litmus_abba_deadlock_detected() {
        let r = explore("abba", &small(), |s| {
            let a = Arc::new(MMutex::new(()));
            let b = Arc::new(MMutex::new(()));
            {
                let (a, b) = (a.clone(), b.clone());
                s.thread("t1", move || {
                    let ga = a.lock();
                    yield_now();
                    let gb = b.lock();
                    drop(gb);
                    drop(ga);
                });
            }
            s.thread("t2", move || {
                let gb = b.lock();
                yield_now();
                let ga = a.lock();
                drop(ga);
                drop(gb);
            });
        });
        let v = r.violation.expect("ABBA must deadlock in some schedule");
        assert_eq!(v.kind, "deadlock", "violation: {}", v.message);
    }

    /// Mutual exclusion: counter increments under an MMutex never race and
    /// never lose updates.
    #[test]
    fn litmus_mutex_counter_exact() {
        let r = explore("mutex_counter", &small(), |s| {
            let mx = Arc::new(MMutex::new(0u64));
            for name in ["inc1", "inc2"] {
                let mx = mx.clone();
                s.thread(name, move || {
                    let mut g = mx.lock();
                    *g += 1;
                });
            }
            let mx2 = mx.clone();
            s.finale(move || {
                let g = mx2.lock();
                check(*g == 2, "lost update under mutex");
            });
        });
        assert!(r.violation.is_none(), "violation: {:?}", r.violation);
        assert!(r.complete);
    }
}
