//! The parallel kernel: optimistic (Time Warp), or windowed conservative
//! when the model allows it.
//!
//! Architecture (mirroring ROSS, paper Section 3.2):
//!
//! * **PEs** — one worker thread each, owning a pending-event queue, the
//!   states and RNG streams of its LPs, and the processed-event lists of its
//!   KPs. PEs exchange events through the lock-free batched
//!   [`comm`](crate::comm) fabric — one bounded SPSC ring per sender →
//!   receiver pair, carrying whole batches of messages (the shared-memory
//!   analogue of ROSS handing ownership of an event's memory to the
//!   destination PE). Remote sends accumulate in per-destination buffers
//!   flushed at batch/GVT boundaries; a per-PE [`pool`](crate::pool) recycles
//!   message batches so the hot path stays off the global allocator.
//! * **Optimistic execution** — each PE greedily executes its locally
//!   minimal pending event. A *straggler* (an arriving event in a KP's past)
//!   triggers a **primary rollback**: the KP's processed list is rewound by
//!   reverse computation — the model's reverse handler restores LP state,
//!   the kernel un-steps the LP's RNG, and **anti-messages** cancel every
//!   child the undone events had scheduled. An anti-message arriving for an
//!   already-executed event triggers a **secondary rollback**.
//! * **GVT** — Fujimoto's barriered reduction ([`gvt_round`](PeRuntime::gvt_round)):
//!   once any PE asks for a round, all PEs rendezvous, drain until the
//!   global sent/received counters agree, and take the min of their queue
//!   heads. Events older than GVT are *committed* and fossil-collected.
//! * **Optimism bound** — a PE never executes an event more than
//!   [`max_lookahead`](EngineConfig::max_lookahead) ticks past the last GVT.
//!   The bound is fixed for the run: unset, it is the model's epoch
//!   ([`Model::epoch`]), or unbounded for a model that declares none.
//! * **Windowed conservative arm** (`parallel/window.rs`) — when the model
//!   declares an epoch, the optimism bound is within it (the default) and
//!   the run is not barriered, none of the above runs: the PEs execute and
//!   commit one epoch at a time and agree barrier-free where the next one
//!   starts. Nothing is ever rolled back.
//!
//! Determinism: because the commit order is the total [`EventKey`] order —
//! logical fields only — a parallel run commits exactly the sequential
//! order, and model outputs are bit-identical to the
//! [`sequential`](crate::sequential) kernel's. That is the
//! paper's repeatability result (Section 4.2.1), verified by this module's
//! tests and the workspace integration tests.
//!
//! ## Transient duplicates
//!
//! Cancellation is asynchronous: when a rolled-back event re-executes, its
//! *new* children can race ahead of the anti-messages chasing the *stale*
//! subtree of its previous incarnation. Two live events with the same
//! logical [`EventKey`] (different [`EventId`]s) therefore coexist
//! transiently — the stale one is always annihilated before the next GVT
//! commits (quiescence guarantees the cascade has drained). The kernel
//! consequently orders twins by id, annihilates by id, and models must
//! tolerate *causally inconsistent transient states* (execute without
//! crashing; the execution will be rolled back). Committed history contains
//! exactly one event per key.
//!
//! A run reaches this kernel through [`Run::go`](crate::Run::go), which
//! validates the config, picks the mapping (the builder's, or a contiguous
//! [`LinearMapping`](crate::mapping::LinearMapping)) and the rollback
//! mechanism (reverse computation, or state saving via
//! [`Run::state_saving`](crate::Run::state_saving)), restores a resume
//! frame, and — under [`Run::supervised`](crate::Run::supervised) — calls
//! it again after a crash.
//!
//! ## Failure model
//!
//! A run returns `Result<RunResult, RunError>` and is guaranteed to
//! *return*: no deadlock, no process abort.
//!
//! * A panic on any PE — in a model handler or on a kernel invariant — is
//!   caught by `catch_unwind`; the panicking PE records the failure and
//!   aborts the GVT barrier, so every sibling unwinds at its next barrier
//!   wait or loop iteration. The run returns
//!   [`RunError::PePanic`](crate::error::RunError::PePanic) with per-PE
//!   diagnostics (queue depths, uncommitted events, stats, decoded trace).
//! * GVT failing to advance across
//!   [`gvt_stall_rounds`](crate::config::EngineConfig::gvt_stall_rounds)
//!   consecutive rounds, or the wall-clock
//!   [`deadline`](crate::config::EngineConfig::deadline) expiring, aborts the
//!   run with [`RunError::GvtStalled`](crate::error::RunError::GvtStalled).
//! * On any failure the partial model output is discarded; commit hooks may
//!   already have fired for events committed by earlier GVT rounds.
//!
//! When a [`FaultPlan`](crate::fault::FaultPlan) is configured, each PE
//! passes drained inter-PE messages through a deterministic fault filter
//! (delay/duplicate/reorder — see [`fault`](crate::fault)). Two kernel
//! mechanisms absorb the resulting disorder: duplicates are dropped by
//! [`EventId`] at the inbox boundary, and an anti-message arriving *before*
//! its positive is parked and annihilates the positive on arrival. Both are
//! impossible without fault injection (messages from one PE to another stay
//! ordered), but the machinery is always compiled in and checked.
//!
//! ## Observability
//!
//! The kernel is instrumented by the [`obs`](crate::obs) layer, configured
//! through [`EngineConfig::obs`](crate::config::EngineConfig::obs):
//!
//! * Each PE owns a bounded [`FlightRecorder`] ring of structured kernel
//!   events (execute, rollback, cancellation, GVT, comm, pool, fault). On
//!   failure the newest records are decoded into
//!   [`PeDiagnostics::trace`](crate::error::PeDiagnostics); memory stays
//!   ≤ capacity no matter how long or pathological the run.
//!   [`EngineConfig::new`](crate::config::EngineConfig::new) turns the
//!   recorder on when the process runs with `PDES_TRACE=1`.
//! * At every GVT round each PE samples a
//!   [`RoundSnapshot`](crate::obs::RoundSnapshot) — local virtual time vs
//!   GVT (the Korniss roughness profile), queue depth, rollback/commit
//!   counters, comm and pool occupancy — into a bounded series returned on
//!   [`RunResult::telemetry`](crate::stats::RunResult::telemetry) and
//!   streamed to any configured
//!   [`MetricsSink`](crate::obs::MetricsSink).
//! * PE 0 can emit a one-line stderr progress report every K rounds
//!   ([`ObsConfig::progress_every`](crate::obs::ObsConfig::progress_every)).
//!
//! Observation is write-only and per-PE (no cross-thread synchronization on
//! the hot path beyond three relaxed-ordering counter adds per GVT round
//! when the progress line is on), so enabling it never perturbs committed
//! output — the determinism suites run at maximum verbosity.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::arena::{EventArena, SlotRef};
use crate::audit::{self, AuditCheck, AuditState, AuditViolation};
use crate::ckpt::{self, BootFrame, CkptPart};
use crate::comm::{Batch, CommFabric};
use crate::config::EngineConfig;
use crate::error::{decode_payload, FailureCause, PeDiagnostics, RunDiagnostics, RunError};
use crate::event::{
    Bitfield, ChildRef, Event, EventId, EventKey, KpId, LpId, PeId, QueueEntry, Remote,
};
use crate::fault::FaultState;
use crate::gvt::GvtRound;
use crate::hash::{FastMap, FastSet};
use crate::kp::{Kp, Processed, Undone};
use crate::lifecycle;
use crate::mapping::{FlatMapping, Mapping};
use crate::model::{Emit, EventCtx, Merge, Model, ReverseCtx};
use crate::obs::blame::{BlameTracker, CascadeTag};
use crate::obs::prof::{Phase, PhaseProfiler};
use crate::obs::trace::{HopEmit, PacketTrace, PacketTracer};
use crate::obs::{FlightRecorder, ObsKind, ObsRecord, RoundSeries, RoundSnapshot, Telemetry};
use crate::pool::VecPool;
use crate::rng::{Clcg4, ReversibleRng};
use crate::scheduler::EventQueue;
use crate::stats::{EngineStats, RunResult};
use crate::sync::AbortableBarrier;
use crate::time::VirtualTime;

/// Consecutive idle polls before an idle PE forces a GVT round (drives
/// termination detection without barrier-storming busy PEs).
const IDLE_GVT_TRIGGER: u64 = 64;

/// Lock a mutex, recovering the guard if a panicking thread poisoned it (the
/// kernel's shared state stays consistent across a contained panic — we only
/// read it for diagnostics afterwards).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Record one kernel event into this PE's flight recorder. The leading
/// `enabled` check makes a disabled recorder cost one load and branch —
/// cheap enough not to mask timing-sensitive races.
macro_rules! obs {
    ($self:ident, $kind:expr, $id:expr, $key:expr) => {
        obs!($self, $kind, $id, $key, 0u64)
    };
    ($self:ident, $kind:expr, $id:expr, $key:expr, $arg:expr) => {
        if $self.recorder.enabled() {
            $self
                .recorder
                .record(ObsRecord::event($kind, $id, $key, $arg as u64));
        }
    };
}

pub(crate) mod window;

/// Unwind marker: this PE must stop because a peer recorded a failure (or it
/// recorded one itself). Carries nothing — the cause lives in `Shared`.
struct Halt;

/// State shared by all PEs.
struct Shared<P> {
    /// Lock-free batched inter-PE channels (one SPSC ring per PE pair).
    fabric: CommFabric<P>,
    /// Time Warp's GVT round: published GVT, round-request flag, the
    /// global sent/received counters and the per-PE reports — see
    /// [`GvtRound`].
    gvt: GvtRound,
    /// The windowed arm's agreement (see [`window`]).
    window: window::WindowSync,
    /// Rendezvous for the GVT protocol; aborted on failure so no PE can
    /// block forever.
    barrier: AbortableBarrier,
    /// First failure recorded by any PE (first writer wins).
    failure: Mutex<Option<FailureCause>>,
    /// Run-wide committed / processed / rolled-back event totals, updated
    /// with per-round deltas by every PE when it samples a round — only
    /// when the stderr progress line is enabled
    /// ([`ObsConfig::progress_every`](crate::obs::ObsConfig::progress_every)),
    /// so an unobserved run pays nothing.
    committed: AtomicU64,
    processed: AtomicU64,
    rolled_back: AtomicU64,
    /// Per-PE capture parts deposited during a checkpoint round; PE 0 takes
    /// all of them to assemble and write the snapshot. Touched only inside
    /// the barriered checkpoint protocol, never on the hot path.
    ckpt_parts: Mutex<Vec<Option<CkptPart>>>,
}

impl<P> Shared<P> {
    /// Record a failure (first one wins) and release every PE blocked at —
    /// or heading for — the barrier.
    fn fail(&self, cause: FailureCause) {
        let mut slot = lock(&self.failure);
        if slot.is_none() {
            *slot = Some(cause);
        }
        drop(slot);
        self.barrier.abort();
    }
}

/// One LP's kernel-side state.
struct LpSlot<M: Model> {
    state: M::State,
    rng: Clcg4,
}

/// Snapshot function for state-saving mode: clones `(state, rng)` before
/// each event. `None` selects reverse computation.
pub(crate) type SnapshotFn<M> =
    Option<fn(&<M as Model>::State, &Clcg4) -> (<M as Model>::State, Clcg4)>;

/// Everything one worker thread owns.
struct PeRuntime<'a, M: Model> {
    id: PeId,
    model: &'a M,
    config: &'a EngineConfig,
    flat: &'a FlatMapping,
    /// Global LP id → index into this PE's `slots` (valid only for owned LPs).
    lp_local: &'a [u32],
    /// Global KP id → index into this PE's `kps` (valid only for owned KPs).
    kp_local: &'a [u32],
    shared: &'a Shared<M::Payload>,
    /// Owned LPs, positionally matching `my_lps`.
    slots: Vec<LpSlot<M>>,
    /// Global ids of owned LPs.
    my_lps: Vec<LpId>,
    /// Owned KPs.
    kps: Vec<Kp<M::State>>,
    queue: Box<dyn EventQueue>,
    /// Arena holding every live event payload on this PE (pending or
    /// processed-but-uncommitted); the scheduler and KP lists carry only
    /// [`QueueEntry`]/[`SlotRef`] handles into it.
    arena: EventArena<M::Payload>,
    next_seq: u64,
    emit_buf: Vec<Emit<M::Payload>>,
    bf: Bitfield,
    stats: EngineStats,
    since_gvt: u64,
    idle_polls: u64,
    /// Bounded ring of structured kernel events (see [`obs`](crate::obs)).
    recorder: FlightRecorder,
    /// Bounded per-GVT-round snapshot series (merged into
    /// [`RunResult::telemetry`] on success).
    series: RoundSeries,
    /// Phase-level wall-clock profiler (see [`prof`](crate::obs::prof)):
    /// every kernel phase below runs inside a begin/end scope; hot phases
    /// are stride-sampled to stay inside the overhead budget.
    profiler: PhaseProfiler,
    /// Rollback-aware per-packet hop tracer (see
    /// [`trace`](crate::obs::trace)); disabled unless
    /// [`ObsConfig::packet_trace_capacity`](crate::obs::ObsConfig) is set.
    tracer: PacketTracer,
    /// Scratch buffer the model's `trace_hop` calls fill during one forward
    /// execution; drained into the tracer with the event's key.
    hop_buf: Vec<HopEmit>,
    /// Rollback-forensics tracker (see [`blame`](crate::obs::blame)):
    /// cascade attribution, the blame matrix, and the wasted-work ledger.
    /// Only touched on rollback/cancellation paths plus one emptiness check
    /// per forward execution.
    blame: BlameTracker,
    /// Totals already published to the shared progress counters (the next
    /// round publishes only the delta).
    progress_published: (u64, u64, u64),
    /// State-saving snapshotter (`None` = reverse computation).
    snapshot_fn: SnapshotFn<M>,
    /// Chaos layer (`None` = no fault injection).
    faults: Option<FaultState<M::Payload>>,
    /// Per-destination send buffers (index = destination PE; own slot
    /// unused). Flushed into the comm fabric when `comm_flush` messages
    /// accumulate and at every main-loop / GVT-round boundary.
    out_bufs: Vec<Batch<M::Payload>>,
    /// Flush threshold derived from `config.comm_batch` (`usize::MAX` =
    /// boundary flushes only).
    comm_flush: usize,
    /// Recycles message-batch vectors: drained batches come back empty and
    /// are reused for outgoing batches.
    msg_pool: VecPool<Remote<M::Payload>>,
    /// Children of the event [`execute`](Self::execute) is running, held
    /// here until the event is recorded on its KP: enqueueing a child can
    /// start a rollback cascade on this PE, and whenever one runs a KP's
    /// child log must hold the children of its *recorded* events only.
    child_buf: Vec<ChildRef>,
    /// Children of the records [`rollback`](Self::rollback) has popped and
    /// is still cancelling, as a stack: cancelling a local child re-enters
    /// `rollback`, and the nested frame pushes and truncates above the
    /// outer frame's entries.
    cancel_stack: Vec<ChildRef>,
    /// Scratch buffer reused by the fault-filtered drain path.
    pending_buf: Vec<Remote<M::Payload>>,
    /// Scratch batch headers reused by both drain paths (whole batches land
    /// here straight from the rings; messages are applied in place, or
    /// flattened into `pending_buf` under faults, and the emptied vectors
    /// recycle through `msg_pool`).
    batch_bufs: Vec<Batch<M::Payload>>,
    /// Scratch vector reused by batched fossil collection (each KP's
    /// committed arena slots, freed in one run).
    fossil_slots: Vec<SlotRef>,
    /// Minimum receive time (ticks) over every remote message sent since
    /// this PE's last window hand-off. Reset to `u64::MAX` at each hand-off.
    /// Maintained unconditionally (one branchless `min` per remote send);
    /// only the windowed arm reads it.
    send_min: u64,
    /// Ids of remote positives/antis already delivered once — consulted only
    /// under fault injection, where the chaos layer can deliver twice.
    /// Cleared at every GVT quiescence (no copy can be outstanding then).
    seen_pos: FastSet<EventId>,
    seen_anti: FastSet<EventId>,
    /// Anti-messages that arrived before their positive (possible only under
    /// fault-injected reordering/delay), keyed by target id. The positive is
    /// annihilated on arrival. Must be empty at every GVT quiescence.
    early_antis: FastMap<EventId, ChildRef>,
    /// Reversibility auditor (see [`audit`](crate::audit)); `None` = off.
    audit: Option<AuditState>,
    /// Scratch emission buffer for the auditor's reverse-replay probe (the
    /// probe's emits are discarded, never scheduled).
    probe_buf: Vec<Emit<M::Payload>>,
    /// Wall-clock start of the parallel phase (deadline watchdog).
    start_time: Instant,
    /// GVT watchdog (consulted by PE 0 only): last GVT seen and how many
    /// consecutive rounds it has failed to advance.
    prev_gvt: u64,
    stall_rounds: u64,
    /// GVT rounds completed by *this machine incarnation's protocol*, in
    /// lockstep on every PE. Drives the checkpoint-due predicate and round
    /// labels; distinct from `stats.gvt_rounds`, which on a resumed run is
    /// seeded with the snapshot's merged totals on PE 0 only and therefore
    /// diverges across PEs.
    round: u64,
    /// GVT (ticks) of the last checkpoint taken (or resumed from) —
    /// identical on every PE, so the due-predicate stays lockstep.
    last_ckpt_gvt: u64,
    /// Snapshot files written by this PE this incarnation (PE 0 only);
    /// indexes [`FaultPlan::poison_ckpt`](crate::fault::FaultPlan).
    ckpt_writes: u64,
}

impl<'a, M: Model> PeRuntime<'a, M> {
    #[inline]
    fn local_kp_idx(&self, lp: LpId) -> usize {
        self.kp_local[self.flat.kp_of_lp[lp as usize] as usize] as usize
    }

    #[inline]
    fn local_lp_idx(&self, lp: LpId) -> usize {
        self.lp_local[lp as usize] as usize
    }

    /// Rendezvous with the other PEs, unwinding if the run was aborted, under
    /// a [`Phase::GvtWait`] profiler scope — the barrier waits of GVT rounds
    /// and checkpoint captures are where load imbalance shows up.
    #[inline]
    fn bwait(&mut self) -> Result<(), Halt> {
        let t0 = self.profiler.begin(Phase::GvtWait);
        let r = self.shared.barrier.wait().map_err(|_| Halt);
        self.profiler.end(Phase::GvtWait, t0);
        r
    }

    /// True if the pending queue's head is executable: before the horizon
    /// and, when optimism is bounded, at most
    /// [`max_lookahead`](EngineConfig::max_lookahead) past the last
    /// computed GVT.
    #[inline]
    fn has_executable(&mut self) -> bool {
        match self.queue.peek_key() {
            Some(k) if k.recv_time < self.config.end_time => match self.config.max_lookahead {
                Some(window) => {
                    let gvt = self.shared.gvt.read();
                    k.recv_time.0 <= gvt.saturating_add(window)
                }
                None => true,
            },
            _ => false,
        }
    }

    /// Auditor fingerprint of an owned LP (see [`audit::lp_fingerprint`]).
    fn audit_lp_fingerprint(&self, li: usize, lp: LpId) -> u64 {
        let slot = &self.slots[li];
        audit::lp_fingerprint(self.model, lp, &slot.state, &slot.rng)
    }

    /// Record an audit violation: flight-record it, then publish it as the
    /// run's failure (first failure wins) and abort the barrier so every PE
    /// unwinds at its next check.
    fn audit_violation(&mut self, v: AuditViolation) {
        audit::record_violation(&mut self.recorder, &v);
        self.shared.fail(v.into());
    }

    /// Gate on an auditor check (`None` = auditor off): a violation fails
    /// the run and halts this PE.
    fn audit_gate(&mut self, check: Option<Result<(), AuditViolation>>) -> Result<(), Halt> {
        if let Some(Err(v)) = check {
            self.audit_violation(v);
            return Err(Halt);
        }
        Ok(())
    }

    /// Move one payload into the arena, surfacing exhaustion as the
    /// structured run failure (first failure wins, barrier aborted) instead
    /// of a panic.
    #[inline]
    fn insert_arena(&mut self, payload: M::Payload) -> Result<SlotRef, Halt> {
        match self.arena.insert(payload) {
            Ok(slot) => Ok(slot),
            Err(full) => {
                self.shared.fail(FailureCause::ArenaExhausted {
                    pe: self.id,
                    capacity: full.capacity,
                });
                Err(Halt)
            }
        }
    }

    /// The PE main loop: the windowed arm when the model's epoch allows it
    /// ([`window::window_epoch`]), else Time Warp (both commit the identical
    /// event order). Returns `Ok` once GVT has passed the horizon, `Err`
    /// when the run was aborted by a failure on any PE.
    fn run(&mut self) -> Result<(), Halt> {
        if let Some(epoch) = window::window_epoch(self.model, self.config) {
            return self.run_windows(epoch);
        }
        loop {
            if self.shared.barrier.is_aborted() {
                return Err(Halt);
            }
            self.drain_inbox(true)?;
            // Draining can roll back and buffer anti-messages; publish them
            // (and any leftovers from the previous execute batch) now.
            self.flush_out_bufs();
            if self.shared.gvt.round_requested() || self.round_due() {
                // Every other PE joins the round at its next iteration.
                self.shared.gvt.set_requested(true);
                if self.gvt_round()? >= self.config.end_time.0 {
                    // Every speculative send must have been cancelled or
                    // committed.
                    let end_check = self.audit.as_ref().map(|a| a.finish(self.id));
                    return self.audit_gate(end_check);
                }
            }
            if !self.has_executable() {
                self.idle_polls += 1;
                std::thread::yield_now();
                continue;
            }
            self.idle_polls = 0;
            self.execute_batch()?;
            // End-of-batch boundary: everything buffered becomes visible.
            self.flush_out_bufs();
        }
    }

    /// Whether this PE wants a GVT round: `gvt_interval` events executed
    /// since the last one, or nothing executable for `IDLE_GVT_TRIGGER`
    /// polls (termination detection).
    fn round_due(&mut self) -> bool {
        self.since_gvt >= self.config.gvt_interval
            || (!self.has_executable() && self.idle_polls >= IDLE_GVT_TRIGGER)
    }

    /// Pop and execute up to one batch of locally minimal events.
    fn execute_batch(&mut self) -> Result<(), Halt> {
        for _ in 0..self.config.batch {
            if !self.has_executable() {
                break;
            }
            let t0 = self.profiler.begin(Phase::SchedPop);
            let entry = self.queue.pop().expect("peeked executable event must pop");
            self.profiler.end(Phase::SchedPop, t0);
            if let Some(a) = self.audit.as_mut() {
                a.toggle_sched(entry.id, &entry.key);
            }
            obs!(self, ObsKind::Execute, entry.id, entry.key);
            self.execute(entry)?;
            // A violation detected mid-batch aborts the barrier; stop
            // executing promptly instead of finishing the batch.
            if self.audit.is_some() && self.shared.barrier.is_aborted() {
                return Err(Halt);
            }
        }
        Ok(())
    }

    /// Receive time (ticks) of this PE's pending minimum, `u64::MAX` if idle.
    fn queue_min(&mut self) -> u64 {
        self.queue.peek_key().map_or(u64::MAX, |k| k.recv_time.0)
    }

    /// Queue one message for a remote PE: count it as sent (GVT's in-flight
    /// accounting starts *here*, before the message is visible — see
    /// [`GvtRound::count_sent`]), append it to the destination's send
    /// buffer, and flush the buffer if it reached the batching threshold.
    #[inline]
    fn send_remote(&mut self, pe: PeId, msg: Remote<M::Payload>) {
        // The windowed arm's report must cover this send until the next
        // window boundary, so fold its receive time into the minimum.
        let recv = match &msg {
            Remote::Positive(ev) => ev.key.recv_time.0,
            Remote::Anti(c, _) => c.key.recv_time.0,
        };
        self.send_min = self.send_min.min(recv);
        self.shared.gvt.count_sent();
        let buf = &mut self.out_bufs[pe];
        buf.push(msg);
        if buf.len() >= self.comm_flush {
            self.flush_to(pe);
        }
    }

    /// Take an empty message batch from the pool, flight-recording whether
    /// it was recycled or freshly allocated.
    fn get_batch(&mut self) -> Batch<M::Payload> {
        let misses_before = self.msg_pool.misses;
        let batch = self.msg_pool.get();
        let kind = if self.msg_pool.misses > misses_before {
            ObsKind::PoolMiss
        } else {
            ObsKind::PoolHit
        };
        obs!(self, kind, EventId(0), crate::obs::NO_KEY);
        batch
    }

    /// Publish the send buffer for `pe` into its ring (one release-store on
    /// the fast path).
    fn flush_to(&mut self, pe: PeId) {
        if self.out_bufs[pe].is_empty() {
            return;
        }
        let t0 = self.profiler.begin(Phase::CommFlush);
        let fresh = self.get_batch();
        let batch = std::mem::replace(&mut self.out_bufs[pe], fresh);
        self.stats.batches_flushed += 1;
        let len = batch.len() as u64;
        self.stats.batched_messages += len;
        if self.shared.fabric.push_batch(self.id, pe, batch) {
            self.stats.ring_full_stalls += 1;
            obs!(
                self,
                ObsKind::CommOverflow,
                EventId(pe as u64),
                crate::obs::NO_KEY,
                len
            );
        } else {
            obs!(
                self,
                ObsKind::CommFlush,
                EventId(pe as u64),
                crate::obs::NO_KEY,
                len
            );
        }
        self.profiler.end(Phase::CommFlush, t0);
    }

    /// Flush every non-empty send buffer. Called after each inbox drain and
    /// each execute batch in the main loop, and before every drain of the
    /// GVT quiescence loop — the flush points that bound how long a message
    /// can sit locally.
    fn flush_out_bufs(&mut self) {
        for pe in 0..self.out_bufs.len() {
            self.flush_to(pe);
        }
    }

    /// Pull every message out of this PE's channels and apply it. With
    /// `chaos` set (main loop) drained batches pass through the fault
    /// filter, which may hold messages back, duplicate them, or shuffle the
    /// batch. Without it (GVT quiescence) everything — including the fault
    /// layer's held-back messages — is delivered verbatim, so quiescence
    /// always sees a fully flushed machine and GVT can never pass a delayed
    /// message.
    ///
    /// Fault-free runs take the zero-copy path: whole batches move from the
    /// rings as `Vec` headers and messages are applied straight out of them
    /// — no intermediate copy into a flat scratch buffer.
    fn drain_inbox(&mut self, chaos: bool) -> Result<(), Halt> {
        if self.faults.is_some() {
            self.drain_inbox_filtered(chaos)
        } else {
            self.drain_inbox_batches()
        }
    }

    /// Zero-copy drain: land whole batches, apply each message in place,
    /// recycle the emptied vectors through the message pool.
    fn drain_inbox_batches(&mut self) -> Result<(), Halt> {
        let mut batches = std::mem::take(&mut self.batch_bufs);
        debug_assert!(batches.is_empty());
        let mut outcome = Ok(());
        'drain: loop {
            let t0 = self.profiler.begin(Phase::CommDrain);
            let n = self.shared.fabric.drain_batches(self.id, &mut batches);
            self.profiler.end(Phase::CommDrain, t0);
            if n > 0 {
                self.shared.gvt.count_received(n);
            }
            if batches.is_empty() {
                break;
            }
            for mut batch in batches.drain(..) {
                for msg in batch.drain(..) {
                    if outcome.is_ok() {
                        outcome = self.apply_remote(msg);
                    }
                }
                self.msg_pool.put(batch);
                if outcome.is_err() {
                    break 'drain;
                }
            }
            // Rollbacks triggered above may have buffered anti-messages;
            // publish them before the next pass so cancellation cascades
            // propagate one drain per hop.
            self.flush_out_bufs();
        }
        batches.clear();
        self.batch_bufs = batches;
        outcome
    }

    /// Fault-filtered drain (chaos runs only): landed batches are flattened
    /// into a scratch buffer so the filter can hold back, duplicate, and
    /// shuffle across batch boundaries.
    fn drain_inbox_filtered(&mut self, chaos: bool) -> Result<(), Halt> {
        let mut pending = std::mem::take(&mut self.pending_buf);
        debug_assert!(pending.is_empty());
        let mut outcome = Ok(());
        if let Some(faults) = self.faults.as_mut() {
            faults.take_holdback(&mut pending);
        }
        loop {
            let t0 = self.profiler.begin(Phase::CommDrain);
            let n = self
                .shared
                .fabric
                .drain_batches(self.id, &mut self.batch_bufs);
            for mut batch in self.batch_bufs.drain(..) {
                pending.append(&mut batch);
                self.msg_pool.put(batch);
            }
            self.profiler.end(Phase::CommDrain, t0);
            if n > 0 {
                self.shared.gvt.count_received(n);
            }
            if pending.is_empty() {
                break;
            }
            let mut deliver = match (chaos, self.faults.as_mut()) {
                (true, Some(faults)) => {
                    let before = self.stats.total_injected_faults();
                    let filtered = faults.filter(pending, &mut self.stats);
                    let injected = self.stats.total_injected_faults() - before;
                    if injected > 0 {
                        obs!(
                            self,
                            ObsKind::FaultInjected,
                            EventId(0),
                            crate::obs::NO_KEY,
                            injected
                        );
                    }
                    filtered
                }
                _ => pending,
            };
            pending = self.get_batch();
            for msg in deliver.drain(..) {
                if outcome.is_ok() {
                    outcome = self.apply_remote(msg);
                }
            }
            self.msg_pool.put(deliver);
            if outcome.is_err() {
                break;
            }
            // Publish buffered anti-messages between passes (cascade
            // propagation; the GVT settle loop's convergence depends on it).
            self.flush_out_bufs();
        }
        pending.clear();
        self.pending_buf = pending;
        outcome
    }

    /// Apply one message from the inter-PE boundary. Positives land their
    /// payload in the arena (the only copy the kernel ever makes of a
    /// delivered payload); fails only on arena exhaustion.
    fn apply_remote(&mut self, msg: Remote<M::Payload>) -> Result<(), Halt> {
        match msg {
            Remote::Positive(ev) => {
                if self.faults.is_some() && !self.seen_pos.insert(ev.id) {
                    // Chaos-injected duplicate delivery: absorb by id.
                    self.stats.duplicates_dropped += 1;
                    obs!(self, ObsKind::DropDuplicate, ev.id, ev.key);
                    return Ok(());
                }
                if self.early_antis.remove(&ev.id).is_some() {
                    // Its anti-message got here first: they annihilate.
                    self.stats.early_annihilations += 1;
                    obs!(self, ObsKind::AnnihilateEarly, ev.id, ev.key);
                    return Ok(());
                }
                let slot = self.insert_arena(ev.payload)?;
                self.enqueue_positive(QueueEntry {
                    key: ev.key,
                    id: ev.id,
                    slot,
                });
            }
            Remote::Anti(child, tag) => {
                if self.faults.is_some() && !self.seen_anti.insert(child.id) {
                    self.stats.duplicates_dropped += 1;
                    obs!(self, ObsKind::DropDuplicate, child.id, child.key);
                    return Ok(());
                }
                self.cancel_local(child, tag);
            }
        }
        Ok(())
    }

    /// Insert a positive event (payload already in the arena), rolling its
    /// KP back first if it is a straggler (primary rollback).
    fn enqueue_positive(&mut self, entry: QueueEntry) {
        let kp_idx = self.local_kp_idx(entry.key.dst);
        obs!(self, ObsKind::Enqueue, entry.id, entry.key);
        if let Some(last) = self.kps[kp_idx].last_key() {
            // Equality is possible: a not-yet-cancelled stale twin of this
            // event may already be processed (see module docs on transient
            // duplicates); only a strictly earlier key is a straggler.
            if entry.key < last {
                self.stats.primary_rollbacks += 1;
                obs!(
                    self,
                    ObsKind::PrimaryRollback,
                    entry.id,
                    entry.key,
                    entry.key.recv_time.0
                );
                // Blame the sender: the straggler's send-time lag behind the
                // victim KP's LVT measures how stale the damage was.
                self.blame.begin_straggler(
                    entry.key.src,
                    self.flat.kp_of_lp[entry.key.dst as usize],
                    last.recv_time.0.saturating_sub(entry.key.send_time.0),
                    entry.key.recv_time.0,
                );
                self.rollback(kp_idx, entry.key, None);
                self.blame.end();
            }
        }
        if let Some(a) = self.audit.as_mut() {
            a.toggle_sched(entry.id, &entry.key);
        }
        let t0 = self.profiler.begin(Phase::SchedPush);
        self.queue.push(entry);
        self.profiler.end(Phase::SchedPush, t0);
    }

    /// Annihilate a local event: remove it from the pending queue, roll its
    /// KP back past it (secondary rollback), or — if the positive has not
    /// been delivered yet, which only fault-injected reordering/delay can
    /// arrange — park the anti to annihilate the positive on arrival.
    fn cancel_local(&mut self, child: ChildRef, tag: CascadeTag) {
        if let Some(slot) = self.queue.remove(child.id, child.key) {
            let _ = self.arena.free(slot);
            if let Some(a) = self.audit.as_mut() {
                a.toggle_sched(child.id, &child.key);
            }
            obs!(self, ObsKind::CancelPending, child.id, child.key);
            // Cancelled while pending: if a cascade had requeued it, the
            // re-execution it was waiting for will never happen.
            self.blame.on_annihilate(child.id);
            return;
        }
        let kp_idx = self.local_kp_idx(child.key.dst);
        if self.kps[kp_idx].contains_at_or_after(child.id, child.key) {
            obs!(self, ObsKind::CancelMiss, child.id, child.key);
            self.stats.secondary_rollbacks += 1;
            // Link this secondary rollback into the sender's cascade. The
            // victim's LVT exists (`contains_at_or_after` proved the KP has
            // processed work at or after the cancelled event).
            let lvt = self.kps[kp_idx].last_key().map_or(0, |k| k.recv_time.0);
            self.blame.begin_secondary(
                tag,
                self.flat.kp_of_lp[child.key.dst as usize],
                lvt.saturating_sub(child.key.send_time.0),
                child.key.recv_time.0,
            );
            self.rollback(kp_idx, child.key, Some(child.id));
            self.blame.end();
        } else {
            obs!(self, ObsKind::DeferAnti, child.id, child.key);
            self.stats.antis_deferred += 1;
            self.early_antis.insert(child.id, child);
        }
    }

    /// Rewind `kp_idx` by reverse computation until its newest processed
    /// event is strictly older than `bound`. Undone events are re-enqueued
    /// for re-execution — except the event matching `annihilate`, which is
    /// dropped (it was cancelled by an anti-message).
    fn rollback(&mut self, kp_idx: usize, bound: EventKey, annihilate: Option<EventId>) {
        let mut target_found = annihilate.is_none();
        let mut undone = 0u64;
        loop {
            // The pop lifts the record's children off the KP's log onto the
            // cancel stack *before* any of them is cancelled. A local
            // cancellation re-enters `rollback` — for another KP, whose own
            // cancellations come back to this one — so while frames nest,
            // every KP's log must end with the children of its newest
            // listed record, and each frame's children sit above `base`.
            let base = self.cancel_stack.len();
            let Some(Undone {
                record: p,
                snapshot,
                audit_hash,
            }) = self.kps[kp_idx].pop_if_at_or_after(bound, &mut self.cancel_stack)
            else {
                break;
            };
            // For the same reason the hops this execution traced are erased
            // first: the tracer's unwind must mirror the pop order exactly.
            self.tracer.unwind(kp_idx, p.n_trace);
            // Cancel everything this execution scheduled.
            obs!(self, ObsKind::RollbackPop, p.id, p.key);
            for i in base..self.cancel_stack.len() {
                self.cancel(self.cancel_stack[i]);
            }
            self.cancel_stack.truncate(base);
            // Undo the execution: restore the pre-event snapshot (state
            // saving) or reverse-execute and un-step the RNG (reverse
            // computation). The payload stays in its arena slot throughout.
            let lp = p.key.dst;
            let li = self.local_lp_idx(lp);
            let t0 = self.profiler.begin(Phase::Reverse);
            if let Some((state, rng)) = snapshot {
                self.slots[li].state = state;
                self.slots[li].rng = rng;
            } else {
                let rctx = ReverseCtx {
                    lp,
                    now: p.key.recv_time,
                    bf: p.bf,
                };
                let slot = &mut self.slots[li];
                let payload = self.arena.get_mut(p.slot);
                self.model.reverse(&mut slot.state, payload, &rctx);
                self.slots[li].rng.reverse_n(u64::from(p.rng_calls));
            }
            self.profiler.end(Phase::Reverse, t0);
            // Auditor: the undo above must land the LP back on the exact
            // fingerprint recorded before this event executed.
            if let Some(expected) = audit_hash {
                let h = self.audit_lp_fingerprint(li, lp);
                if h != expected {
                    self.audit_violation(AuditViolation {
                        pe: self.id,
                        lp: Some(lp),
                        id: Some(p.id),
                        key: Some(p.key),
                        check: AuditCheck::RollbackHash,
                        detail: format!(
                            "rollback restored LP fingerprint {h:#018x}, expected {expected:#018x} \
                             (this execution was not undone exactly)"
                        ),
                    });
                }
            }
            self.stats.events_rolled_back += 1;
            undone += 1;
            self.blame.on_undone();

            // The annihilation target is identified by id, not key — a
            // transient stale twin may share the key and must be requeued,
            // not dropped.
            if annihilate == Some(p.id) {
                obs!(self, ObsKind::Annihilate, p.id, p.key);
                let _ = self.arena.free(p.slot);
                target_found = true;
                break;
            }
            obs!(self, ObsKind::Requeue, p.id, p.key);
            self.blame.on_requeue(p.id);
            if let Some(a) = self.audit.as_mut() {
                a.toggle_sched(p.id, &p.key);
            }
            let t0 = self.profiler.begin(Phase::SchedPush);
            self.queue.push(QueueEntry {
                key: p.key,
                id: p.id,
                slot: p.slot,
            });
            self.profiler.end(Phase::SchedPush, t0);
        }
        // `cancel_local` only rolls back after locating the target, so a
        // miss here is a kernel bug — contained as `RunError::PePanic`.
        assert!(
            target_found,
            "anti-message target {annihilate:?} not found in KP {kp_idx} (lost event?)"
        );
        if undone > 0 {
            self.stats.record_rollback_length(undone);
        }
    }

    /// Route a cancellation to wherever the child lives.
    fn cancel(&mut self, child: ChildRef) {
        let mut viol = None;
        if let Some(a) = self.audit.as_mut() {
            if a.swallow_cancel() {
                // Test-only injected fault (`with_audit_drop_anti`): drop
                // this cancellation entirely; the conservation check must
                // notice the child left in limbo.
                return;
            }
            if let Err(v) = a.on_cancel(self.id, &child) {
                viol = Some(v);
            }
        }
        if let Some(v) = viol {
            self.audit_violation(v);
        }
        self.stats.anti_messages += 1;
        let pe = self.flat.pe_of_lp[child.key.dst as usize];
        obs!(self, ObsKind::AntiSent, child.id, child.key, pe);
        // Children of the rollback currently unwinding link one cascade
        // level deeper, on this PE or across the wire.
        let tag = self.blame.child_tag();
        if pe == self.id {
            // Local cancellation's cost lands in the rollback phases it
            // triggers (Reverse / SchedPush), not here.
            self.cancel_local(child, tag);
        } else {
            self.blame.on_remote_anti();
            let t0 = self.profiler.begin(Phase::AntiSend);
            self.send_remote(pe, Remote::Anti(child, tag));
            self.profiler.end(Phase::AntiSend, t0);
        }
    }

    /// Allocate the next event id from this PE's sequence space, failing
    /// loudly (contained as [`RunError::PePanic`]) instead of wrapping into
    /// id aliasing when the 48-bit space is exhausted.
    #[inline]
    fn alloc_event_id(&mut self) -> EventId {
        #[cold]
        #[inline(never)]
        fn exhausted(pe: PeId, seq: u64) -> ! {
            panic!(
                "PE {pe} exhausted its {}-event id space (seq {seq})",
                EventId::SEQ_LIMIT
            )
        }
        let id = EventId::try_new(self.id, self.next_seq)
            .unwrap_or_else(|| exhausted(self.id, self.next_seq));
        self.next_seq += 1;
        id
    }

    /// The auditor's reverse-replay probe of `entry` on its LP (local index
    /// `li`, see [`audit::probe_reverse`]): the LP's fingerprint, or the
    /// violation.
    fn probe(&mut self, li: usize, entry: &QueueEntry) -> Result<u64, AuditViolation> {
        let slot = &mut self.slots[li];
        let payload = self.arena.get_mut(entry.slot);
        let (state, rng, scratch) = (&mut slot.state, &mut slot.rng, &mut self.probe_buf);
        audit::probe_reverse(self.model, self.id, state, rng, entry, payload, scratch)
    }

    /// Run the model's forward handler for `entry` on its LP (local index
    /// `li`) under a [`Phase::Execute`] scope: emissions land in `emits`,
    /// branch bits in `bf`, traced hops in `hop_buf`.
    #[inline]
    fn run_handler(&mut self, li: usize, entry: &QueueEntry, emits: &mut Vec<Emit<M::Payload>>) {
        let tracing = self.tracer.enabled();
        let t0 = self.profiler.begin(Phase::Execute);
        let slot = &mut self.slots[li];
        let mut ctx = EventCtx {
            lp: entry.key.dst,
            src: entry.key.src,
            now: entry.key.recv_time,
            send_time: entry.key.send_time,
            bf: &mut self.bf,
            rng: &mut slot.rng,
            out: emits,
            obs: Some(&mut self.recorder),
            trace: tracing.then_some(&mut self.hop_buf),
        };
        let payload = self.arena.get_mut(entry.slot);
        self.model.handle(&mut slot.state, payload, &mut ctx);
        self.profiler.end(Phase::Execute, t0);
    }

    /// Forward-execute one event and record it for possible rollback. The
    /// payload is borrowed in place from the arena — executing moves no
    /// model bytes. Fails only on arena exhaustion while landing children.
    fn execute(&mut self, entry: QueueEntry) -> Result<(), Halt> {
        let lp = entry.key.dst;
        let kp_idx = self.local_kp_idx(lp);
        debug_assert!(
            self.kps[kp_idx].last_key().is_none_or(|k| k <= entry.key),
            "executing into a KP's past without rollback: kp_idx={kp_idx} last={:?} ev={:?} id={:?}",
            self.kps[kp_idx].last_key(),
            entry.key,
            entry.id,
        );
        let li = self.local_lp_idx(lp);

        // Auditor: fingerprint the LP before execution. Under reverse
        // computation also replay handle+reverse once to prove exact
        // inversion *before* the real execution commits to anything —
        // unless the probe is disabled (`PDES_AUDIT=fast`).
        let audit_hash = if self.audit.is_none() {
            None
        } else if self.snapshot_fn.is_none() && self.config.audit_probe {
            // A failed probe fails the run; this PE halts at the end of the
            // batch, before the placeholder hash could ever be compared.
            self.probe(li, &entry).map_or_else(
                |v| {
                    self.audit_violation(v);
                    Some(0)
                },
                Some,
            )
        } else {
            Some(self.audit_lp_fingerprint(li, lp))
        };

        self.bf.clear();
        let mut emits = std::mem::take(&mut self.emit_buf);
        debug_assert!(emits.is_empty());

        let snapshot = self
            .snapshot_fn
            .map(|f| f(&self.slots[li].state, &self.slots[li].rng));
        let rng_before = self.slots[li].rng.call_count();
        self.run_handler(li, &entry, &mut emits);
        let rng_calls = u32::try_from(self.slots[li].rng.call_count() - rng_before)
            .expect("one handler call made 2^32 RNG draws");

        // The children stay in this PE-owned buffer until the event is
        // recorded below; `execute` itself is never re-entered. (Taken as a
        // local like `emits`: pushing through `self` across the dispatch
        // calls measured a few percent slower.)
        let mut children = std::mem::take(&mut self.child_buf);
        debug_assert!(children.is_empty());
        let mut halted = Ok(());
        for emit in emits.drain(..) {
            if halted.is_err() {
                break;
            }
            let id = self.alloc_event_id();
            let key = EventKey {
                recv_time: emit.recv_time,
                dst: emit.dst,
                tie: emit.tie,
                src: lp,
                send_time: entry.key.recv_time,
            };
            let child = ChildRef { id, key };
            children.push(child);
            if let Some(a) = self.audit.as_mut() {
                // Registered before dispatch: enqueueing can recurse into a
                // rollback whose cancellations must find their targets
                // outstanding.
                a.on_send(&child, lp);
            }
            obs!(self, ObsKind::Emit, id, key, emit.dst);
            let pe = self.flat.pe_of_lp[emit.dst as usize];
            if pe == self.id {
                match self.insert_arena(emit.payload) {
                    Ok(slot) => self.enqueue_positive(QueueEntry { key, id, slot }),
                    Err(h) => halted = Err(h),
                }
            } else {
                self.stats.remote_events += 1;
                self.send_remote(
                    pe,
                    Remote::Positive(Event {
                        id,
                        key,
                        payload: emit.payload,
                    }),
                );
            }
        }
        self.emit_buf = emits;

        // Stamp the traced hops only now: enqueueing children above can
        // recurse into a rollback of this very KP (via a secondary
        // cancellation), and the tracer's deque must contain exactly the
        // hops of *recorded* processed events when that unwind runs.
        let n_trace = self
            .tracer
            .record_exec(kp_idx, &entry.key, &mut self.hop_buf);
        self.kps[kp_idx].record(
            Processed {
                key: entry.key,
                id: entry.id,
                slot: entry.slot,
                bf: self.bf,
                rng_calls,
                n_children: 0, // counted by `record`
                n_trace,
            },
            &children,
            snapshot,
            audit_hash,
        );
        children.clear();
        self.child_buf = children;
        self.stats.events_processed += 1;
        // One emptiness check on the rollback-free hot path; counts the
        // re-execution if a cascade previously undid this event.
        self.blame.on_execute(entry.id);
        self.since_gvt += 1;
        halted?;
        self.crash_if_due();
        Ok(())
    }

    /// Crash injection: a real panic on the chosen PE, contained by the same
    /// `catch_unwind` as any model panic — so supervised recovery is
    /// exercised through the production failure path, not a simulation of
    /// it. Checked on the plan directly (not `FaultState`): a kill-only plan
    /// injects no message chaos.
    fn crash_if_due(&self) {
        if let Some(plan) = self.config.fault_plan.as_ref() {
            if plan.kill_pe == Some(self.id as u32)
                && plan.kill_after > 0
                && self.stats.events_processed >= plan.kill_after
            {
                panic!(
                    "injected PE kill: PE {} crashed after {} processed events",
                    self.id, self.stats.events_processed
                );
            }
        }
    }

    /// One barriered GVT round, in lockstep on every PE: quiesce with each
    /// PE's queue head as its report, take the min, run the per-round tail.
    /// Returns the new GVT, or `Err` if the run was aborted (peer failure,
    /// stalled GVT, expired deadline).
    fn gvt_round(&mut self) -> Result<u64, Halt> {
        self.quiesce(true)?;
        // Quiescent: no messages in flight (or held by the fault layer),
        // nobody executing. Every duplicate delivery has been absorbed and
        // every early anti-message must have met its positive by now.
        self.seen_pos.clear();
        self.seen_anti.clear();
        assert!(
            self.early_antis.is_empty(),
            "PE {}: {} anti-message(s) never met their positives (lost events?): {:?}",
            self.id,
            self.early_antis.len(),
            self.early_antis.keys().take(8).collect::<Vec<_>>(),
        );
        let t0 = self.profiler.begin(Phase::GvtReduce);
        let gvt = self.shared.gvt.min_report();
        if self.id == 0 {
            self.shared.gvt.publish(gvt);
            self.lead_close(gvt)?;
        }
        self.profiler.end(Phase::GvtReduce, t0);
        self.end_round(gvt)?;
        self.bwait()?; // B4: flag cleared, fossils reclaimed, round sampled.
        self.progress_line(gvt);
        Ok(gvt)
    }

    /// Bring the whole machine to quiescence, in lockstep on every PE: no
    /// message left in a send buffer, a ring or the fault layer's hold-back.
    /// Serves the GVT round and the checkpoint capture. With `report`, each
    /// PE publishes its queue head as its GVT report in the agreeing pass
    /// ([`GvtRound::agree`]).
    fn quiesce(&mut self, report: bool) -> Result<(), Halt> {
        self.bwait()?; // B1: nobody executes or unwinds any more.
        loop {
            // Settle phase — no barriers. Draining verbatim (chaos off, so
            // fault-held messages are delivered too and GVT can never pass a
            // delayed message) can roll back and buffer new messages, each
            // already counted in `sent`: the machine cannot read as
            // quiescent while any message sits unflushed or un-drained.
            // Flush and drain while the global counters move, so
            // cancellation cascades cross PEs through yields instead of two
            // barrier crossings per hop; stop at the first poll where they
            // did not move. A message still in flight then waits for a PE
            // parked at B2, which only another pass can release.
            let mut last = None;
            loop {
                self.flush_out_bufs();
                self.drain_inbox(false)?;
                let now = self.shared.gvt.counters();
                if now.0 == now.1 {
                    break;
                }
                if self.shared.barrier.is_aborted() {
                    return Err(Halt);
                }
                if last == Some(now) {
                    break;
                }
                last = Some(now);
                std::thread::yield_now();
            }
            // This PE's pending queue only changes again after the pass, so
            // its head is final for the round if the pass finds it quiet.
            let head = report.then(|| self.queue_min());
            let shared = self.shared;
            if shared.gvt.agree(self.id, head, || self.bwait())? {
                return Ok(());
            }
        }
    }

    /// PE 0's half of closing a GVT round: withdraw the round request and,
    /// while work remains, run the liveness watchdog.
    fn lead_close(&mut self, gvt: u64) -> Result<(), Halt> {
        self.shared.gvt.set_requested(false);
        if gvt < self.config.end_time.0 {
            self.watchdog(gvt)?;
        }
        Ok(())
    }

    /// Every PE's per-round maintenance once a round's GVT is known: commit
    /// and fossil-collect below `gvt`, audit the scheduler, checkpoint if
    /// this round is a boundary, sample telemetry, and restart the
    /// round-trigger counters.
    fn end_round(&mut self, gvt: u64) -> Result<(), Halt> {
        // The head this PE reported: nothing has run since the round's pass.
        let lvt = self.queue_min();
        self.stats.gvt_rounds += 1;
        self.round += 1;
        let t0 = self.profiler.begin(Phase::Fossil);
        self.fossil_collect(VirtualTime(gvt));
        self.profiler.end(Phase::Fossil, t0);
        self.audit_scheduler()?;
        // Checkpoint boundary (all PEs agree, see `ckpt::due`).
        if ckpt::due(self.config, self.round, gvt, self.last_ckpt_gvt) {
            self.checkpoint_round(gvt)?;
        }
        self.sample_round(gvt, lvt);
        self.since_gvt = 0;
        self.idle_polls = 0;
        Ok(())
    }

    /// Auditor: the scheduler's recomputed content fingerprint must match
    /// the kernel's push/pop/remove mirror, and its structural invariants
    /// must hold.
    fn audit_scheduler(&mut self) -> Result<(), Halt> {
        let sched_check = self.audit.as_ref().map(|a| {
            a.check_scheduler(
                self.id,
                self.queue.audit_digest(),
                self.queue.check_invariants(),
            )
        });
        self.audit_gate(sched_check)
    }

    /// Capture one snapshot of the committed machine state at `gvt`, in
    /// lockstep on every PE.
    ///
    /// Fossil collection has just removed every processed event strictly
    /// below GVT, so rolling every KP back to the GVT *horizon key* (the
    /// smallest [`EventKey`] at `gvt`) undoes exactly the speculative
    /// suffix: undone local events return to the pending queue and
    /// anti-messages chase every remote child. Each anti's target is
    /// necessarily *pending* on its destination (the destination rolled back
    /// to the same horizon before the first barrier, and a child of an
    /// undone event always has key ≥ horizon), so annihilation never creates
    /// new messages and the settle loop converges. The result is the
    /// *sequential frame*: every PE's queue holds exactly its slice of the
    /// global frontier — independent of PE count, scheduler, or timing —
    /// which is what makes snapshots portable across kernels and PE counts.
    fn checkpoint_round(&mut self, gvt: u64) -> Result<(), Halt> {
        let horizon = EventKey {
            recv_time: VirtualTime(gvt),
            dst: 0,
            tie: 0,
            src: 0,
            send_time: VirtualTime::ZERO,
        };
        for ki in 0..self.kps.len() {
            if let Some(k) = self.kps[ki].last_key() {
                if k >= horizon {
                    // Kernel-initiated cascade: blamed on no LP, but priced
                    // in the ledger like any other unwind.
                    self.blame
                        .begin_capture(self.flat.kp_of_lp[k.dst as usize], gvt);
                    self.rollback(ki, horizon, None);
                    self.blame.end();
                }
            }
        }
        // Settle the cancellation cascade until globally quiescent again.
        self.quiesce(false)?;
        assert!(
            self.early_antis.is_empty(),
            "PE {}: capture rollback left {} unmatched anti-message(s)",
            self.id,
            self.early_antis.len(),
        );

        let lps = self.my_lps.iter().zip(&self.slots);
        let lps = lps.map(|(&lp, slot)| (lp, &slot.state, &slot.rng));
        let queue = self.queue.as_mut();
        match ckpt::capture_part(self.model, lps, queue, &self.arena, &self.stats) {
            Ok(part) => lock(&self.shared.ckpt_parts)[self.id] = Some(part),
            Err(e) => {
                self.shared.fail(e.into());
                return Err(Halt);
            }
        }
        self.bwait()?; // C1: every PE's part deposited.

        if self.id == 0 {
            let parts: Vec<CkptPart> = lock(&self.shared.ckpt_parts)
                .iter_mut()
                .map(|slot| slot.take().expect("every PE deposited a capture part"))
                .collect();
            if let Err(e) = ckpt::write_frame(
                self.config,
                gvt,
                self.round,
                parts,
                &mut self.ckpt_writes,
                &mut self.stats,
                &mut self.recorder,
            ) {
                self.shared.fail(e.into());
                return Err(Halt);
            }
        }
        self.bwait()?; // C2: snapshot durable (or the failure aborted us all).
        self.last_ckpt_gvt = gvt;
        Ok(())
    }

    /// Per-round observability hook, the last step of
    /// [`end_round`](Self::end_round): record the GVT advance in the flight
    /// recorder, publish progress deltas, and sample this PE's
    /// [`RoundSnapshot`] into the bounded series and the configured sink.
    /// `lvt` is the minimum this PE reported for the round (`u64::MAX` =
    /// idle).
    fn sample_round(&mut self, gvt: u64, lvt: u64) {
        if self.recorder.enabled() {
            self.recorder
                .record(ObsRecord::kernel(ObsKind::GvtAdvance, gvt));
        }
        if self.config.obs.progress_every.is_some() {
            let (c, p, r) = self.progress_published;
            // ORDER: SeqCst (×3) — progress-line totals, read only by PE 0
            // for a human-facing stderr line; cold path, simplicity wins.
            self.shared
                .committed
                .fetch_add(self.stats.events_committed - c, SeqCst);
            self.shared
                .processed
                .fetch_add(self.stats.events_processed - p, SeqCst);
            self.shared
                .rolled_back
                .fetch_add(self.stats.events_rolled_back - r, SeqCst);
            self.progress_published = (
                self.stats.events_committed,
                self.stats.events_processed,
                self.stats.events_rolled_back,
            );
        }
        if self.config.obs.series_capacity == 0 && self.config.obs.sink.is_none() {
            return;
        }
        let (cascades, cascade_undone, cascade_reexec) = self.blame.round_counters();
        let snap = RoundSnapshot {
            round: self.round,
            pe: self.id,
            wall_us: self.start_time.elapsed().as_micros() as u64,
            gvt,
            lvt,
            queue_depth: self.queue.len() as u64,
            uncommitted: self.kps.iter().map(|kp| kp.uncommitted() as u64).sum(),
            inbox_depth: self.shared.fabric.inbox_depth(self.id),
            ring_full_stalls: self.stats.ring_full_stalls,
            events_committed: self.stats.events_committed,
            events_processed: self.stats.events_processed,
            events_rolled_back: self.stats.events_rolled_back,
            rollbacks: self.stats.total_rollbacks(),
            pool_hits: self.msg_pool.hits,
            pool_misses: self.msg_pool.misses,
            phase_ns: self.profiler.cumulative_ns(),
            checkpoints_written: self.stats.checkpoints_written,
            checkpoint_bytes: self.stats.checkpoint_bytes,
            cascades,
            cascade_undone,
            cascade_reexec,
        };
        lifecycle::emit_round(self.config, &mut self.series, snap);
    }

    /// Stderr progress report, printed by PE 0 every
    /// [`progress_every`](crate::obs::ObsConfig::progress_every) rounds.
    /// A round prints after its closing barrier, so every PE's deltas for
    /// the round are in the shared totals.
    fn progress_line(&self, gvt: u64) {
        let Some(every) = self.config.obs.progress_every else {
            return;
        };
        if self.id != 0 || !self.round.is_multiple_of(every) {
            return;
        }
        // ORDER: SeqCst (×3) — progress-line totals; see the publication
        // side in `sample_round`.
        let committed = self.shared.committed.load(SeqCst);
        let processed = self.shared.processed.load(SeqCst);
        let rolled = self.shared.rolled_back.load(SeqCst);
        let secs = self.start_time.elapsed().as_secs_f64();
        let rate = if secs > 0.0 {
            committed as f64 / secs
        } else {
            0.0
        };
        let ratio = if processed > 0 {
            rolled as f64 / processed as f64
        } else {
            0.0
        };
        eprintln!(
            "[pdes] round {:>6}  gvt {:>14}  committed {:>12} ({rate:.0} ev/s)  \
             rollback ratio {ratio:.3}",
            self.stats.gvt_rounds, gvt, committed
        );
    }

    /// GVT liveness watchdog, run by PE 0 while work remains: trip if GVT
    /// has not advanced for the configured number of rounds, or if the
    /// wall-clock deadline expired. Tripping records the failure and aborts
    /// the barrier, so every other PE unwinds at its next wait.
    fn watchdog(&mut self, gvt: u64) -> Result<(), Halt> {
        if gvt == self.prev_gvt {
            self.stall_rounds += 1;
        } else {
            self.prev_gvt = gvt;
            self.stall_rounds = 0;
        }
        if let Some(limit) = self.config.gvt_stall_rounds {
            if self.stall_rounds >= limit {
                self.shared.fail(FailureCause::Stalled {
                    gvt,
                    rounds: self.stall_rounds,
                    elapsed: Duration::ZERO,
                });
                return Err(Halt);
            }
        }
        self.check_deadline(gvt)
    }

    /// The wall-clock half of the watchdog: trip once the configured
    /// [`deadline`](crate::config::EngineConfig::deadline) has expired.
    fn check_deadline(&self, gvt: u64) -> Result<(), Halt> {
        if let Some(deadline) = self.config.deadline {
            let elapsed = self.start_time.elapsed();
            if elapsed >= deadline {
                self.shared.fail(FailureCause::Stalled {
                    gvt,
                    rounds: self.stall_rounds,
                    elapsed,
                });
                return Err(Halt);
            }
        }
        Ok(())
    }

    /// Commit and reclaim all processed events older than `horizon`, per KP
    /// and in place: each committed record is read where it lies on the KP's
    /// list, its arena slot joins a run freed in one batch, and the KP then
    /// drops the whole committed prefix (records and side logs) at once.
    fn fossil_collect(&mut self, horizon: VirtualTime) {
        let mut slots = std::mem::take(&mut self.fossil_slots);
        for ki in 0..self.kps.len() {
            debug_assert!(slots.is_empty());
            let committed_children = self.kps[ki].fossil_collect(horizon, |p| {
                obs!(self, ObsKind::Fossil, p.id, p.key);
                self.model
                    .commit(self.arena.get(p.slot), p.key.dst, p.key.recv_time);
                slots.push(p.slot);
                // Fossil collection walks oldest-first, mirroring the
                // tracer's per-KP deque: publish this event's hops to the
                // committed lineage.
                self.tracer.commit(ki, p.n_trace);
                self.stats.events_committed += 1;
                self.stats.fossils_collected += 1;
            });
            // Auditor: committing an event commits its children; each must
            // still be outstanding (never cancelled).
            let viol = self.audit.as_mut().and_then(|a| {
                committed_children
                    .into_iter()
                    .find_map(|child| a.on_commit_child(self.id, &child).err())
            });
            if let Some(v) = viol {
                self.audit_violation(v);
            }
            self.arena.free_batch(&mut slots);
        }
        self.fossil_slots = slots;
    }

    /// End-of-run statistics collection over this PE's LPs.
    fn output(&self) -> M::Output {
        let mut out = M::Output::default();
        for (i, &lp) in self.my_lps.iter().enumerate() {
            self.model.finish(lp, &self.slots[i].state, &mut out);
        }
        out
    }

    /// Snapshot this PE's state for failure diagnostics (inbox depth is
    /// filled in post-join, from the shared side). Also folds the buffer
    /// pools' hit/miss counters into the stats — this runs on both the
    /// success and failure paths, so the counters reach the merged totals.
    fn diagnostics(&mut self) -> PeDiagnostics {
        self.stats.pool_hits = self.msg_pool.hits;
        self.stats.pool_misses = self.msg_pool.misses;
        self.stats.arena_peak_slots = self.arena.peak() as u64;
        self.stats.prof = self.profiler.profile().clone();
        self.stats.blame = self.blame.seal();
        PeDiagnostics {
            uncommitted: self.kps.iter().map(Kp::uncommitted).sum(),
            held_faults: self.faults.as_ref().map_or(0, |f| f.held()),
            deferred_antis: self.early_antis.len(),
            ..PeDiagnostics::capture(self.id, self.queue.len(), &self.stats, &self.recorder)
        }
    }
}

/// What one PE thread leaves behind: its diagnostics snapshot and telemetry
/// series always, its model output only on success.
struct PeReport<O> {
    diag: PeDiagnostics,
    output: Option<O>,
    series: RoundSeries,
    trace: PacketTrace,
    /// GVT rounds this PE completed (PE 0's closes the run's heartbeat).
    round: u64,
}

/// `Run::new(model, config).mapping(mapping).go()`, kept only because the
/// `benchmark/` package imports it; removed with the next benchmark change.
pub fn run_parallel_mapped<M: Model>(
    model: &M,
    config: &EngineConfig,
    mapping: &dyn Mapping,
) -> Result<RunResult<M::Output>, RunError> {
    crate::Run::new(model, config).mapping(mapping).go()
}

/// The optimistic kernel: `config` validated and instrumented by
/// [`Run::go`](crate::Run::go), `mapping` checked against the model here.
pub(crate) fn run_parallel_inner<M: Model>(
    model: &M,
    config: &EngineConfig,
    mapping: &dyn Mapping,
    snapshot_fn: SnapshotFn<M>,
    resume: Option<BootFrame<M>>,
) -> Result<RunResult<M::Output>, RunError> {
    let n_lps = model.n_lps();
    if mapping.n_lps() != n_lps {
        return Err(RunError::config(format!(
            "mapping/model LP count mismatch: mapping has {}, model has {n_lps}",
            mapping.n_lps()
        )));
    }
    let flat = FlatMapping::from_mapping(mapping);
    let n_pes = flat.n_pes;
    if n_pes >= EventId::PE_LIMIT {
        // `config.validate()` already bounds `config.n_pes`; this re-checks
        // the count an explicit mapping actually derived.
        return Err(RunError::config(format!(
            "PE count {n_pes} exceeds EventId space"
        )));
    }

    // ---- Sequential setup phase (like ROSS's startup function). ----
    // Every PE's share of the boot events, under fresh ids from a dedicated
    // id space (origin pe = n_pes). The payloads enter the PE's arena on its
    // own thread (the arena is thread-local).
    let mut inits: Vec<Vec<Event<M::Payload>>> = (0..n_pes).map(|_| Vec::new()).collect();
    let mut init_seq: u64 = 0;
    let resumed = resume.is_some();
    let frame = lifecycle::boot(model, config, resume, |key, payload| {
        let id = EventId::new(n_pes, init_seq);
        init_seq += 1;
        inits[flat.pe_of_lp[key.dst as usize]].push(Event { id, key, payload });
    });
    let mut lps: Vec<Option<LpSlot<M>>> = frame
        .lps
        .into_iter()
        .map(|(_, state, rng)| Some(LpSlot { state, rng }))
        .collect();

    // Partition LPs, KPs, states and init events among PEs.
    let mut lp_local = vec![u32::MAX; n_lps as usize];
    let mut kp_local = vec![u32::MAX; flat.n_kps as usize];
    let per_pe_lps: Vec<Vec<LpId>> = (0..n_pes).map(|pe| flat.lps_of_pe(pe)).collect();
    let per_pe_kps: Vec<Vec<KpId>> = (0..n_pes).map(|pe| flat.kps_of_pe(pe)).collect();
    for lps in &per_pe_lps {
        for (i, &lp) in lps.iter().enumerate() {
            lp_local[lp as usize] = i as u32;
        }
    }
    for kps in &per_pe_kps {
        for (i, &kp) in kps.iter().enumerate() {
            kp_local[kp as usize] = i as u32;
        }
    }

    let shared = Shared::<M::Payload> {
        fabric: CommFabric::new(n_pes),
        gvt: GvtRound::new(n_pes, frame.gvt),
        window: window::WindowSync::new(n_pes),
        barrier: AbortableBarrier::new(n_pes),
        failure: Mutex::new(None),
        committed: AtomicU64::new(0),
        processed: AtomicU64::new(0),
        rolled_back: AtomicU64::new(0),
        ckpt_parts: Mutex::new((0..n_pes).map(|_| None).collect()),
    };

    // Deal every PE its LPs and its boot events.
    let deal = |(my_lps, init): (Vec<LpId>, Vec<Event<M::Payload>>)| {
        let slots: Vec<LpSlot<M>> = my_lps
            .iter()
            .map(|&lp| lps[lp as usize].take().expect("LP owned twice"))
            .collect();
        (my_lps, slots, init, config.scheduler.build())
    };
    let seeds: Vec<_> = per_pe_lps.into_iter().zip(inits).map(deal).collect();

    // ---- Parallel phase. ----
    let start = Instant::now();
    let arena_capacity = config
        .arena_slots
        .unwrap_or(EventArena::<M::Payload>::DEFAULT_SLOTS);
    // A PE that dies outside its own panic containment reports nothing
    // (`None`, surfaced as `WorkerLost`) instead of panicking the join.
    let mut reports: Vec<Option<PeReport<M::Output>>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_pes);
        for (pe, (my_lps, slots, init, queue)) in seeds.into_iter().enumerate() {
            let (shared, flat, base_stats) = (&shared, &flat, &frame.base_stats);
            let (lp_local, kp_local) = (&lp_local, &kp_local);
            let n_kps = per_pe_kps[pe].len();
            handles.push(scope.spawn(move || {
                // The snapshot's accumulated counters ride on PE 0, so the
                // end-of-run merge describes the whole logical run.
                let stats = if pe == 0 {
                    base_stats.clone()
                } else {
                    EngineStats::default()
                };
                let mut rt = PeRuntime {
                    id: pe,
                    model,
                    config,
                    flat,
                    lp_local,
                    kp_local,
                    shared,
                    slots,
                    my_lps,
                    kps: (0..n_kps).map(|_| Kp::new()).collect(),
                    queue,
                    arena: EventArena::new(arena_capacity),
                    next_seq: 0,
                    emit_buf: Vec::new(),
                    bf: Bitfield::default(),
                    since_gvt: 0,
                    idle_polls: 0,
                    recorder: config.obs.build_recorder(),
                    series: config.obs.build_series(),
                    progress_published: (0, 0, 0),
                    snapshot_fn,
                    faults: config
                        .fault_plan
                        .and_then(|plan| (!plan.is_noop()).then(|| FaultState::new(plan, pe))),
                    out_bufs: (0..n_pes).map(|_| Vec::new()).collect(),
                    comm_flush: config.comm_batch.unwrap_or(usize::MAX),
                    msg_pool: VecPool::new(),
                    child_buf: Vec::new(),
                    cancel_stack: Vec::new(),
                    pending_buf: Vec::new(),
                    batch_bufs: Vec::new(),
                    fossil_slots: Vec::new(),
                    stats,
                    send_min: u64::MAX,
                    audit: config
                        .audit
                        .then(|| AuditState::new(config.audit_drop_anti)),
                    probe_buf: Vec::new(),
                    seen_pos: FastSet::default(),
                    seen_anti: FastSet::default(),
                    early_antis: FastMap::default(),
                    start_time: start,
                    prev_gvt: u64::MAX,
                    stall_rounds: 0,
                    round: frame.round,
                    last_ckpt_gvt: frame.gvt,
                    ckpt_writes: 0,
                    profiler: config.obs.build_profiler(),
                    tracer: config.obs.build_tracer(n_kps),
                    hop_buf: Vec::new(),
                    blame: config.obs.build_blame(pe),
                };
                if pe == 0 && resumed && rt.recorder.enabled() {
                    rt.recorder
                        .record(ObsRecord::kernel(ObsKind::Recovery, frame.round));
                }
                // Contain panics from model handlers and kernel invariants:
                // record the failure, abort the barrier so every sibling
                // unwinds, and still report diagnostics for this PE.
                let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<M::Output, Halt> {
                    // Land the boot events in this PE's arena and queue.
                    for ev in init {
                        let slot = rt.insert_arena(ev.payload)?;
                        if let Some(a) = rt.audit.as_mut() {
                            a.toggle_sched(ev.id, &ev.key);
                        }
                        rt.queue.push(QueueEntry {
                            key: ev.key,
                            id: ev.id,
                            slot,
                        });
                    }
                    rt.run()?;
                    Ok(rt.output())
                }));
                let output = match outcome {
                    Ok(Ok(out)) => Some(out),
                    Ok(Err(Halt)) => None,
                    Err(payload) => {
                        shared.fail(FailureCause::Panic {
                            pe,
                            payload: decode_payload(payload),
                        });
                        None
                    }
                };
                PeReport {
                    diag: rt.diagnostics(),
                    trace: std::mem::replace(&mut rt.tracer, PacketTracer::new(0, 0))
                        .finish(output.is_some()),
                    output,
                    series: std::mem::replace(&mut rt.series, RoundSeries::new(0)),
                    round: rt.round,
                }
            }));
        }
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    let wall = start.elapsed();

    for (pe, report) in reports.iter_mut().enumerate() {
        if let Some(report) = report {
            report.diag.inbox_depth = shared.fabric.inbox_depth(pe) as usize;
        }
    }
    let round = match reports.first() {
        Some(Some(pe0)) => pe0.round,
        _ => frame.round,
    };
    let gvt = shared.gvt.read();
    let reported = reports.iter().flatten();
    let committed = reported.map(|r| r.diag.stats.events_committed).sum();

    let outcome = if let Some(cause) = lock(&shared.failure).take() {
        let pes = reports.into_iter().enumerate().map(|(pe, report)| {
            let lost = PeDiagnostics {
                pe,
                ..Default::default()
            };
            report.map_or(lost, |r| r.diag)
        });
        let (sent, received) = shared.gvt.counters();
        Err(cause.into_error(RunDiagnostics {
            gvt,
            sent,
            received,
            pes: pes.collect(),
        }))
    } else {
        // Merge per-PE results in PE order (model outputs must merge
        // commutatively for kernel-equality; see `Merge` docs).
        let mut result = RunResult {
            output: M::Output::default(),
            stats: EngineStats::default(),
            telemetry: Telemetry::default(),
        };
        let mut lost = None;
        for (pe, report) in reports.into_iter().enumerate() {
            match report {
                Some(PeReport {
                    diag,
                    output: Some(out),
                    series,
                    trace,
                    ..
                }) => {
                    result.stats.merge(&diag.stats);
                    result.telemetry.absorb(series, diag.recorder);
                    result.telemetry.absorb_trace(trace);
                    result.output.merge(out);
                }
                _ => lost = lost.or(Some(pe)),
            }
        }
        match lost {
            None => Ok(result),
            Some(pe) => Err(RunError::WorkerLost { pe }),
        }
    };
    lifecycle::teardown(config, wall, round, gvt, committed, outcome)
}
