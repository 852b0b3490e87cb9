//! The model interface: what a simulation application implements.
//!
//! This is the Rust equivalent of a ROSS application's LP type: an init
//! function, a forward event handler, a **reverse** event handler (reverse
//! computation), an optional commit hook, and a statistics-collection
//! function executed per LP when the simulation finishes (the "visitor
//! functor" of the paper, Section 3.1.5).
//!
//! Contract the kernels rely on:
//!
//! * `handle` followed by `reverse` on the same `(state, payload)` pair must
//!   restore `state` exactly (payload may keep saved fields — they are
//!   overwritten on re-execution).
//! * All randomness inside `handle` must come from the context's reversible
//!   RNG; the kernel counts draws and un-steps them automatically on
//!   rollback, so `reverse` only restores model state.
//! * Every scheduled event must have a strictly positive delay.
//! * No two simultaneously pending events may share an identical
//!   [`EventKey`](crate::event::EventKey) — supply a discriminating `tie`
//!   (e.g. a unique packet id) when scheduling.

use crate::event::{Bitfield, EventId, EventKey, LpId};
use crate::obs::trace::HopEmit;
use crate::obs::{FlightRecorder, ObsKind, ObsRecord};
use crate::rng::Clcg4;
use crate::time::VirtualTime;

/// An event emission requested by a handler; the kernel assigns ids and
/// routes it after the handler returns.
#[derive(Clone, Debug)]
pub struct Emit<P> {
    /// Destination LP.
    pub dst: LpId,
    /// Absolute receive time.
    pub recv_time: VirtualTime,
    /// Tie-break value (see module docs).
    pub tie: u64,
    /// Model payload.
    pub payload: P,
}

/// Context passed to [`Model::handle`].
pub struct EventCtx<'a, P> {
    pub(crate) lp: LpId,
    pub(crate) src: LpId,
    pub(crate) now: VirtualTime,
    pub(crate) send_time: VirtualTime,
    pub(crate) bf: &'a mut Bitfield,
    pub(crate) rng: &'a mut Clcg4,
    pub(crate) out: &'a mut Vec<Emit<P>>,
    /// The executing kernel's flight recorder (`None` in synthetic test
    /// contexts), target of [`note`](Self::note).
    pub(crate) obs: Option<&'a mut FlightRecorder>,
    /// The kernel's per-event hop buffer (`None` when packet tracing is
    /// off), target of [`trace_hop`](Self::trace_hop).
    pub(crate) trace: Option<&'a mut Vec<HopEmit>>,
}

impl<'a, P> EventCtx<'a, P> {
    /// The LP executing this event.
    #[inline]
    pub fn lp(&self) -> LpId {
        self.lp
    }

    /// The LP that scheduled this event.
    #[inline]
    pub fn src(&self) -> LpId {
        self.src
    }

    /// Current virtual time (the event's receive time).
    #[inline]
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// When this event was scheduled.
    #[inline]
    pub fn send_time(&self) -> VirtualTime {
        self.send_time
    }

    /// The per-event bitfield (ROSS `tw_bf`): record branch decisions here
    /// for the reverse handler.
    #[inline]
    pub fn bf(&mut self) -> &mut Bitfield {
        self.bf
    }

    /// The executing LP's reversible RNG stream. Draws are counted and
    /// automatically reversed if this event rolls back.
    #[inline]
    pub fn rng(&mut self) -> &mut Clcg4 {
        self.rng
    }

    /// Schedule an event `delay` ticks in the future at LP `dst`.
    ///
    /// `delay` must be ≥ 1 tick so a child can never tie with its parent.
    #[inline]
    pub fn schedule(&mut self, dst: LpId, delay: u64, tie: u64, payload: P) {
        assert!(delay >= 1, "schedule: zero-delay events are not allowed");
        self.out.push(Emit {
            dst,
            recv_time: self.now + delay,
            tie,
            payload,
        });
    }

    /// Schedule an event to this LP itself.
    #[inline]
    pub fn schedule_self(&mut self, delay: u64, tie: u64, payload: P) {
        let lp = self.lp;
        self.schedule(lp, delay, tie, payload);
    }

    /// Drop a model-level note into the kernel's flight recorder
    /// ([`ObsKind::ModelNote`]): `code` is a model-defined event code (carried in the record's
    /// `key.tie`) and `arg` a model-defined value. The record captures the
    /// executing LP and current virtual time.
    ///
    /// Notes share the recorder's flight-recorder semantics: they are
    /// written at *execution* time, so a note from a speculated execution
    /// stays in the ring even if the execution later rolls back (no
    /// compensation) — they answer "what did the machine do", not "what was
    /// committed". No-op when the recorder is disabled or the context is
    /// [`synthetic`](Self::synthetic).
    #[inline]
    pub fn note(&mut self, code: u64, arg: u64) {
        if let Some(rec) = self.obs.as_deref_mut() {
            if rec.enabled() {
                let key = EventKey {
                    recv_time: self.now,
                    dst: self.lp,
                    tie: code,
                    src: self.src,
                    send_time: self.send_time,
                };
                rec.record(ObsRecord::event(ObsKind::ModelNote, EventId(0), key, arg));
            }
        }
    }

    /// Is per-packet causal tracing on for this execution? Lets a model skip
    /// argument packing when no one is listening.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Record one causal hop for `packet` — a model-defined lineage point
    /// (hotpotato: inject / route / absorb). Unlike [`note`](Self::note),
    /// hops follow the *committed* history: the kernel buffers them with the
    /// executing event, erases them if it rolls back, and publishes them
    /// only at fossil collection, so the committed lineage is bit-identical
    /// between sequential and parallel runs. No-op when tracing is off or
    /// the context is [`synthetic`](Self::synthetic).
    #[inline]
    pub fn trace_hop(&mut self, kind: u8, packet: u64, arg: u64) {
        if let Some(buf) = self.trace.as_deref_mut() {
            buf.push(HopEmit { kind, packet, arg });
        }
    }

    /// Build a context directly — for unit-testing model handlers outside a
    /// kernel. Emissions are appended to `out`; the caller plays kernel and
    /// is responsible for reversing `rng` by the number of draws made if it
    /// wants to test reverse computation. [`note`](Self::note) calls are
    /// discarded (no recorder attached).
    pub fn synthetic(
        lp: LpId,
        src: LpId,
        now: VirtualTime,
        bf: &'a mut Bitfield,
        rng: &'a mut Clcg4,
        out: &'a mut Vec<Emit<P>>,
    ) -> Self {
        EventCtx {
            lp,
            src,
            now,
            send_time: VirtualTime::ZERO,
            bf,
            rng,
            out,
            obs: None,
            trace: None,
        }
    }
}

/// Context passed to [`Model::reverse`]: read-only view of what the forward
/// execution recorded.
pub struct ReverseCtx {
    pub(crate) lp: LpId,
    pub(crate) now: VirtualTime,
    pub(crate) bf: Bitfield,
}

impl ReverseCtx {
    /// The LP whose state is being rolled back.
    #[inline]
    pub fn lp(&self) -> LpId {
        self.lp
    }

    /// The receive time of the event being undone.
    #[inline]
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// The bitfield as the forward handler left it.
    #[inline]
    pub fn bf(&self) -> Bitfield {
        self.bf
    }

    /// Build a reverse context directly — for unit-testing reverse handlers
    /// outside a kernel.
    pub fn synthetic(lp: LpId, now: VirtualTime, bf: Bitfield) -> Self {
        ReverseCtx { lp, now, bf }
    }
}

/// Context passed to [`Model::init`]: schedule the LP's bootstrap events and
/// draw pre-simulation randomness (never rolled back).
pub struct InitCtx<'a, P> {
    pub(crate) lp: LpId,
    pub(crate) rng: &'a mut Clcg4,
    pub(crate) out: &'a mut Vec<Emit<P>>,
}

impl<'a, P> InitCtx<'a, P> {
    /// The LP being initialized.
    #[inline]
    pub fn lp(&self) -> LpId {
        self.lp
    }

    /// The LP's RNG stream (setup draws are permanent).
    #[inline]
    pub fn rng(&mut self) -> &mut Clcg4 {
        self.rng
    }

    /// Schedule a bootstrap event at an absolute time (> 0).
    #[inline]
    pub fn schedule_at(&mut self, dst: LpId, recv_time: VirtualTime, tie: u64, payload: P) {
        assert!(
            recv_time > VirtualTime::ZERO,
            "init events must have recv_time > 0"
        );
        self.out.push(Emit {
            dst,
            recv_time,
            tie,
            payload,
        });
    }

    /// Build an init context directly — for unit-testing model setup
    /// outside a kernel.
    pub fn synthetic(lp: LpId, rng: &'a mut Clcg4, out: &'a mut Vec<Emit<P>>) -> Self {
        InitCtx { lp, rng, out }
    }
}

/// Mergeable per-run output (aggregated LP statistics).
pub trait Merge {
    /// Fold `other` into `self`.
    fn merge(&mut self, other: Self);
}

impl Merge for () {
    fn merge(&mut self, _other: Self) {}
}

/// A discrete-event simulation model (the application).
pub trait Model: Send + Sync + 'static {
    /// Per-LP state. Everything the reverse handler restores lives here.
    type State: Send;
    /// Message content exchanged between LPs.
    type Payload: Clone + Send + 'static;
    /// Aggregated end-of-run output, folded across LPs and PEs.
    type Output: Default + Merge + Send;

    /// Total number of LPs in the model.
    fn n_lps(&self) -> u32;

    /// Build LP `lp`'s initial state and schedule its bootstrap events.
    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, Self::Payload>) -> Self::State;

    /// Forward-execute one event.
    fn handle(
        &self,
        state: &mut Self::State,
        payload: &mut Self::Payload,
        ctx: &mut EventCtx<'_, Self::Payload>,
    );

    /// Reverse-execute one event, restoring `state` to its value before the
    /// corresponding [`handle`](Self::handle). RNG draws are un-stepped by
    /// the kernel; child events are cancelled by the kernel.
    fn reverse(&self, state: &mut Self::State, payload: &mut Self::Payload, ctx: &ReverseCtx);

    /// Called when an event is irrevocably committed (passed by GVT).
    /// Default: nothing. Use for irreversible side effects (I/O).
    fn commit(&self, _payload: &Self::Payload, _lp: LpId, _at: VirtualTime) {}

    /// The model's lookahead as an aligned epoch `E` in ticks: `Some(E)`
    /// promises that every event an LP schedules for *another* LP while
    /// executing at a time in `[kE, (k+1)E)` carries a receive time
    /// `≥ (k+1)E`. Events an LP schedules for itself are unconstrained.
    ///
    /// The epoch is also the run's default optimism bound
    /// ([`EngineConfig::max_lookahead`](crate::config::EngineConfig::max_lookahead)
    /// left `None`). The parallel kernel runs the run rollback-free, one
    /// epoch-wide window at a time, whenever that bound is at most `E` and
    /// the run neither checkpoints nor sets
    /// [`GvtMode::Barrier`](crate::config::GvtMode::Barrier); a bound above
    /// `E` (`u64::MAX` for unbounded) opts into Time Warp. A send that
    /// breaks the promise fails that run with
    /// [`RunError::EpochViolated`](crate::error::RunError::EpochViolated).
    /// The default, `None` (and `Some(0)`), declares nothing: the run is
    /// Time Warp.
    fn epoch(&self) -> Option<u64> {
        None
    }

    /// Feed every field that [`reverse`](Self::reverse) is responsible for
    /// restoring into the auditor's hasher. The runtime auditor (see
    /// [`pdes::audit`](crate::audit)) fingerprints LP state around a
    /// `handle`/`reverse` probe pair and around real rollbacks; a field left
    /// out of this digest is invisible to those checks. The default digests
    /// nothing, which still lets the auditor verify RNG stream restoration
    /// and scheduler integrity — implement it to get per-handler
    /// reversibility checking of model state.
    fn audit_state(&self, _lp: LpId, _state: &Self::State, _h: &mut crate::audit::AuditHasher) {}

    /// Serialize one LP's complete state for a checkpoint (see
    /// [`pdes::ckpt`](crate::ckpt)). Must write every field that
    /// [`audit_state`](Self::audit_state) digests — restore re-verifies the
    /// audit fingerprint of the reloaded state, so a field serialized
    /// differently than it hashes will be rejected as corruption. The
    /// default returns [`CkptError::Unsupported`](crate::ckpt::CkptError);
    /// checkpointing then fails cleanly for models that never implement it.
    fn save_state(
        &self,
        _lp: LpId,
        _state: &Self::State,
        _w: &mut crate::ckpt::CkptWriter,
    ) -> Result<(), crate::ckpt::CkptError> {
        Err(crate::ckpt::CkptError::unsupported("Model::save_state"))
    }

    /// Rebuild one LP's state from bytes written by
    /// [`save_state`](Self::save_state). Must consume the record exactly;
    /// restore treats leftover bytes as corruption.
    fn load_state(
        &self,
        _lp: LpId,
        _r: &mut crate::ckpt::CkptReader<'_>,
    ) -> Result<Self::State, crate::ckpt::CkptError> {
        Err(crate::ckpt::CkptError::unsupported("Model::load_state"))
    }

    /// Serialize one pending event's payload for a checkpoint. Saved-state
    /// fields stashed inside the payload for reverse computation do not need
    /// round-tripping faithfully — only frontier (never-executed) events are
    /// snapshotted, and a payload's saved fields are overwritten on
    /// execution — but serializing them verbatim is the simplest correct
    /// implementation.
    fn save_payload(
        &self,
        _payload: &Self::Payload,
        _w: &mut crate::ckpt::CkptWriter,
    ) -> Result<(), crate::ckpt::CkptError> {
        Err(crate::ckpt::CkptError::unsupported("Model::save_payload"))
    }

    /// Rebuild one event payload from bytes written by
    /// [`save_payload`](Self::save_payload).
    fn load_payload(
        &self,
        _r: &mut crate::ckpt::CkptReader<'_>,
    ) -> Result<Self::Payload, crate::ckpt::CkptError> {
        Err(crate::ckpt::CkptError::unsupported("Model::load_payload"))
    }

    /// End-of-run statistics collection for one LP (the paper's statistics
    /// collection function).
    fn finish(&self, lp: LpId, state: &Self::State, out: &mut Self::Output);
}
