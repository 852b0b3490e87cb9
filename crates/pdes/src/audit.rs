//! Runtime reversibility auditor.
//!
//! Opt-in (debug-default, `PDES_AUDIT` / [`EngineConfig::with_audit`]
//! override) correctness tooling that localizes a reversibility bug to the
//! offending handler instead of a failed end-to-end bit-identity suite.
//! Four independent checks, all built on the same fast incremental hash:
//!
//! 1. **Reverse-replay probe** — before an event is forward-executed for
//!    real, the kernel fingerprints the LP (model-supplied
//!    [`Model::audit_state`](crate::model::Model::audit_state) digest + RNG
//!    stream position), runs `handle` with a scratch emission buffer, runs
//!    `reverse`, un-steps the RNG, and re-fingerprints. Any difference means
//!    `reverse` is not an exact inverse of `handle` — reported immediately,
//!    naming the LP, event id, and key, *at the first event that breaks*,
//!    long before the corruption would surface as a diverged run.
//! 2. **Rollback hash check** — the pre-event fingerprint is stored with the
//!    processed event; when a real rollback reverses it, the restored state
//!    must hash back to the recorded value.
//! 3. **Anti-message conservation** — every speculative send is tracked
//!    until it is either cancelled by exactly one anti-message or committed
//!    with its parent at fossil collection; double-cancels, cancels of
//!    unknown events, and sends that reach end of run in limbo are reported.
//! 4. **Scheduler structural invariants** — the kernel mirrors every
//!    push/pop/remove into an order-independent XOR fingerprint and compares
//!    it against the scheduler's own
//!    [`audit_digest`](crate::scheduler::EventQueue::audit_digest) at every
//!    GVT round, alongside the per-scheduler
//!    [`check_invariants`](crate::scheduler::EventQueue::check_invariants)
//!    walk (heap lazy-deletion bounds, splay in-order monotonicity, calendar
//!    bucket membership).
//!
//! Violations surface as [`RunError::AuditFailed`](crate::error::RunError)
//! and as [`ObsKind::AuditViolation`](crate::obs::ObsKind) flight-recorder
//! records.
//!
//! [`EngineConfig::with_audit`]: crate::config::EngineConfig::with_audit

use std::collections::HashMap;
use std::fmt;

use crate::event::{Bitfield, ChildRef, EventId, EventKey, LpId, QueueEntry};
use crate::model::{Emit, EventCtx, Model, ReverseCtx};
use crate::obs::{FlightRecorder, ObsKind, ObsRecord};
use crate::rng::{Clcg4, ReversibleRng};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher used for every audit fingerprint.
///
/// Deliberately dependency-free and word-oriented: model `audit_state`
/// implementations feed their reversible fields through the typed `write_*`
/// methods, and the kernel appends the RNG stream position. Not a
/// cryptographic hash — it only needs to make an unrestored field visible
/// with overwhelming probability.
#[derive(Clone, Debug)]
pub struct AuditHasher {
    h: u64,
}

impl AuditHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Self {
        AuditHasher { h: FNV_OFFSET }
    }

    /// Absorb one 64-bit word, byte by byte (FNV-1a).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let mut h = self.h;
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.h = h;
    }

    /// Absorb a 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    /// Absorb a boolean.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(v as u64);
    }

    /// Absorb an `f64` by its exact bit pattern (so `-0.0` vs `0.0` and NaN
    /// payload differences are visible — float state that "looks equal" but
    /// differs in bits is exactly the drift reverse computation must not
    /// leave behind).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.h;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.h = h;
    }

    /// The fingerprint of everything absorbed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for AuditHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Order-independent fingerprint of one scheduled event, XOR-foldable over a
/// queue's contents: the kernel toggles it into a running XOR on every
/// push/pop/remove, and a scheduler recomputes the same fold from scratch in
/// [`audit_digest`](crate::scheduler::EventQueue::audit_digest).
#[inline]
pub fn event_fingerprint(id: EventId, key: &EventKey) -> u64 {
    let mut h = AuditHasher::new();
    h.write_u64(id.0);
    h.write_u64(key.recv_time.0);
    h.write_u32(key.dst);
    h.write_u64(key.tie);
    h.write_u32(key.src);
    h.write_u64(key.send_time.0);
    // XOR-folding an empty queue must yield 0, and a single event must never
    // fingerprint to 0; FNV of nonempty input is never the offset basis, so
    // fold the basis out.
    h.finish() ^ FNV_OFFSET
}

/// Which audit check a violation came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditCheck {
    /// The reverse-replay probe: `reverse` did not restore the fingerprint
    /// `handle` started from.
    ReverseReplay,
    /// A real rollback reversed an event but the restored state did not hash
    /// back to the recorded pre-event fingerprint.
    RollbackHash,
    /// A speculative send was cancelled twice, cancelled without being sent,
    /// or reached the end of the run neither cancelled nor committed.
    AntiConservation,
    /// A scheduler's structural invariants or content fingerprint diverged
    /// from the kernel's mirror.
    SchedulerInvariant,
}

impl fmt::Display for AuditCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AuditCheck::ReverseReplay => "reverse-replay",
            AuditCheck::RollbackHash => "rollback-hash",
            AuditCheck::AntiConservation => "anti-conservation",
            AuditCheck::SchedulerInvariant => "scheduler-invariant",
        })
    }
}

/// A structured audit failure: which check fired, where, and on what event.
#[derive(Clone, Debug)]
pub struct AuditViolation {
    /// PE that detected the violation (0 in the sequential kernel).
    pub pe: usize,
    /// LP whose handler / state is implicated, when the check has one.
    pub lp: Option<LpId>,
    /// The event id involved, when the check has one.
    pub id: Option<EventId>,
    /// The event's ordering key, when the check has one.
    pub key: Option<EventKey>,
    /// Which check fired.
    pub check: AuditCheck,
    /// Human-readable specifics (expected/actual fingerprints, counts…).
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit[{}] on PE {}", self.check, self.pe)?;
        if let Some(lp) = self.lp {
            write!(f, ", LP {lp}")?;
        }
        if let Some(id) = self.id {
            write!(f, ", event id {:#x}", id.0)?;
        }
        if let Some(k) = self.key {
            write!(
                f,
                ", key {{t={} dst={} tie={} src={} sent={}}}",
                k.recv_time.0, k.dst, k.tie, k.src, k.send_time.0
            )?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// LP fingerprint: the model's [`Model::audit_state`] digest plus the RNG
/// stream position (stream state words and draw count). Restoring the state
/// but leaving the RNG mis-stepped — or vice versa — is a reversibility bug
/// either way. The one definition behind the probe, the rollback hash check,
/// and the per-LP fingerprints stored in (and re-verified from) snapshots.
pub(crate) fn lp_fingerprint<M: Model>(model: &M, lp: LpId, state: &M::State, rng: &Clcg4) -> u64 {
    let mut digest = AuditHasher::new();
    model.audit_state(lp, state, &mut digest);
    let mut h = AuditHasher::new();
    h.write_u64(digest.finish());
    for w in rng.state() {
        h.write_u64(w);
    }
    h.write_u64(rng.call_count());
    h.finish()
}

/// Reverse-replay probe, shared by both kernels: fingerprint the LP, run
/// `handle` against a scratch emission buffer (no observability, no tracing
/// — the probe must be invisible), run `reverse`, un-step the RNG, and
/// require the fingerprint to return to its starting value. On success the
/// LP, RNG, and payload are back exactly where they started, so the caller
/// can execute `entry` for real; the pre-event fingerprint is returned for
/// the rollback hash check. The probe's emits are discarded, never scheduled.
pub(crate) fn probe_reverse<M: Model>(
    model: &M,
    pe: usize,
    state: &mut M::State,
    rng: &mut Clcg4,
    entry: &QueueEntry,
    payload: &mut M::Payload,
    scratch: &mut Vec<Emit<M::Payload>>,
) -> Result<u64, AuditViolation> {
    let lp = entry.key.dst;
    let before = lp_fingerprint(model, lp, state, rng);
    debug_assert!(scratch.is_empty());
    let mut bf = Bitfield::default();
    let rng_before = rng.call_count();
    let mut ctx = EventCtx {
        lp,
        src: entry.key.src,
        now: entry.key.recv_time,
        send_time: entry.key.send_time,
        bf: &mut bf,
        rng,
        out: scratch,
        obs: None,
        trace: None,
    };
    model.handle(state, payload, &mut ctx);
    scratch.clear();
    let rng_calls = rng.call_count() - rng_before;
    let rctx = ReverseCtx {
        lp,
        now: entry.key.recv_time,
        bf,
    };
    model.reverse(state, payload, &rctx);
    rng.reverse_n(rng_calls);
    let after = lp_fingerprint(model, lp, state, rng);
    if after != before {
        return Err(AuditViolation {
            pe,
            lp: Some(lp),
            id: Some(entry.id),
            key: Some(entry.key),
            check: AuditCheck::ReverseReplay,
            detail: format!(
                "handle+reverse left LP fingerprint {after:#018x}, expected {before:#018x} \
                 (reverse is not an exact inverse of handle)"
            ),
        });
    }
    Ok(before)
}

/// Flight-record a violation (the record that lands in failure diagnostics).
pub(crate) fn record_violation(recorder: &mut FlightRecorder, v: &AuditViolation) {
    if recorder.wants(ObsKind::AuditViolation) {
        recorder.record(ObsRecord::event(
            ObsKind::AuditViolation,
            v.id.unwrap_or(EventId(0)),
            v.key.unwrap_or(crate::obs::NO_KEY),
            v.check as u64,
        ));
    }
}

/// Per-kernel (per-PE) auditor bookkeeping.
pub(crate) struct AuditState {
    /// Running XOR of [`event_fingerprint`]s of everything the kernel
    /// believes is in its scheduler.
    sched_xor: u64,
    /// Speculative sends awaiting exactly one anti-message or commit,
    /// keyed by id, with the child's key and the sending LP for reporting.
    outstanding: HashMap<EventId, (EventKey, LpId)>,
    /// Test-only fault injection: swallow the nth cancellation (0-based)
    /// instead of dispatching it, to prove the conservation check fires.
    drop_anti_at: Option<u64>,
    cancels_seen: u64,
}

impl AuditState {
    pub(crate) fn new(drop_anti_at: Option<u64>) -> Self {
        AuditState {
            sched_xor: 0,
            outstanding: HashMap::new(),
            drop_anti_at,
            cancels_seen: 0,
        }
    }

    /// Mirror a scheduler push/pop/remove (XOR is its own inverse, so one
    /// toggle serves all three).
    #[inline]
    pub(crate) fn toggle_sched(&mut self, id: EventId, key: &EventKey) {
        self.sched_xor ^= event_fingerprint(id, key);
    }

    /// Record a speculative send (a child emitted by an executed event).
    /// Presence in the map means "outstanding"; removal happens at exactly
    /// one of cancel / commit.
    pub(crate) fn on_send(&mut self, child: &ChildRef, from_lp: LpId) {
        self.outstanding.insert(child.id, (child.key, from_lp));
    }

    /// Test-only injection hook: should this cancellation be swallowed?
    /// Counts every call; returns `true` exactly once, at the configured
    /// ordinal.
    pub(crate) fn swallow_cancel(&mut self) -> bool {
        let n = self.cancels_seen;
        self.cancels_seen += 1;
        self.drop_anti_at == Some(n)
    }

    /// A child is being cancelled (anti-message sent, or annihilated
    /// locally). Must be outstanding.
    pub(crate) fn on_cancel(&mut self, pe: usize, child: &ChildRef) -> Result<(), AuditViolation> {
        match self.outstanding.remove(&child.id) {
            Some(_) => Ok(()),
            None => Err(AuditViolation {
                pe,
                lp: Some(child.key.src),
                id: Some(child.id),
                key: Some(child.key),
                check: AuditCheck::AntiConservation,
                detail: "cancelled a send that was never outstanding (double cancel, or cancel \
                         of an already-committed event)"
                    .into(),
            }),
        }
    }

    /// A processed event is being fossil-collected; its children are
    /// committed with it. Each must still be outstanding.
    pub(crate) fn on_commit_child(
        &mut self,
        pe: usize,
        child: &ChildRef,
    ) -> Result<(), AuditViolation> {
        match self.outstanding.remove(&child.id) {
            Some(_) => Ok(()),
            None => Err(AuditViolation {
                pe,
                lp: Some(child.key.src),
                id: Some(child.id),
                key: Some(child.key),
                check: AuditCheck::AntiConservation,
                detail: "committed a send that was not outstanding (it was already cancelled \
                         or committed once)"
                    .into(),
            }),
        }
    }

    /// End-of-run conservation check: nothing may still be in limbo.
    pub(crate) fn finish(&self, pe: usize) -> Result<(), AuditViolation> {
        match self.outstanding.iter().min_by_key(|(id, _)| **id) {
            None => Ok(()),
            Some((id, (key, lp))) => Err(AuditViolation {
                pe,
                lp: Some(*lp),
                id: Some(*id),
                key: Some(*key),
                check: AuditCheck::AntiConservation,
                detail: format!(
                    "{} speculative send(s) reached end of run neither cancelled nor \
                     committed (first by id shown)",
                    self.outstanding.len()
                ),
            }),
        }
    }

    /// GVT-boundary scheduler check: compare the kernel's XOR mirror against
    /// the scheduler's own recomputed digest (when it supports one) and run
    /// its structural-invariant walk.
    pub(crate) fn check_scheduler(
        &self,
        pe: usize,
        digest: Option<u64>,
        invariants: Result<(), String>,
    ) -> Result<(), AuditViolation> {
        if let Err(msg) = invariants {
            return Err(AuditViolation {
                pe,
                lp: None,
                id: None,
                key: None,
                check: AuditCheck::SchedulerInvariant,
                detail: msg,
            });
        }
        if let Some(d) = digest {
            if d != self.sched_xor {
                return Err(AuditViolation {
                    pe,
                    lp: None,
                    id: None,
                    key: None,
                    check: AuditCheck::SchedulerInvariant,
                    detail: format!(
                        "scheduler content fingerprint {d:#018x} != kernel mirror {:#018x} \
                         (an event was lost, duplicated, or mutated inside the queue)",
                        self.sched_xor
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualTime;

    fn key(t: u64, tie: u64) -> EventKey {
        EventKey {
            recv_time: VirtualTime(t),
            dst: 1,
            tie,
            src: 0,
            send_time: VirtualTime(0),
        }
    }

    #[test]
    fn hasher_is_order_sensitive_and_deterministic() {
        let mut a = AuditHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = AuditHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = AuditHasher::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn f64_hashing_sees_bit_level_drift() {
        let mut a = AuditHasher::new();
        a.write_f64(0.0);
        let mut b = AuditHasher::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn event_fingerprints_xor_fold_to_zero_only_when_matched() {
        let f1 = event_fingerprint(EventId::new(0, 1), &key(5, 0));
        let f2 = event_fingerprint(EventId::new(0, 2), &key(5, 1));
        assert_ne!(f1, 0, "single-event fingerprint must be nonzero");
        assert_ne!(f1, f2);
        assert_eq!(f1 ^ f2 ^ f1 ^ f2, 0);
    }

    #[test]
    fn conservation_tracks_send_cancel_commit() {
        let mut a = AuditState::new(None);
        let c = ChildRef {
            id: EventId::new(0, 7),
            key: key(9, 3),
        };
        a.on_send(&c, 4);
        assert!(a.finish(0).is_err(), "outstanding send must fail finish");
        a.on_cancel(0, &c).unwrap();
        assert!(a.finish(0).is_ok());
        // Cancelling again is a violation naming the event.
        let v = a.on_cancel(0, &c).unwrap_err();
        assert_eq!(v.check, AuditCheck::AntiConservation);
        assert_eq!(v.id, Some(c.id));
        assert_eq!(v.key, Some(c.key));
    }

    #[test]
    fn commit_of_cancelled_send_is_flagged() {
        let mut a = AuditState::new(None);
        let c = ChildRef {
            id: EventId::new(1, 1),
            key: key(2, 0),
        };
        a.on_send(&c, 0);
        a.on_cancel(1, &c).unwrap();
        let v = a.on_commit_child(1, &c).unwrap_err();
        assert_eq!(v.pe, 1);
        assert_eq!(v.check, AuditCheck::AntiConservation);
    }

    #[test]
    fn swallow_cancel_fires_exactly_once_at_ordinal() {
        let mut a = AuditState::new(Some(2));
        assert!(!a.swallow_cancel());
        assert!(!a.swallow_cancel());
        assert!(a.swallow_cancel());
        assert!(!a.swallow_cancel());
        let mut off = AuditState::new(None);
        assert!(!off.swallow_cancel());
    }

    #[test]
    fn scheduler_mirror_mismatch_is_reported() {
        let mut a = AuditState::new(None);
        let id = EventId::new(0, 3);
        let k = key(4, 4);
        a.toggle_sched(id, &k);
        assert!(a.check_scheduler(0, Some(a.sched_xor), Ok(())).is_ok());
        assert!(a.check_scheduler(0, None, Ok(())).is_ok());
        let v = a.check_scheduler(0, Some(0), Ok(())).unwrap_err();
        assert_eq!(v.check, AuditCheck::SchedulerInvariant);
        let v = a
            .check_scheduler(0, None, Err("broken".into()))
            .unwrap_err();
        assert!(v.detail.contains("broken"));
        a.toggle_sched(id, &k);
        assert_eq!(a.sched_xor, 0, "toggle is an involution");
    }

    #[test]
    fn violation_display_names_everything() {
        let v = AuditViolation {
            pe: 2,
            lp: Some(17),
            id: Some(EventId::new(2, 9)),
            key: Some(key(40, 6)),
            check: AuditCheck::ReverseReplay,
            detail: "fingerprint 0x1 != 0x2".into(),
        };
        let s = v.to_string();
        assert!(s.contains("reverse-replay"), "{s}");
        assert!(s.contains("PE 2"), "{s}");
        assert!(s.contains("LP 17"), "{s}");
        assert!(s.contains("t=40"), "{s}");
    }
}
