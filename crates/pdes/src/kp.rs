//! Kernel processes: the rollback granule.
//!
//! A KP groups LPs and keeps their *processed-event list* in execution order.
//! Rolling back to a straggler's timestamp rewinds the whole KP, not just the
//! straggler's LP — coarser than per-LP lists (some "false rollbacks" of
//! innocent LPs), but with far less bookkeeping per event. The KP count is
//! therefore a first-order performance knob, which is exactly what the
//! paper's Figures 7a–c and 8 sweep.
//!
//! Per executed event the KP keeps one 64-byte [`Processed`] record. What a
//! record has a *variable number* of, or only has in some configurations,
//! lives in side logs that move in lockstep with the record list — pushed by
//! [`Kp::record`], popped off the back by [`Kp::pop_if_at_or_after`], dropped
//! off the front by [`Kp::fossil_collect`]:
//!
//! * the children the execution scheduled (`n_children` per record), in one
//!   flat log — no per-event vector;
//! * the state-saving snapshot, one per record, only in state-saving mode;
//! * the auditor's pre-execution fingerprint, one per record, only while the
//!   auditor is on.
//!
//! The logs are private so the lockstep cannot be broken from outside.

use std::collections::vec_deque::Drain;
use std::collections::VecDeque;

use crate::arena::SlotRef;
use crate::event::{Bitfield, ChildRef, EventId, EventKey};
use crate::rng::Clcg4;
use crate::time::VirtualTime;

/// A processed event retained for possible rollback: its frozen ordering
/// data, the arena slot holding its payload (which may carry the handler's
/// saved fields for reverse computation), the bitfield the forward handler
/// recorded, the number of RNG draws it made, and how many entries of the
/// KP's child log and of the packet tracer's hop log belong to it. One cache
/// line, whatever the model's state type; the payload itself stays in the
/// arena, so recording an execution moves no model bytes.
#[derive(Clone, Copy, Debug)]
pub struct Processed {
    /// Ordering key of the executed event.
    pub key: EventKey,
    /// Kernel identity of the executed event (annihilation target).
    pub id: EventId,
    /// Arena slot holding the payload until commit or rollback-annihilate.
    pub slot: SlotRef,
    /// Bitfield as the forward handler left it.
    pub bf: Bitfield,
    /// RNG draws made by the forward handler (auto-reversed on rollback).
    pub rng_calls: u32,
    /// Events this execution scheduled (anti-message targets): that many
    /// entries of the KP's child log. Set by [`Kp::record`].
    pub n_children: u32,
    /// Causal hops this execution emitted into the packet tracer (0 when
    /// tracing is off); rollback unwinds and fossil collection commits
    /// exactly this many.
    pub n_trace: u32,
}

/// One execution popped off a KP by a rollback, with its side-log entries.
#[derive(Debug)]
pub struct Undone<S> {
    /// The record itself; its children were appended to the caller's stack.
    pub record: Processed,
    /// State-saving snapshot of the LP and its RNG taken before the event
    /// executed (`None` under reverse computation).
    pub snapshot: Option<(S, Clcg4)>,
    /// Auditor fingerprint of the destination LP (state digest + RNG stream
    /// position) taken before the event executed; the undo must restore the
    /// LP to exactly this hash. `None` when the auditor is off.
    pub audit_hash: Option<u64>,
}

/// Per-KP bookkeeping. Events are appended in processing order, which within
/// a KP is also [`EventKey`] order (the PE always executes its globally
/// minimal pending event, and stragglers roll the KP back first).
#[derive(Debug)]
pub struct Kp<S> {
    /// Processed-but-uncommitted events, oldest first.
    processed: VecDeque<Processed>,
    /// Children of every record in `processed`, in record order:
    /// `children.len()` is the sum of `n_children`.
    children: VecDeque<ChildRef>,
    /// One entry per record in state-saving mode, else empty.
    snapshots: VecDeque<(S, Clcg4)>,
    /// One entry per record while the auditor is on, else empty.
    audit_hashes: VecDeque<u64>,
    /// Total events this KP has rolled back (for Figure 7 reporting).
    pub rolled_back: u64,
}

impl<S> Kp<S> {
    /// Fresh, empty KP. Allocates nothing until the first event executes.
    pub fn new() -> Self {
        Kp {
            processed: VecDeque::new(),
            children: VecDeque::new(),
            snapshots: VecDeque::new(),
            audit_hashes: VecDeque::new(),
            rolled_back: 0,
        }
    }

    /// Processed-but-uncommitted events on this KP.
    #[inline]
    pub fn uncommitted(&self) -> usize {
        self.processed.len()
    }

    /// Key of the most recently processed (uncommitted) event, if any.
    /// Incoming events at or before this key are stragglers.
    #[inline]
    pub fn last_key(&self) -> Option<EventKey> {
        self.processed.back().map(|p| p.key)
    }

    /// Append a freshly executed event with the children it scheduled and,
    /// when their feature is on, its snapshot and audit fingerprint (each
    /// must be `Some` for every record of a run or for none). Non-strict
    /// ordering: a transient stale twin (same key, different id) may execute
    /// adjacent to its replacement; see the parallel-kernel docs on
    /// transient duplicates.
    #[inline]
    pub fn record(
        &mut self,
        mut p: Processed,
        children: &[ChildRef],
        snapshot: Option<(S, Clcg4)>,
        audit_hash: Option<u64>,
    ) {
        debug_assert!(
            self.last_key().is_none_or(|k| k <= p.key),
            "KP processed list out of order"
        );
        p.n_children = u32::try_from(children.len()).expect("one event scheduled 2^32 children");
        self.children.extend(children);
        self.processed.push_back(p);
        if let Some(s) = snapshot {
            self.snapshots.push_back(s);
        }
        if let Some(h) = audit_hash {
            self.audit_hashes.push_back(h);
        }
        self.debug_check_lockstep();
    }

    /// True if the event with this id was processed at or after `bound`
    /// (i.e. a rollback to `bound` would undo it). Scans only the suffix a
    /// rollback would touch, newest first. Used by the anti-message path to
    /// distinguish "target already executed" (roll back) from "target never
    /// arrived" (defer the anti under fault injection).
    pub fn contains_at_or_after(&self, id: EventId, bound: EventKey) -> bool {
        self.processed
            .iter()
            .rev()
            .take_while(|p| p.key >= bound)
            .any(|p| p.id == id)
    }

    /// Pop the newest processed event if its key is `>= bound`, appending
    /// its children (in scheduling order) to `children`. Rollback drivers
    /// call this repeatedly, undoing each returned event.
    ///
    /// The children leave the KP's log *here*, before the driver cancels any
    /// of them: cancelling a local child re-enters the rollback path, and
    /// while frames nest the log's tail must belong to the records still on
    /// the list.
    #[inline]
    pub fn pop_if_at_or_after(
        &mut self,
        bound: EventKey,
        children: &mut Vec<ChildRef>,
    ) -> Option<Undone<S>> {
        if self.processed.back()?.key < bound {
            return None;
        }
        let record = self.processed.pop_back()?;
        self.rolled_back += 1;
        let keep = self.children.len() - record.n_children as usize;
        children.extend(self.children.range(keep..));
        self.children.truncate(keep);
        // A side log that is off is empty, so its pop yields `None`.
        let undone = Undone {
            record,
            snapshot: self.snapshots.pop_back(),
            audit_hash: self.audit_hashes.pop_back(),
        };
        self.debug_check_lockstep();
        Some(undone)
    }

    /// Fossil collection at the KP level: call `commit` on every processed
    /// event strictly older than `horizon`, oldest first and in place, then
    /// drop those records and their side-log entries. Returns the committed
    /// events' children as a draining iterator (for the auditor's
    /// conservation ledger); dropping it unread discards them.
    pub fn fossil_collect(
        &mut self,
        horizon: VirtualTime,
        mut commit: impl FnMut(&Processed),
    ) -> Drain<'_, ChildRef> {
        let mut n = 0;
        let mut n_children = 0;
        for p in &self.processed {
            if p.key.recv_time >= horizon {
                break;
            }
            commit(p);
            n += 1;
            n_children += p.n_children as usize;
        }
        self.processed.drain(..n);
        if !self.snapshots.is_empty() {
            self.snapshots.drain(..n);
        }
        if !self.audit_hashes.is_empty() {
            self.audit_hashes.drain(..n);
        }
        self.children.drain(..n_children)
    }

    /// Debug builds: every side log is off (empty) or one-per-record. The
    /// child log's sum is O(n), so it is checked only by the unit tests.
    #[inline]
    fn debug_check_lockstep(&self) {
        let n = self.processed.len();
        debug_assert!(self.snapshots.is_empty() || self.snapshots.len() == n);
        debug_assert!(self.audit_hashes.is_empty() || self.audit_hashes.len() == n);
    }
}

impl<S> Default for Kp<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64) -> EventKey {
        EventKey {
            recv_time: VirtualTime(t),
            dst: 0,
            tie: 0,
            src: 0,
            send_time: VirtualTime::ZERO,
        }
    }

    fn processed(t: u64) -> Processed {
        Processed {
            id: EventId::new(0, t),
            key: key(t),
            slot: SlotRef::DANGLING,
            bf: Bitfield::default(),
            rng_calls: 0,
            n_children: 0,
            n_trace: 0,
        }
    }

    /// `n` children of the event at `t`, ids `100 t + i`.
    fn kids(t: u64, n: u64) -> Vec<ChildRef> {
        (0..n)
            .map(|i| ChildRef {
                id: EventId::new(0, 100 * t + i),
                key: key(t + 1),
            })
            .collect()
    }

    fn record_plain(kp: &mut Kp<()>, t: u64) {
        kp.record(processed(t), &[], None, None);
    }

    /// The lockstep invariant the flat child log lives by.
    fn assert_child_lockstep<S>(kp: &Kp<S>) {
        let sum: usize = kp.processed.iter().map(|p| p.n_children as usize).sum();
        assert_eq!(kp.children.len(), sum);
    }

    /// The record has no type parameter: the model's state appears only in
    /// the snapshot side log, so the list element cannot grow with it.
    #[test]
    fn record_is_one_cache_line() {
        assert!(std::mem::size_of::<Processed>() <= 64);
    }

    #[test]
    fn last_key_tracks_tail() {
        let mut kp = Kp::<()>::new();
        assert_eq!(kp.last_key(), None);
        record_plain(&mut kp, 1);
        record_plain(&mut kp, 5);
        assert_eq!(kp.last_key().unwrap().recv_time, VirtualTime(5));
    }

    #[test]
    fn rollback_pops_newest_first_down_to_bound() {
        let mut kp = Kp::<()>::new();
        for t in [1, 3, 5, 7, 9] {
            record_plain(&mut kp, t);
        }
        let mut popped = Vec::new();
        let mut stack = Vec::new();
        while let Some(u) = kp.pop_if_at_or_after(key(5), &mut stack) {
            popped.push(u.record.key.recv_time.0);
        }
        assert_eq!(popped, vec![9, 7, 5]);
        assert_eq!(kp.last_key().unwrap().recv_time, VirtualTime(3));
        assert_eq!(kp.rolled_back, 3);
        assert!(stack.is_empty());
    }

    #[test]
    fn contains_checks_only_the_rollback_suffix() {
        let mut kp = Kp::<()>::new();
        for t in [1, 3, 5, 7] {
            record_plain(&mut kp, t);
        }
        let bound = key(5);
        assert!(kp.contains_at_or_after(EventId::new(0, 5), bound));
        assert!(kp.contains_at_or_after(EventId::new(0, 7), bound));
        // Event 3 was processed before the bound: a rollback to `bound`
        // would not reach it.
        assert!(!kp.contains_at_or_after(EventId::new(0, 3), bound));
        assert!(!kp.contains_at_or_after(EventId::new(0, 99), bound));
    }

    #[test]
    fn fossil_collect_commits_prefix_only() {
        let mut kp = Kp::<()>::new();
        for t in [1, 3, 5, 7] {
            record_plain(&mut kp, t);
        }
        let mut times = Vec::new();
        kp.fossil_collect(VirtualTime(5), |p| times.push(p.key.recv_time.0));
        assert_eq!(times, vec![1, 3]);
        assert_eq!(kp.uncommitted(), 2);
        kp.fossil_collect(VirtualTime::INFINITY, |p| times.push(p.key.recv_time.0));
        assert_eq!(times, vec![1, 3, 5, 7]);
        assert_eq!(kp.uncommitted(), 0);
    }

    #[test]
    fn child_log_stays_in_lockstep_through_record_rollback_and_fossil() {
        let mut kp = Kp::<()>::new();
        for (t, n) in [(1, 2), (3, 0), (5, 3), (7, 1), (9, 2)] {
            kp.record(processed(t), &kids(t, n), None, None);
            assert_child_lockstep(&kp);
        }
        assert_eq!(kp.children.len(), 8);

        // Roll back 9 and 7: each pop lifts exactly its own children, in
        // scheduling order, on top of whatever the stack already holds.
        let mut stack = kids(0, 1);
        let u = kp.pop_if_at_or_after(key(7), &mut stack).unwrap();
        assert_eq!((u.record.key.recv_time.0, u.record.n_children), (9, 2));
        assert_child_lockstep(&kp);
        let u = kp.pop_if_at_or_after(key(7), &mut stack).unwrap();
        assert_eq!((u.record.key.recv_time.0, u.record.n_children), (7, 1));
        assert_child_lockstep(&kp);
        assert!(kp.pop_if_at_or_after(key(7), &mut stack).is_none());
        let lifted: Vec<u64> = stack.iter().map(|c| c.id.seq()).collect();
        assert_eq!(lifted, vec![0, 900, 901, 700]);

        // Commit 1 and 3: the drain hands back exactly their children.
        let committed: Vec<u64> = kp
            .fossil_collect(VirtualTime(5), |_| {})
            .map(|c| c.id.seq())
            .collect();
        assert_eq!(committed, vec![100, 101]);
        assert_child_lockstep(&kp);
        assert_eq!(kp.uncommitted(), 1);

        // Re-execute past the rollback point, then commit everything with
        // the drain dropped unread.
        kp.record(processed(8), &kids(8, 4), None, None);
        assert_child_lockstep(&kp);
        drop(kp.fossil_collect(VirtualTime::INFINITY, |_| {}));
        assert_eq!(kp.uncommitted(), 0);
        assert!(kp.children.is_empty());
    }

    #[test]
    fn side_logs_ride_along_only_when_fed() {
        let rng = Clcg4::new(1);
        // Off: nothing is stored and rollback reports `None`.
        let mut off = Kp::<u64>::new();
        off.record(processed(1), &[], None, None);
        let u = off.pop_if_at_or_after(key(0), &mut Vec::new()).unwrap();
        assert!(u.snapshot.is_none() && u.audit_hash.is_none());

        // On: one entry per record, newest popped with its record, oldest
        // dropped with the committed prefix.
        let mut on = Kp::<u64>::new();
        for t in [1, 3, 5] {
            on.record(processed(t), &[], Some((10 * t, rng)), Some(t));
        }
        let u = on.pop_if_at_or_after(key(5), &mut Vec::new()).unwrap();
        assert_eq!(u.snapshot.map(|(s, _)| s), Some(50));
        assert_eq!(u.audit_hash, Some(5));
        drop(on.fossil_collect(VirtualTime(3), |_| {}));
        assert_eq!((on.snapshots.len(), on.audit_hashes.len()), (1, 1));
        let u = on.pop_if_at_or_after(key(0), &mut Vec::new()).unwrap();
        assert_eq!(u.snapshot.map(|(s, _)| s), Some(30));
        assert_eq!(u.audit_hash, Some(3));
    }
}
