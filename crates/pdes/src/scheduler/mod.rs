//! Pending-event sets (the simulator's priority queue).
//!
//! Each PE owns one pending-event set. Time Warp needs three operations
//! beyond an ordinary priority queue: peek (for GVT minima), and *removal of
//! an arbitrary pending event* (anti-message annihilation before the event
//! executes). Four interchangeable implementations are provided:
//!
//! * [`LadderQueue`] — step-bucketed two-level ladder: only the slice of
//!   virtual time about to run is sorted; exact deletion, no id maps. The
//!   default.
//! * [`HeapQueue`] — binary heap with lazy deletion; the differential
//!   reference the integration matrices run beside the default.
//! * [`SplayQueue`] — top-down splay tree (what ROSS ships); exact deletion.
//! * [`CalendarQueue`] — Brown's calendar queue; amortized O(1) when tuned.
//!
//! The windowed arm, which never rolls back, keeps a fifth set instead of
//! any of these: one unsorted inbox of inline events per LP, sorted when
//! the LP's visit opens (`lp_inbox`).
//!
//! Since the arena split (`pdes::arena`), schedulers order small
//! [`QueueEntry`] records — a frozen `(EventKey, EventId)` plus the arena
//! [`SlotRef`](crate::arena::SlotRef) holding the payload — instead of
//! owning whole events. Bucket sorts, splay rotations and calendar-bucket
//! shifts move 48 bytes of plain-old-data; payloads stay put in the arena.
//!
//! All implementations commit the identical event order (the total
//! [`EventKey`] order with id tie-break), so kernel determinism is
//! scheduler-independent — asserted by the property tests at the bottom and
//! benchmarked as ablation E9.

mod calendar;
mod heap;
mod ladder;
pub(crate) mod lp_inbox;
mod splay;

pub use calendar::CalendarQueue;
pub use heap::HeapQueue;
pub use ladder::LadderQueue;
pub use splay::SplayQueue;

use crate::arena::SlotRef;
use crate::event::{EventId, EventKey, QueueEntry};

/// A pending-event set ordered by [`EventKey`].
pub trait EventQueue: Send {
    /// Insert a pending entry.
    fn push(&mut self, e: QueueEntry);
    /// Remove and return the minimum-key entry.
    fn pop(&mut self) -> Option<QueueEntry>;
    /// The minimum pending key, if any.
    fn peek_key(&mut self) -> Option<EventKey>;
    /// Remove the pending entry with this exact id (located via `key`),
    /// returning its payload slot so the caller can release it. `None`
    /// means no such event was pending.
    fn remove(&mut self, id: EventId, key: EventKey) -> Option<SlotRef>;
    /// Number of live pending entries.
    fn len(&self) -> usize;
    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Walk the implementation's internal structure and report the first
    /// broken invariant (ladder bucket membership, heap lazy-deletion
    /// accounting, splay in-order key monotonicity…). `Ok(())` means the
    /// structure is sound. The default is a no-op so external
    /// implementations keep compiling; the in-tree queues all implement it,
    /// and the runtime auditor calls it at every GVT round.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
    /// XOR-fold of [`event_fingerprint`](crate::audit::event_fingerprint)
    /// over every *live* pending entry, recomputed from scratch. The
    /// auditor compares it against the kernel's incrementally maintained
    /// mirror to catch events lost, duplicated, or mutated inside the
    /// queue. `None` (the default) means "unsupported — skip the check".
    fn audit_digest(&self) -> Option<u64> {
        None
    }
}

/// Which pending-set implementation a kernel should use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// Step-bucketed ladder queue (default).
    #[default]
    Ladder,
    /// Binary heap with lazy deletion (the differential reference).
    Heap,
    /// Top-down splay tree.
    Splay,
    /// Calendar queue (Brown 1988).
    Calendar,
}

impl SchedulerKind {
    /// Construct an empty queue of this kind.
    pub fn build(self) -> Box<dyn EventQueue> {
        match self {
            SchedulerKind::Ladder => Box::new(LadderQueue::new()),
            SchedulerKind::Heap => Box::new(HeapQueue::new()),
            SchedulerKind::Splay => Box::new(SplayQueue::new()),
            SchedulerKind::Calendar => Box::new(CalendarQueue::new()),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::time::VirtualTime;

    /// Build a test entry with a key derived from `(t, dst, tie)` and a
    /// synthetic slot that encodes the id (so drains can check payload
    /// identity travelled with the entry).
    pub fn ev(t: u64, dst: u32, tie: u64) -> QueueEntry {
        let id = EventId::new(
            0,
            (tie ^ (t << 20) ^ ((dst as u64) << 40)) & ((1 << 48) - 1),
        );
        QueueEntry {
            id,
            key: EventKey {
                recv_time: VirtualTime(t),
                dst,
                tie,
                src: 0,
                send_time: VirtualTime::ZERO,
            },
            slot: SlotRef {
                idx: id.seq() as u32,
                gen: (id.seq() >> 32) as u32,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::ev;
    use super::*;
    use crate::rng::{stream_seed, Clcg4, ReversibleRng};

    fn drain(q: &mut dyn EventQueue) -> Vec<EventKey> {
        let mut keys = Vec::new();
        while let Some(e) = q.pop() {
            keys.push(e.key);
        }
        keys
    }

    fn all_queues() -> Vec<Box<dyn EventQueue>> {
        vec![
            SchedulerKind::Ladder.build(),
            SchedulerKind::Heap.build(),
            SchedulerKind::Splay.build(),
            SchedulerKind::Calendar.build(),
        ]
    }

    #[test]
    fn pops_in_key_order() {
        for mut q in all_queues() {
            for &(t, dst, tie) in &[(5, 0, 0), (1, 0, 0), (3, 2, 0), (3, 1, 0), (3, 1, 7)] {
                q.push(ev(t, dst, tie));
            }
            let keys = drain(q.as_mut());
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted);
            assert_eq!(keys.len(), 5);
        }
    }

    #[test]
    fn remove_pending_event_returns_its_slot() {
        for mut q in all_queues() {
            let a = ev(1, 0, 0);
            let b = ev(2, 0, 0);
            let c = ev(3, 0, 0);
            q.push(a);
            q.push(b);
            q.push(c);
            assert_eq!(q.remove(b.id, b.key), Some(b.slot));
            assert_eq!(q.remove(b.id, b.key), None, "double remove must fail");
            assert_eq!(q.len(), 2);
            let keys = drain(q.as_mut());
            assert_eq!(keys, vec![a.key, c.key]);
        }
    }

    #[test]
    fn remove_min_then_peek_skips_it() {
        for mut q in all_queues() {
            let a = ev(1, 0, 0);
            let b = ev(2, 0, 0);
            q.push(a);
            q.push(b);
            assert_eq!(q.remove(a.id, a.key), Some(a.slot));
            assert_eq!(q.peek_key(), Some(b.key));
        }
    }

    #[test]
    fn empty_behaviour() {
        for mut q in all_queues() {
            assert!(q.is_empty());
            assert_eq!(q.pop().map(|e| e.key), None);
            assert_eq!(q.peek_key(), None);
            let a = ev(1, 0, 0);
            assert_eq!(q.remove(a.id, a.key), None);
        }
    }

    /// A script timestamp around the last popped time `at`: mostly within a
    /// few steps ahead (many buckets of any bucketed design), sometimes a
    /// tail from just inside to far past any ring, sometimes a straggler
    /// behind the last pop (the rollback-requeue pattern). Half are snapped
    /// to a coarse grid so equal receive times, ordered by the rest of the
    /// key, are common.
    fn script_time(rng: &mut Clcg4, at: u64) -> u64 {
        const STEP: u64 = crate::time::VirtualTime::STEP;
        let t = match rng.integer(0, 9) {
            0 => at + rng.integer(3 * STEP, 40 * STEP),
            1 | 2 => at.saturating_sub(rng.integer(0, 2 * STEP)),
            _ => at + rng.integer(0, 3 * STEP),
        };
        if rng.integer(0, 1) == 0 {
            t - t % 50_000
        } else {
            t
        }
    }

    fn popped(e: Option<QueueEntry>) -> Option<(EventKey, EventId, SlotRef)> {
        e.map(|e| (e.key, e.id, e.slot))
    }

    /// Random interleavings of push/pop/remove plus the checkpoint-capture
    /// pattern (drain everything, re-push it): every scheduler agrees with
    /// a sorted-vector oracle, and reports sound structure and the oracle's
    /// audit digest after every operation. Seeded with the repo's own CLCG4
    /// streams so every run replays the same 64 cases.
    #[test]
    fn schedulers_agree_with_oracle() {
        use crate::audit::event_fingerprint;
        for case in 0..64u64 {
            let mut rng = Clcg4::new(stream_seed(0x5C4E_D01E, case));
            let n_ops = rng.integer(1, 399) as usize;
            let mut queues = all_queues();
            let mut oracle: Vec<QueueEntry> = Vec::new();
            let mut seq_id: u64 = 1_000_000; // distinct ids even on key clashes
            let mut at = 0u64;

            for _ in 0..n_ops {
                match rng.integer(0, 19) {
                    0..=9 => {
                        let t = script_time(&mut rng, at);
                        let tie = rng.integer(0, 999);
                        let mut e = ev(t, rng.integer(0, 3) as u32, tie);
                        // Duplicate logical keys are legal transients in the
                        // optimistic kernel; give each push a unique id.
                        if !oracle.is_empty() && tie.is_multiple_of(8) {
                            e.key = oracle[tie as usize % oracle.len()].key;
                        }
                        e.id = EventId::new(0, seq_id);
                        e.slot = SlotRef {
                            idx: seq_id as u32,
                            gen: 0,
                        };
                        seq_id += 1;
                        queues.iter_mut().for_each(|q| q.push(e));
                        oracle.push(e);
                    }
                    10..=15 => {
                        oracle.sort_by_key(|e| (e.key, e.id));
                        let want = (!oracle.is_empty()).then(|| oracle.remove(0));
                        for q in &mut queues {
                            assert_eq!(popped(q.pop()), popped(want), "case {case}");
                        }
                        if let Some(w) = want {
                            at = w.key.recv_time.0;
                        }
                    }
                    16..=18 => {
                        // Remove a pseudo-randomly chosen live event, if any.
                        if oracle.is_empty() {
                            continue;
                        }
                        let victim = oracle.remove(rng.integer(0, 999) as usize % oracle.len());
                        for q in &mut queues {
                            assert_eq!(q.remove(victim.id, victim.key), Some(victim.slot));
                        }
                    }
                    _ => {
                        // `ckpt::capture_part`: drain in order, re-push.
                        oracle.sort_by_key(|e| (e.key, e.id));
                        for q in &mut queues {
                            let all: Vec<QueueEntry> = std::iter::from_fn(|| q.pop()).collect();
                            assert_eq!(all, oracle, "case {case}: capture drain");
                            all.into_iter().for_each(|e| q.push(e));
                        }
                    }
                }
                let digest = oracle
                    .iter()
                    .fold(0u64, |acc, e| acc ^ event_fingerprint(e.id, &e.key));
                for q in &queues {
                    if let Err(broken) = q.check_invariants() {
                        panic!("case {case}: {broken}");
                    }
                    assert_eq!(q.audit_digest(), Some(digest), "case {case}");
                    assert_eq!(q.len(), oracle.len());
                }
            }

            // Drain all and compare with the sorted oracle.
            oracle.sort_by_key(|e| (e.key, e.id));
            for want in oracle {
                for q in &mut queues {
                    assert_eq!(q.pop().unwrap().id, want.id);
                }
            }
            assert!(queues.iter().all(|q| q.is_empty()));
        }
    }
}
