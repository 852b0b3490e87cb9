//! Binary-heap pending set with lazy deletion.
//!
//! Anti-message cancellation marks the victim's [`EventId`] in a tombstone
//! set; tombstoned entries are skipped (and purged) whenever they surface at
//! the top. `len` counts live events only. This trades O(log n) exact
//! deletion for O(1) amortized deletion plus a little floating garbage —
//! the classic engineering trade against the splay tree (ablation E9).
//!
//! Lazy deletion is *the* reason queue entries carry frozen keys rather
//! than reading them through the arena: a tombstone can sit in the heap
//! long after its payload slot was freed and reused by a different event.
//! The pending map records each live entry's [`SlotRef`] so `remove` can
//! hand the slot back for release even though the heap entry itself stays
//! buried until it surfaces.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use super::EventQueue;
use crate::arena::SlotRef;
use crate::event::{EventId, EventKey, QueueEntry};
use crate::hash::{FastMap, FastSet};

/// Min-heap entry; ordering reversed so `BinaryHeap` (a max-heap) pops the
/// smallest [`EventKey`] first, breaking *transient-duplicate* key ties by
/// id (see the parallel-kernel docs). The ladder queue's dense buckets reuse it.
pub(super) struct Entry(pub(super) QueueEntry);

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key && self.0.id == other.0.id
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap; break exact key ties by id so Ord is total.
        other
            .0
            .key
            .cmp(&self.0.key)
            .then_with(|| other.0.id.cmp(&self.0.id))
    }
}

/// Binary-heap implementation of [`EventQueue`].
pub struct HeapQueue {
    heap: BinaryHeap<Entry>,
    /// Live (not tombstoned) ids and their payload slots. Needed because
    /// `remove` must report whether its target is actually pending — the
    /// Time Warp kernel uses that answer to distinguish "annihilate a
    /// pending event" from "roll back a processed one" — and must return
    /// the slot so the kernel can free the payload immediately, without
    /// waiting for the tombstone to surface.
    pending: FastMap<EventId, SlotRef>,
    /// Ids cancelled while still pending (lazy deletion tombstones).
    cancelled: FastSet<EventId>,
}

impl HeapQueue {
    /// New empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            pending: FastMap::default(),
            cancelled: FastSet::default(),
        }
    }

    /// Drop tombstoned entries sitting at the heap top.
    fn settle(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.cancelled.remove(&top.0.id) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

impl Default for HeapQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue for HeapQueue {
    fn push(&mut self, e: QueueEntry) {
        let prev = self.pending.insert(e.id, e.slot);
        debug_assert!(
            prev.is_none(),
            "HeapQueue::push: duplicate EventId {:?}",
            e.id
        );
        self.heap.push(Entry(e));
    }

    fn pop(&mut self) -> Option<QueueEntry> {
        self.settle();
        let e = self.heap.pop()?.0;
        self.pending.remove(&e.id);
        Some(e)
    }

    fn peek_key(&mut self) -> Option<EventKey> {
        self.settle();
        self.heap.peek().map(|e| e.0.key)
    }

    fn remove(&mut self, id: EventId, _key: EventKey) -> Option<SlotRef> {
        let slot = self.pending.remove(&id)?;
        self.cancelled.insert(id);
        Some(slot)
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn check_invariants(&self) -> Result<(), String> {
        // Lazy-deletion accounting: every heap entry is either live or
        // tombstoned, never both, and nothing is tracked without an entry.
        if self.heap.len() != self.pending.len() + self.cancelled.len() {
            return Err(format!(
                "heap: {} entries != {} pending + {} cancelled (lazy-deletion leak)",
                self.heap.len(),
                self.pending.len(),
                self.cancelled.len()
            ));
        }
        let mut live = 0usize;
        let mut dead = 0usize;
        for e in self.heap.iter() {
            match (
                self.pending.contains_key(&e.0.id),
                self.cancelled.contains(&e.0.id),
            ) {
                (true, false) => live += 1,
                (false, true) => dead += 1,
                (true, true) => {
                    return Err(format!(
                        "heap: id {:?} is both pending and tombstoned",
                        e.0.id
                    ))
                }
                (false, false) => {
                    return Err(format!(
                        "heap: id {:?} is in the heap but tracked nowhere",
                        e.0.id
                    ))
                }
            }
        }
        if live != self.pending.len() || dead != self.cancelled.len() {
            return Err(format!(
                "heap: tracked ids missing from the heap ({live}/{} live, {dead}/{} tombstoned)",
                self.pending.len(),
                self.cancelled.len()
            ));
        }
        Ok(())
    }

    fn audit_digest(&self) -> Option<u64> {
        Some(
            self.heap
                .iter()
                .filter(|e| self.pending.contains_key(&e.0.id))
                .fold(0u64, |acc, e| {
                    acc ^ crate::audit::event_fingerprint(e.0.id, &e.0.key)
                }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::ev;
    use super::super::EventQueue;
    use super::*;

    #[test]
    fn tombstones_do_not_leak() {
        let mut q = HeapQueue::new();
        let events: Vec<_> = (0..100).map(|i| ev(i, 0, 0)).collect();
        for e in &events {
            q.push(*e);
        }
        // Cancel every other event; each remove yields the victim's slot.
        for e in events.iter().step_by(2) {
            assert_eq!(q.remove(e.id, e.key), Some(e.slot));
        }
        assert_eq!(q.len(), 50);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 50);
        assert!(q.cancelled.is_empty(), "all tombstones must be purged");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = HeapQueue::new();
        let a = ev(4, 1, 2);
        q.push(a);
        assert_eq!(q.peek_key(), Some(a.key));
        assert_eq!(q.peek_key(), Some(a.key));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = HeapQueue::new();
        q.push(ev(10, 0, 0));
        q.push(ev(5, 0, 0));
        assert_eq!(q.pop().unwrap().key.recv_time.0, 5);
        q.push(ev(1, 0, 0));
        q.push(ev(7, 0, 0));
        assert_eq!(q.pop().unwrap().key.recv_time.0, 1);
        assert_eq!(q.pop().unwrap().key.recv_time.0, 7);
        assert_eq!(q.pop().unwrap().key.recv_time.0, 10);
    }
}
