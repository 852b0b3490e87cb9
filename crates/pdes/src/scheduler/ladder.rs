//! Step-bucketed pending set (a two-level ladder queue); the default.
//!
//! Virtual time is cut into buckets of `2^SHIFT` ticks. The SPAA model is
//! synchronous, so almost every event lands in the current or the next
//! step, in fixed sub-step bands; a bucket is a thin slice of one band.
//! Only the bucket about to run is ever sorted (Tang et al.'s ladder queue,
//! ACM TOMACS 2005, cut down to two levels):
//!
//! * `now` — every entry of the cursor's bucket `cur`, sorted descending by
//!   `(EventKey, EventId)`, so `pop` is a `Vec::pop`.
//! * `ring` — `RUNGS` unsorted bucket vectors for buckets
//!   `cur + 1 ..= cur + RUNGS`, bucket `b` in slot `b % RUNGS`. A bucket is
//!   sorted once, when the cursor reaches it, by swapping its vector into
//!   `now` (the spent `now` vector is parked in `spare` for the next slot
//!   that needs one, so capacity is recycled, not reallocated — at the
//!   price of every vector keeping the capacity of the largest bucket it
//!   has held).
//! * `far` — an unsorted spill for buckets past the ring. It is refilled in
//!   bulk when the cursor comes within half a ring of its minimum, and the
//!   cursor jumps straight to that minimum when the ring runs dry.
//!
//! **Rewind.** Time Warp pushes behind the cursor: a straggler, or a
//! rollback requeueing the events it undid. Such a push moves the cursor
//! back to its bucket — the old current bucket returns to the ring unsorted
//! and ring buckets that fall outside the new window spill to `far` — so
//! `now` only ever holds one bucket. Without the rewind, requeues pile into
//! one ever-growing sorted `now` and every later insert shifts it.
//!
//! **Dense buckets.** A push into the current bucket is a sorted insert,
//! which shifts the entries it lands behind. Those shifts are paid from a
//! credit: the bucket's size when it was sorted, plus `SHIFT_CREDIT` per
//! pop or insert. An insert the credit cannot cover (pushes landing deep in
//! a bucket that holds every pending entry) turns the bucket into a binary
//! heap until it drains, so inserts stay O(log n) amortized instead of
//! O(n), while a rare deep insert into a sparse workload's bucket stays a
//! `Vec::insert`.
//!
//! `remove` finds its entry through the key's bucket — binary search in
//! `now`, a scan by id in a ring bucket or in `far` — so there are no id
//! maps and no tombstones: a removed entry is gone at once.
//!
//! `SHIFT` and `RUNGS` come from a sweep over the benchmark workloads, the
//! per-layer probes and the allocation count (DESIGN.md, "Pending set"):
//! 2^14 ticks is ≈ 61 buckets per step, and 256 rungs cover ≈ 4.2 steps,
//! past every hot-potato send and 98 % of PHOLD's exponential ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

use super::heap::Entry;
use super::EventQueue;
use crate::arena::SlotRef;
use crate::event::{EventId, EventKey, QueueEntry};

/// log2 of the bucket width in ticks (2^14 ≈ `VirtualTime::STEP / 61`).
const SHIFT: u32 = 14;
/// Buckets the ring covers past the cursor; a power of two.
const RUNGS: u64 = 256;
/// Entries sorted inserts may shift per operation on the current bucket,
/// amortized, before it turns into a heap.
const SHIFT_CREDIT: usize = 32;

#[inline]
fn bucket(key: &EventKey) -> u64 {
    key.recv_time.0 >> SHIFT
}

#[inline]
fn slot_of(b: u64) -> usize {
    (b % RUNGS) as usize
}

/// Composite order: logical key, then id (transient duplicates).
#[inline]
fn ckey(e: &QueueEntry) -> (EventKey, EventId) {
    (e.key, e.id)
}

/// Hand `v` a parked vector from `spare` if it has no capacity of its own,
/// so the number of bucket vectors stays bounded by the number in use.
#[inline]
fn recycle_into(v: &mut Vec<QueueEntry>, spare: &mut Vec<Vec<QueueEntry>>) {
    if v.capacity() == 0 {
        if let Some(parked) = spare.pop() {
            *v = parked;
        }
    }
}

/// Take the entry with this id out of an unsorted bucket.
fn take_by_id(v: &mut Vec<QueueEntry>, id: EventId) -> Option<SlotRef> {
    let i = v.iter().position(|e| e.id == id)?;
    Some(v.swap_remove(i).slot)
}

/// Step-bucketed implementation of [`EventQueue`].
pub struct LadderQueue {
    /// The cursor's bucket, sorted descending (empty while `dense` is not).
    now: Vec<QueueEntry>,
    /// The cursor's bucket as a min-heap, once it has turned dense.
    dense: BinaryHeap<Entry>,
    /// Entries sorted inserts into `now` may still shift.
    credit: usize,
    /// The cursor: the bucket `now` holds. Nothing pending lies before it.
    cur: u64,
    /// Unsorted buckets `cur + 1 ..= cur + RUNGS`.
    ring: Box<[Vec<QueueEntry>]>,
    /// Entries across `ring`.
    ring_len: usize,
    /// Unsorted entries past the ring window (and, until the next refill,
    /// some that the window has since reached).
    far: Vec<QueueEntry>,
    /// A lower bound on every bucket in `far` (`u64::MAX` when empty);
    /// always past `cur + RUNGS / 2`.
    far_min: u64,
    /// Empty bucket vectors with capacity, handed to ring slots that need one.
    spare: Vec<Vec<QueueEntry>>,
    /// Total live entries.
    len: usize,
}

impl LadderQueue {
    /// New empty queue.
    pub fn new() -> Self {
        LadderQueue {
            now: Vec::new(),
            dense: BinaryHeap::new(),
            credit: 0,
            cur: 0,
            ring: (0..RUNGS).map(|_| Vec::new()).collect(),
            ring_len: 0,
            far: Vec::new(),
            far_min: u64::MAX,
            spare: Vec::new(),
            len: 0,
        }
    }

    /// File an entry of bucket `b > cur` in the ring or in `far`.
    #[inline]
    fn file(&mut self, e: QueueEntry, b: u64) {
        if b - self.cur <= RUNGS {
            let slot = &mut self.ring[slot_of(b)];
            recycle_into(slot, &mut self.spare);
            slot.push(e);
            self.ring_len += 1;
        } else {
            self.far.push(e);
            self.far_min = self.far_min.min(b);
        }
    }

    /// Insert into the cursor's bucket.
    fn push_current(&mut self, e: QueueEntry) {
        if !self.dense.is_empty() {
            self.dense.push(Entry(e));
            return;
        }
        let k = ckey(&e);
        let pos = self.now.partition_point(|x| ckey(x) > k);
        let shift = self.now.len() - pos;
        self.credit += SHIFT_CREDIT;
        if shift > self.credit {
            self.dense.extend(self.now.drain(..).map(Entry));
            self.dense.push(Entry(e));
        } else {
            self.credit -= shift;
            self.now.insert(pos, e);
        }
    }

    /// Move the cursor back to bucket `b < cur` (see the module docs).
    #[cold]
    fn rewind(&mut self, b: u64) {
        let old = self.cur;
        self.cur = b;
        // Ring buckets past the new window spill to `far`.
        for x in (b + RUNGS).max(old) + 1..=old + RUNGS {
            let slot = &mut self.ring[slot_of(x)];
            if !slot.is_empty() {
                self.ring_len -= slot.len();
                self.far.append(slot);
                self.far_min = self.far_min.min(x);
            }
        }
        // The old current bucket goes back unsorted. Its slot held bucket
        // `old + RUNGS`, which just spilled, so it is empty.
        let back = self.now.len() + self.dense.len();
        if back == 0 {
            return;
        }
        if old - b <= RUNGS {
            let slot = &mut self.ring[slot_of(old)];
            mem::swap(slot, &mut self.now);
            slot.extend(self.dense.drain().map(|e| e.0));
            self.ring_len += back;
            // The push that caused the rewind goes into `now` next.
            recycle_into(&mut self.now, &mut self.spare);
        } else {
            self.far.append(&mut self.now);
            self.far.extend(self.dense.drain().map(|e| e.0));
            self.far_min = self.far_min.min(old);
        }
    }

    /// Make the cursor's bucket non-empty; `false` if the queue is empty.
    #[inline]
    fn settle(&mut self) -> bool {
        if self.now.is_empty() && self.dense.is_empty() {
            if self.len == 0 {
                return false;
            }
            self.advance();
        }
        true
    }

    /// Move the cursor to the next non-empty bucket and sort it into `now`.
    fn advance(&mut self) {
        while self.now.is_empty() && self.dense.is_empty() {
            debug_assert!(self.ring_len + self.far.len() == self.len);
            match self.next_ring_bucket() {
                Some(b) => {
                    self.cur = b;
                    let spent = mem::replace(&mut self.now, mem::take(&mut self.ring[slot_of(b)]));
                    if spent.capacity() > 0 {
                        self.spare.push(spent);
                    }
                    self.ring_len -= self.now.len();
                    self.credit = self.now.len();
                    self.now.sort_unstable_by_key(|e| Reverse(ckey(e)));
                }
                // Ring dry (or `far` may hold something earlier): jump.
                // Nothing is pending between the cursor and `far_min`.
                None => self.cur = self.far_min - 1,
            }
            if self.far_min <= self.cur + RUNGS / 2 {
                self.refill();
            }
        }
    }

    /// The first non-empty ring bucket, if it precedes everything in `far`.
    fn next_ring_bucket(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let end = self.far_min.min(self.cur + RUNGS + 1);
        (self.cur + 1..end).find(|&b| !self.ring[slot_of(b)].is_empty())
    }

    /// Move every `far` entry inside the ring window into the ring, and
    /// make `far_min` exact.
    fn refill(&mut self) {
        let limit = self.cur + RUNGS;
        let mut min = u64::MAX;
        let mut i = 0;
        while i < self.far.len() {
            let b = bucket(&self.far[i].key);
            if b <= limit {
                let e = self.far.swap_remove(i);
                self.file(e, b);
            } else {
                min = min.min(b);
                i += 1;
            }
        }
        self.far_min = min;
    }

    /// Remove by id from the cursor's bucket.
    fn remove_current(&mut self, id: EventId, key: EventKey) -> Option<SlotRef> {
        if self.dense.is_empty() {
            let i = self
                .now
                .binary_search_by(|x| (key, id).cmp(&ckey(x)))
                .ok()?;
            return Some(self.now.remove(i).slot);
        }
        let mut found = None;
        self.dense.retain(|e| {
            let hit = e.0.id == id;
            if hit {
                found = Some(e.0.slot);
            }
            !hit
        });
        found
    }

    fn entries(&self) -> impl Iterator<Item = &QueueEntry> {
        self.now
            .iter()
            .chain(self.dense.iter().map(|e| &e.0))
            .chain(self.ring.iter().flatten())
            .chain(&self.far)
    }
}

impl Default for LadderQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue for LadderQueue {
    #[inline]
    fn push(&mut self, e: QueueEntry) {
        let b = bucket(&e.key);
        self.len += 1;
        if b > self.cur {
            self.file(e, b);
        } else {
            if b < self.cur {
                self.rewind(b);
            }
            self.push_current(e);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<QueueEntry> {
        if !self.settle() {
            return None;
        }
        self.len -= 1;
        match self.now.pop() {
            Some(e) => {
                self.credit += SHIFT_CREDIT;
                Some(e)
            }
            None => self.dense.pop().map(|e| e.0),
        }
    }

    #[inline]
    fn peek_key(&mut self) -> Option<EventKey> {
        if !self.settle() {
            return None;
        }
        match self.now.last() {
            Some(e) => Some(e.key),
            None => self.dense.peek().map(|e| e.0.key),
        }
    }

    fn remove(&mut self, id: EventId, key: EventKey) -> Option<SlotRef> {
        let b = bucket(&key);
        let slot = if b == self.cur {
            self.remove_current(id, key)
        } else if b > self.cur {
            let ring = if b - self.cur <= RUNGS {
                take_by_id(&mut self.ring[slot_of(b)], id)
            } else {
                None
            };
            if ring.is_some() {
                self.ring_len -= 1;
                ring
            } else if b >= self.far_min {
                take_by_id(&mut self.far, id)
            } else {
                None
            }
        } else {
            // Nothing is pending behind the cursor.
            None
        }?;
        self.len -= 1;
        Some(slot)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn check_invariants(&self) -> Result<(), String> {
        let cur = self.cur;
        if !self.now.is_empty() && !self.dense.is_empty() {
            return Err("ladder: current bucket is both sorted and a heap".into());
        }
        for pair in self.now.windows(2) {
            if ckey(&pair[0]) <= ckey(&pair[1]) {
                return Err(format!(
                    "ladder: now not strictly descending at t={}",
                    pair[1].key.recv_time.0
                ));
            }
        }
        for e in self.now.iter().chain(self.dense.iter().map(|e| &e.0)) {
            if bucket(&e.key) != cur {
                return Err(format!(
                    "ladder: t={} (bucket {}) in the current bucket {cur}",
                    e.key.recv_time.0,
                    bucket(&e.key)
                ));
            }
        }
        let mut ring_len = 0;
        for (s, slot) in self.ring.iter().enumerate() {
            ring_len += slot.len();
            for e in slot {
                let b = bucket(&e.key);
                if b <= cur || b - cur > RUNGS || slot_of(b) != s {
                    return Err(format!(
                        "ladder: t={} (bucket {b}) filed in ring slot {s}, cursor at {cur}",
                        e.key.recv_time.0
                    ));
                }
            }
        }
        if ring_len != self.ring_len {
            return Err(format!(
                "ladder: {ring_len} entries across the ring, ring_len says {}",
                self.ring_len
            ));
        }
        if self.far_min <= cur + RUNGS / 2 {
            return Err(format!(
                "ladder: far_min {} within half a ring of the cursor {cur}",
                self.far_min
            ));
        }
        if let Some(e) = self.far.iter().find(|e| bucket(&e.key) < self.far_min) {
            return Err(format!(
                "ladder: t={} in far below far_min {}",
                e.key.recv_time.0, self.far_min
            ));
        }
        let total = self.now.len() + self.dense.len() + ring_len + self.far.len();
        if total != self.len {
            return Err(format!(
                "ladder: {total} entries held, len says {}",
                self.len
            ));
        }
        Ok(())
    }

    fn audit_digest(&self) -> Option<u64> {
        Some(self.entries().fold(0u64, |acc, e| {
            acc ^ crate::audit::event_fingerprint(e.id, &e.key)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::ev;
    use super::super::EventQueue;
    use super::*;

    const W: u64 = 1 << SHIFT;

    fn drain_times(q: &mut LadderQueue) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            q.check_invariants().unwrap();
            out.push(e.key.recv_time.0);
        }
        out
    }

    #[test]
    fn straggler_rewinds_the_cursor() {
        let mut q = LadderQueue::new();
        for t in [5 * W + 1, 5 * W + 2, 6 * W] {
            q.push(ev(t, 0, t));
        }
        assert_eq!(q.pop().unwrap().key.recv_time.0, 5 * W + 1);
        // Inside the window of a cursor at bucket 5.
        q.push(ev((RUNGS + 4) * W, 0, 0));
        assert!(q.far.is_empty());
        // Behind the cursor: its bucket becomes current again, and bucket
        // RUNGS + 4 falls out of the window and spills to far.
        q.push(ev(2 * W, 0, 1));
        q.check_invariants().unwrap();
        assert_eq!(q.cur, 2);
        assert_eq!(q.far.len(), 1);
        assert_eq!(
            drain_times(&mut q),
            vec![2 * W, 5 * W + 2, 6 * W, (RUNGS + 4) * W]
        );
    }

    #[test]
    fn far_future_is_reached_by_a_jump() {
        let mut q = LadderQueue::new();
        q.push(ev(10, 0, 0));
        q.push(ev(1_000_000_000, 0, 1));
        q.push(ev(1_000_000_000 + 3 * W, 0, 2));
        assert_eq!(q.far.len(), 2);
        assert_eq!(
            drain_times(&mut q),
            vec![10, 1_000_000_000, 1_000_000_000 + 3 * W]
        );
    }

    #[test]
    fn far_entry_inside_the_window_pops_before_later_ring_entries() {
        let mut q = LadderQueue::new();
        q.push(ev(50 * W, 0, 0));
        // Past the ring of a cursor at 0, so it goes to far.
        q.push(ev((RUNGS + 44) * W, 0, 1));
        assert_eq!(q.pop().unwrap().key.recv_time.0, 50 * W);
        // The cursor at 50 has brought it inside the window, but not
        // within half a ring, so it is still in far; this later entry
        // lands in the ring.
        q.push(ev((RUNGS + 49) * W, 0, 2));
        assert_eq!((q.far.len(), q.ring_len), (1, 1));
        assert_eq!(
            drain_times(&mut q),
            vec![(RUNGS + 44) * W, (RUNGS + 49) * W]
        );
    }

    #[test]
    fn far_refills_before_the_cursor_reaches_it() {
        let mut q = LadderQueue::new();
        // Spread over three ring spans; most start in far.
        let times: Vec<u64> = (0..600).map(|i| i * W / 2 + i % 7).collect();
        for (i, &t) in times.iter().rev().enumerate() {
            q.push(ev(t, 0, i as u64));
        }
        q.check_invariants().unwrap();
        assert!(!q.far.is_empty());
        assert_eq!(drain_times(&mut q), times);
    }

    #[test]
    fn dense_bucket_turns_into_a_heap_and_back() {
        let mut q = LadderQueue::new();
        let n = 512;
        for i in 0..n {
            q.push(ev(W + (i * 7919) % n, 0, i));
        }
        // First pop sorts the bucket. Pushes that land behind all of it
        // spend the shift credit, and the bucket turns into a heap.
        assert_eq!(q.pop().unwrap().key.recv_time.0, W);
        let mut deep = 0;
        while q.dense.is_empty() {
            q.push(ev(W + n + deep, 1, deep));
            deep += 1;
        }
        assert!(deep <= 3 && q.now.is_empty());
        q.check_invariants().unwrap();
        let victim = ev(W + (5 * 7919) % n, 0, 5);
        assert_eq!(q.remove(victim.id, victim.key), Some(victim.slot));
        q.push(ev(3 * W, 0, 0));
        let got = drain_times(&mut q);
        assert_eq!(got.len() as u64, n + deep - 1);
        assert!(got.windows(2).all(|p| p[0] <= p[1]));
        assert_eq!(*got.last().unwrap(), 3 * W);
        assert!(q.dense.is_empty());
    }

    #[test]
    fn rewinds_do_not_leak_bucket_vectors() {
        let mut q = LadderQueue::new();
        for round in 1..1000 {
            let t = round * 4 * W;
            q.push(ev(t, 0, 0));
            q.push(ev(t + W, 0, 1));
            assert_eq!(q.pop().unwrap().key.recv_time.0, t);
            // A straggler while `now` still holds an entry, then one while
            // it is empty.
            q.push(ev(t + 5, 0, 2));
            q.push(ev(t - W, 0, 3));
            q.push(ev(t - 2 * W, 0, 4));
            for want in [t - 2 * W, t - W, t + 5, t + W] {
                assert_eq!(q.pop().unwrap().key.recv_time.0, want);
            }
        }
        let vectors = q.spare.len() + q.ring.iter().filter(|v| v.capacity() > 0).count();
        assert!(
            vectors <= 8,
            "{vectors} bucket vectors for three live buckets"
        );
    }

    #[test]
    fn remove_finds_entries_in_every_region() {
        let mut q = LadderQueue::new();
        let cur = ev(W + 5, 0, 0);
        let ring = ev(9 * W, 0, 1);
        let far = ev((2 * RUNGS + 9) * W, 0, 2);
        for e in [cur, ring, far] {
            q.push(e);
        }
        assert_eq!(q.peek_key(), Some(cur.key));
        for e in [far, ring, cur] {
            assert_eq!(q.remove(e.id, e.key), Some(e.slot));
            assert_eq!(q.remove(e.id, e.key), None);
            q.check_invariants().unwrap();
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn spent_buckets_recycle_their_capacity() {
        let mut q = LadderQueue::new();
        for round in 0..4 * RUNGS {
            for i in 0..8 {
                q.push(ev(round * W + i, 0, i));
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        // Two vectors take turns (`now` and the bucket being filled), not
        // one per rung.
        assert!(q.ring.iter().all(|v| v.capacity() == 0));
        assert!(q.spare.len() <= 1);
    }
}
