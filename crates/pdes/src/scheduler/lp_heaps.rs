//! The windowed arm's pending set (DESIGN.md, "The windowed arm"): one
//! small binary min-heap per local LP, holding each pending event's key and
//! payload inline ([`InlineEntry`]). It is not an [`EventQueue`]: a
//! rollback-free run never cancels, so it needs no removal, no ids and no
//! arena slots, and it is popped LP by LP, not in global key order.
//!
//! [`EventQueue`]: super::EventQueue

use std::collections::BinaryHeap;

use crate::audit::event_fingerprint;
use crate::event::{EventId, EventKey, InlineEntry, LpId};

/// The id a windowed event is recorded and audited under: keys are unique
/// on a rollback-free run, so only messages on the wire need a real one.
pub(crate) const NO_ID: EventId = EventId(0);

/// The windowed arm's pending set: one min-heap of [`InlineEntry`]s per
/// local LP (index = local LP), holding at most `cap` live events — the
/// arena's contract ([`EngineConfig::arena_slots`]). A push past the cap
/// still files the event; [`over_cap`](Self::over_cap) reports it, and the
/// owner fails the run.
///
/// [`EngineConfig::arena_slots`]: crate::config::EngineConfig::arena_slots
pub(crate) struct LpHeaps<P> {
    heaps: Vec<BinaryHeap<InlineEntry<P>>>,
    len: usize,
    /// High-water mark of `len`.
    peak: usize,
    cap: u32,
}

impl<P> LpHeaps<P> {
    pub(crate) fn new(n_lps: usize, cap: u32) -> Self {
        LpHeaps {
            heaps: (0..n_lps).map(|_| BinaryHeap::new()).collect(),
            len: 0,
            peak: 0,
            cap,
        }
    }

    /// File an event under local LP `li`.
    #[inline]
    pub(crate) fn push(&mut self, li: usize, key: EventKey, payload: P) {
        self.heaps[li].push(InlineEntry { key, payload });
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// The cap, if more than `cap` events are live.
    #[inline]
    pub(crate) fn over_cap(&self) -> Option<u32> {
        (self.len > self.cap as usize).then_some(self.cap)
    }

    /// Live events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// High-water mark of [`len`](Self::len).
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Pop local LP `li`'s smallest event if it is due before `limit`.
    #[inline]
    pub(crate) fn pop_below(&mut self, li: usize, limit: u64) -> Option<InlineEntry<P>> {
        let heap = &mut self.heaps[li];
        if heap.peek()?.key.recv_time.0 >= limit {
            return None;
        }
        self.len -= 1;
        heap.pop()
    }

    /// Receive time (ticks) of local LP `li`'s smallest event, `u64::MAX`
    /// if it has none.
    #[inline]
    pub(crate) fn head(&self, li: usize) -> u64 {
        let head = self.heaps[li].peek();
        head.map_or(u64::MAX, |e| e.key.recv_time.0)
    }

    /// Every filed key, heap by heap.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &EventKey> {
        self.heaps.iter().flat_map(|h| h.iter().map(|e| &e.key))
    }

    /// The auditor's view: the XOR of every entry's fingerprint, and a walk
    /// checking that each entry is filed under its own destination
    /// (`lps[li]`) and each heap's storage keeps heap order.
    pub(crate) fn audit(&self, lps: &[LpId]) -> (u64, Result<(), String>) {
        let digest = self.keys().fold(0, |x, k| x ^ event_fingerprint(NO_ID, k));
        let mut walk = Ok(());
        for (li, v) in self.heaps.iter().map(BinaryHeap::as_slice).enumerate() {
            if let Some(e) = v.iter().find(|e| e.key.dst != lps[li]) {
                walk = walk.and(Err(format!("LP {} heap holds {:?}", lps[li], e.key)));
            }
            if (1..v.len()).any(|i| v[(i - 1) / 2].key > v[i].key) {
                walk = walk.and(Err(format!("LP {} heap is out of order", lps[li])));
            }
        }
        (digest, walk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualTime;

    fn key(t: u64, dst: LpId, tie: u64) -> EventKey {
        EventKey {
            recv_time: VirtualTime(t),
            dst,
            tie,
            src: 0,
            send_time: VirtualTime::ZERO,
        }
    }

    #[test]
    fn pops_each_lp_in_key_order_below_the_limit() {
        let mut h = LpHeaps::new(2, 8);
        for (li, t, tie) in [(0, 5, 1), (0, 3, 9), (1, 4, 0), (0, 3, 2), (0, 9, 0)] {
            h.push(li, key(t, li as LpId, tie), ());
        }
        assert_eq!((h.len(), h.peak(), h.head(0), h.head(1)), (5, 5, 3, 4));
        let popped: Vec<_> = std::iter::from_fn(|| h.pop_below(0, 9).map(|e| e.key)).collect();
        assert_eq!(popped, [key(3, 0, 2), key(3, 0, 9), key(5, 0, 1)]);
        assert_eq!((h.len(), h.peak(), h.head(0)), (2, 5, 9));
        assert!(h.pop_below(1, 4).is_none(), "the limit is exclusive");
    }

    #[test]
    fn the_cap_is_reported_not_enforced_by_dropping() {
        let mut h = LpHeaps::new(1, 2);
        h.push(0, key(1, 0, 0), ());
        h.push(0, key(2, 0, 0), ());
        assert_eq!(h.over_cap(), None);
        h.push(0, key(3, 0, 0), ());
        assert_eq!(
            h.over_cap(),
            Some(2),
            "a third live event is over a cap of 2"
        );
        assert_eq!(h.len(), 3);
        h.pop_below(0, 9);
        assert_eq!((h.over_cap(), h.peak()), (None, 3));
    }

    #[test]
    fn the_audit_digest_folds_every_key_and_the_walk_finds_misfiled_ones() {
        let mut h = LpHeaps::new(2, 8);
        let keys = [key(1, 10, 0), key(2, 11, 0), key(3, 10, 1)];
        h.push(0, keys[0], ());
        h.push(1, keys[1], ());
        h.push(0, keys[2], ());
        let fold = keys.iter().fold(0, |x, k| x ^ event_fingerprint(NO_ID, k));
        let (digest, walk) = h.audit(&[10, 11]);
        assert_eq!((digest, walk), (fold, Ok(())));
        let (_, walk) = h.audit(&[10, 12]);
        assert!(walk.unwrap_err().contains("LP 12"));
    }
}
