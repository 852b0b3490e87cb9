//! The windowed arm's pending set (DESIGN.md, "The windowed arm"): one
//! unsorted inbox of inline events ([`InlineEntry`]) per local LP, sorted
//! when the LP's visit opens. Not an [`EventQueue`]: a rollback-free run
//! never cancels, so it needs no removal, ids or arena slots.
//!
//! [`EventQueue`]: super::EventQueue

use crate::audit::event_fingerprint;
use crate::event::{EventId, EventKey, InlineEntry, LpId};

/// The id a windowed event is recorded and audited under: keys are unique
/// on a rollback-free run, so only messages on the wire need a real one.
pub(crate) const NO_ID: EventId = EventId(0);

/// Per local LP (index = local LP) its events in arrival order, plus the
/// open visit's due events in `run`, sorted descending so the smallest key
/// pops off the end. At most `cap` events are live, the arena's contract
/// ([`EngineConfig::arena_slots`]): a push past it still files the event,
/// [`over_cap`](Self::over_cap) reports it, and the owner fails the run.
///
/// [`EngineConfig::arena_slots`]: crate::config::EngineConfig::arena_slots
pub(crate) struct LpInboxes<P> {
    /// Per local LP: its inbox's smallest receive time (ticks, `u64::MAX`
    /// if empty) and the inbox, side by side in one cache line.
    inboxes: Vec<(u64, Vec<InlineEntry<P>>)>,
    run: Vec<InlineEntry<P>>,
    /// The open visit's local LP and limit.
    visit: Option<(usize, u64)>,
    len: usize,
    /// High-water mark of `len`.
    peak: usize,
    cap: u32,
}

impl<P> LpInboxes<P> {
    pub(crate) fn new(n_lps: usize, cap: u32) -> Self {
        LpInboxes {
            inboxes: (0..n_lps).map(|_| (u64::MAX, Vec::new())).collect(),
            run: Vec::new(),
            visit: None,
            len: 0,
            peak: 0,
            cap,
        }
    }

    /// File an event under local LP `li`: into the run in key order if it
    /// is due in `li`'s open visit, else at the end of `li`'s inbox.
    #[inline]
    pub(crate) fn push(&mut self, li: usize, key: EventKey, payload: P) {
        let t = key.recv_time.0;
        let entry = InlineEntry { key, payload };
        match self.visit {
            Some((open, limit)) if open == li && t < limit => {
                let at = self.run.partition_point(|e| e.key > key);
                self.run.insert(at, entry);
            }
            _ => {
                let (min, inbox) = &mut self.inboxes[li];
                *min = (*min).min(t);
                inbox.push(entry);
            }
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Open local LP `li`'s visit below `limit` if anything in its inbox is
    /// due before it, else return `false`. The inbox's buffer becomes the
    /// run, entries at or past `limit` go back, and the rest are sorted: a
    /// due entry moves only in the sort, but the whole inbox is scanned.
    pub(crate) fn open(&mut self, li: usize, limit: u64) -> bool {
        debug_assert!(self.visit.is_none(), "a visit is already open");
        let (min, inbox) = &mut self.inboxes[li];
        if *min >= limit {
            return false;
        }
        std::mem::swap(inbox, &mut self.run);
        inbox.extend(self.run.extract_if(.., |e| e.key.recv_time.0 >= limit));
        *min = min_time(inbox);
        self.run.sort_unstable_by_key(|e| std::cmp::Reverse(e.key));
        self.visit = Some((li, limit));
        true
    }

    /// The open visit's smallest due event, `None` once the run is empty.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<InlineEntry<P>> {
        self.run.pop().inspect(|_| self.len -= 1)
    }

    /// Close the open visit; its run must be popped empty.
    pub(crate) fn close(&mut self) {
        debug_assert!(self.run.is_empty(), "closed a visit with events due");
        self.visit = None;
    }

    /// Whether a visit is open.
    pub(crate) fn is_open(&self) -> bool {
        self.visit.is_some()
    }

    /// The cap, if more than `cap` events are live.
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

    /// Receive time (ticks) of the smallest event in local LP `li`'s inbox,
    /// `u64::MAX` if it has none: outside `li`'s visit, its smallest event.
    #[inline]
    pub(crate) fn head(&self, li: usize) -> u64 {
        self.inboxes[li].0
    }

    /// Every filed key, inbox by inbox, then the run's.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &EventKey> {
        let entries = self.inboxes.iter().flat_map(|(_, v)| v).chain(&self.run);
        entries.map(|e| &e.key)
    }

    /// The auditor's view: the XOR of every entry's fingerprint, and a walk
    /// checking that each entry is filed under its own destination
    /// (`lps[li]`), each inbox's minimum is its smallest receive time, and
    /// the run is empty outside a visit.
    pub(crate) fn audit(&self, lps: &[LpId]) -> (u64, Result<(), String>) {
        let digest = self.keys().fold(0, |x, k| x ^ event_fingerprint(NO_ID, k));
        let visit = self.visit.map(|(li, _)| (li, &self.run));
        let mut filed = self.inboxes.iter().map(|(_, v)| v).enumerate().chain(visit);
        let misfiled = filed.find_map(|(li, v)| v.iter().find(|e| e.key.dst != lps[li]));
        let stale = self.inboxes.iter().position(|(min, v)| *min != min_time(v));
        let walk = match (misfiled, stale) {
            (Some(e), _) => Err(format!("{:?} is misfiled", e.key)),
            (_, Some(li)) => Err(format!("LP {} inbox minimum is stale", lps[li])),
            _ if self.visit.is_none() && !self.run.is_empty() => {
                Err("the run holds events outside a visit".into())
            }
            _ => Ok(()),
        };
        (digest, walk)
    }
}

/// Smallest receive time (ticks) in `v`, `u64::MAX` if it is empty.
fn min_time<P>(v: &[InlineEntry<P>]) -> u64 {
    v.iter().fold(u64::MAX, |m, e| m.min(e.key.recv_time.0))
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

    /// Pop the open visit dry and close it.
    fn drain(s: &mut LpInboxes<()>) -> Vec<EventKey> {
        let popped = std::iter::from_fn(|| s.pop().map(|e| e.key)).collect();
        s.close();
        popped
    }

    #[test]
    fn unsorted_files_come_out_of_a_visit_in_key_order() {
        let mut s = LpInboxes::new(2, 8);
        for (li, t, tie) in [(0, 5, 1), (0, 3, 9), (1, 4, 0), (0, 3, 2), (0, 1, 7)] {
            s.push(li, key(t, li as LpId, tie), ());
        }
        assert_eq!((s.len(), s.peak(), s.head(0), s.head(1)), (5, 5, 1, 4));
        assert!(s.open(0, 9));
        let popped = drain(&mut s);
        let order = [key(1, 0, 7), key(3, 0, 2), key(3, 0, 9), key(5, 0, 1)];
        assert_eq!(popped, order);
        assert_eq!((s.len(), s.peak(), s.head(0)), (1, 5, u64::MAX));
    }

    #[test]
    fn a_same_time_self_send_with_a_smaller_tie_pops_before_the_rest() {
        let mut s = LpInboxes::new(1, 8);
        for (t, tie) in [(2, 20), (2, 30), (1, 10)] {
            s.push(0, key(t, 0, tie), ());
        }
        assert!(s.open(0, 4));
        assert_eq!(s.pop().unwrap().key, key(1, 0, 10));
        // A self-send due in the visit joins the run in key order; one at
        // or past the limit waits in the inbox.
        s.push(0, key(2, 0, 5), ());
        s.push(0, key(4, 0, 0), ());
        assert_eq!(drain(&mut s), [key(2, 0, 5), key(2, 0, 20), key(2, 0, 30)]);
        assert_eq!((s.len(), s.head(0)), (1, 4));
    }

    #[test]
    fn entries_at_or_past_the_limit_stay_in_the_inbox() {
        let mut s = LpInboxes::new(1, 8);
        for t in [7, 2, 9, 3] {
            s.push(0, key(t, 0, 0), ());
        }
        assert!(!s.open(0, 2), "the limit is exclusive");
        assert!(!s.is_open());
        assert!(s.open(0, 7));
        assert_eq!(drain(&mut s), [key(2, 0, 0), key(3, 0, 0)]);
        assert_eq!((s.len(), s.head(0)), (2, 7));
        // Entries survive repeated partitions until their window comes.
        assert!(!s.open(0, 7));
        assert!(s.open(0, 8));
        assert_eq!(drain(&mut s), [key(7, 0, 0)]);
        assert_eq!((s.len(), s.head(0)), (1, 9));
    }

    #[test]
    fn the_cap_is_reported_not_enforced_by_dropping() {
        let mut s = LpInboxes::new(1, 2);
        s.push(0, key(1, 0, 0), ());
        s.push(0, key(2, 0, 0), ());
        assert_eq!(s.over_cap(), None);
        s.push(0, key(3, 0, 0), ());
        assert_eq!(
            s.over_cap(),
            Some(2),
            "a third live event is over a cap of 2"
        );
        assert!(s.open(0, 2));
        assert_eq!((s.len(), s.over_cap()), (3, Some(2)), "the run counts");
        s.pop();
        s.close();
        assert_eq!((s.len(), s.over_cap(), s.peak()), (2, None, 3));
    }

    #[test]
    fn the_audit_digest_folds_every_key_and_the_walk_finds_faults() {
        let mut s = LpInboxes::new(2, 8);
        let keys = [key(1, 10, 0), key(2, 11, 0), key(3, 10, 1)];
        s.push(0, keys[0], ());
        s.push(1, keys[1], ());
        s.push(0, keys[2], ());
        let fold = keys.iter().fold(0, |x, k| x ^ event_fingerprint(NO_ID, k));
        assert_eq!(s.audit(&[10, 11]), (fold, Ok(())));
        let walk = |s: &LpInboxes<()>, lps: [LpId; 2]| s.audit(&lps).1.unwrap_err();
        // Mid-visit, the run's entries are in the digest and the walk.
        assert!(s.open(0, 4));
        assert_eq!(s.audit(&[10, 11]), (fold, Ok(())));
        assert!(walk(&s, [12, 11]).contains("dst: 10"));
        s.visit = None;
        assert!(walk(&s, [10, 11]).contains("outside a visit"));
        s.pop();
        s.pop();
        assert!(walk(&s, [10, 12]).contains("dst: 11"));
        s.inboxes[1].0 = 3;
        assert!(walk(&s, [10, 11]).contains("LP 11 inbox minimum is stale"));
    }
}
