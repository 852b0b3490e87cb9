//! Incremental (barrier-light) GVT reduction state, extracted from the
//! parallel kernel so the protocol is a self-contained object the
//! [`mcheck`](crate::mcheck) model checker can explore directly.
//!
//! The protocol is Mattern-style two-cut, shared-memory flavored:
//!
//! * PE 0 **opens** an epoch by bumping [`IncGvt::open_round`]; workers
//!   notice the bump ([`IncGvt::current_epoch`]) at their next loop
//!   boundary.
//! * Each PE **participates** asynchronously — flush, drain its inbox dry,
//!   then [`IncGvt::publish_report`] with
//!   `min(queue head, fault-held messages, sends since its last report)`.
//!   The round slot is stored with `Release` so that everything the PE
//!   pushed into the comm rings before reporting is visible to anyone who
//!   acquires the slot.
//! * PE 0 **closes** the round ([`IncGvt::try_close`]) once every round
//!   slot reaches the epoch, publishing `max(previous GVT, min(reports))` —
//!   `max` because a report can be conservative (stale `send_min`) and the
//!   published GVT must never move backwards.
//!
//! The safety property (checked exhaustively by the `gvt_inc` model): the
//! published GVT never exceeds the true minimum over all live event times
//! and in-flight send times, so committing and fossil-collecting below it
//! is always safe.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};

use crate::sync::{CachePadded, MAtomicBool, MAtomicU64};

/// Shared state of the incremental GVT protocol (plus the published GVT, the
/// round-request flag and the report slots, which the barriered protocol
/// reuses).
pub(crate) struct IncGvt {
    /// Last computed GVT (ticks). Written only by PE 0; read by everyone.
    gvt: MAtomicU64,
    /// Set by any PE to request a round; cleared by PE 0 inside it.
    requested: MAtomicBool,
    /// Epoch counter, bumped by PE 0 to open a reduction round. A PE
    /// observing `epoch` past its own last-participated round reports
    /// asynchronously — no barrier.
    epoch: MAtomicU64,
    /// Per-PE published minimum for the open epoch, or for the current
    /// barriered round (ticks).
    reports: Vec<CachePadded<MAtomicU64>>,
    /// Epoch each PE's report corresponds to; PE 0 closes the round once
    /// every slot reaches the current epoch (release/acquire pairs with the
    /// report store).
    rounds: Vec<CachePadded<MAtomicU64>>,
}

impl IncGvt {
    pub(crate) fn new(n_pes: usize, initial_gvt: u64) -> Self {
        IncGvt {
            gvt: MAtomicU64::new(initial_gvt),
            requested: MAtomicBool::new(false),
            epoch: MAtomicU64::new(0),
            reports: (0..n_pes)
                .map(|_| CachePadded(MAtomicU64::new(u64::MAX)))
                .collect(),
            rounds: (0..n_pes)
                .map(|_| CachePadded(MAtomicU64::new(0)))
                .collect(),
        }
    }

    /// The last published GVT.
    #[inline]
    pub(crate) fn read(&self) -> u64 {
        // ORDER: SeqCst — GVT gates commits/fossil collection and the
        // lookahead window; keep it in the same total order as the
        // sent/received quiescence counters of the barriered protocol.
        self.gvt.load(SeqCst)
    }

    /// Publish a new GVT directly (barriered protocol's PE 0, and resume).
    #[inline]
    pub(crate) fn publish(&self, gvt: u64) {
        // ORDER: SeqCst — see `read`; the barriered protocol publishes
        // between two barriers, so this is belt-and-braces, but GVT is not
        // on the hot path.
        self.gvt.store(gvt, SeqCst);
    }

    /// Ask PE 0 to run a GVT round (idempotent).
    #[inline]
    pub(crate) fn request_round(&self) {
        // ORDER: SeqCst — the flag races with PE 0 clearing it; SeqCst keeps
        // request/clear in one total order so a request can at worst trigger
        // one extra round, never be lost while visible.
        self.requested.store(true, SeqCst);
    }

    #[inline]
    pub(crate) fn clear_request(&self) {
        // ORDER: SeqCst — pairs with `request_round`.
        self.requested.store(false, SeqCst);
    }

    #[inline]
    pub(crate) fn round_requested(&self) -> bool {
        // ORDER: SeqCst — pairs with `request_round`.
        self.requested.load(SeqCst)
    }

    /// The current epoch. A PE participates when this moves past the last
    /// epoch it reported for.
    #[inline]
    pub(crate) fn current_epoch(&self) -> u64 {
        // ORDER: Acquire — pairs with the Release bump in `open_round`, so
        // a worker that observes the new epoch also observes everything
        // PE 0 did before opening it.
        self.epoch.load(Acquire)
    }

    /// PE 0: open the next reduction round.
    #[inline]
    pub(crate) fn open_round(&self) {
        #[cfg(mcheck)]
        if crate::mcheck::mutation::active(crate::mcheck::mutation::Mutation::GvtSkipEpochBump) {
            // Seeded mutation: "open" a round without bumping the epoch.
            // Every round slot still equals the old epoch, so `try_close`
            // succeeds instantly with stale reports — the `gvt_inc` model's
            // every-PE-participated invariant catches it.
            return;
        }
        // ORDER: Release — pairs with the Acquire in `current_epoch`.
        self.epoch.fetch_add(1, Release);
    }

    /// Publish this PE's report for `epoch`. The caller must have flushed
    /// its send buffers and drained its inbox dry first — the report must
    /// lower-bound everything this PE will execute or has in flight.
    #[inline]
    pub(crate) fn publish_report(&self, pe: usize, report: u64, epoch: u64) {
        // ORDER: Relaxed — the paired Release on the round slot below
        // publishes this value (and the ring traffic preceding it) to PE 0's
        // Acquire loop; the value itself needs no extra ordering.
        self.reports[pe].0.store(report, Relaxed);
        #[cfg(mcheck)]
        let round_order = crate::mcheck::mutation::order_or_relaxed(
            crate::mcheck::mutation::Mutation::GvtReportRoundRelaxed,
            Release,
        );
        #[cfg(not(mcheck))]
        let round_order = Release;
        // ORDER: Release — pairs with PE 0's Acquire load in `try_close`:
        // everything this PE sent before the report is in a ring (or counted
        // in the report) by the time PE 0 sees the round as complete.
        self.rounds[pe].0.store(epoch, round_order);
    }

    /// PE 0: close the round for `epoch` if every report has landed.
    /// Returns the new published GVT on success.
    #[inline]
    pub(crate) fn try_close(&self, epoch: u64) -> Option<u64> {
        let all_in = self
            .rounds
            .iter()
            // ORDER: Acquire — pairs with the Release store in
            // `publish_report`; once every slot reads `epoch`, every
            // report value (and all pre-report ring traffic) is visible.
            .all(|r| r.0.load(Acquire) == epoch);
        if !all_in {
            return None;
        }
        // `max`: a report can be conservative (stale send_min), and the
        // published GVT must never move backwards.
        // ORDER: SeqCst — see `read`.
        let gvt = self.gvt.load(SeqCst).max(self.min_report());
        // ORDER: SeqCst — see `publish`.
        self.gvt.store(gvt, SeqCst);
        Some(gvt)
    }

    /// Barriered protocol: publish `pe`'s minimum for the current round
    /// into its report slot, between the two barriers that close the
    /// round's quiescence check.
    #[inline]
    pub(crate) fn publish_min(&self, pe: usize, min: u64) {
        // ORDER: Relaxed — every reader loads it after the barrier that
        // follows this store; the barrier's mutex orders the two.
        self.reports[pe].0.store(min, Relaxed);
    }

    /// `pe`'s last published report (telemetry: the PE's LVT for a round).
    #[inline]
    pub(crate) fn report(&self, pe: usize) -> u64 {
        // ORDER: Relaxed — read back by the PE that stored it.
        self.reports[pe].0.load(Relaxed)
    }

    /// The minimum over every PE's report slot. The caller must already be
    /// ordered after every store it folds: `try_close` by its Acquire pass
    /// over the round slots, the barriered protocol by the barrier after
    /// [`publish_min`](Self::publish_min).
    #[inline]
    pub(crate) fn min_report(&self) -> u64 {
        self.reports
            .iter()
            // ORDER: Relaxed — ordered by the caller (see above).
            .map(|r| r.0.load(Relaxed))
            .min()
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_single_epoch() {
        let g = IncGvt::new(2, 0);
        assert_eq!(g.read(), 0);
        assert!(!g.round_requested());
        g.request_round();
        assert!(g.round_requested());
        g.open_round();
        let e = g.current_epoch();
        assert_eq!(e, 1);
        // Not closable until both PEs report for epoch 1.
        assert_eq!(g.try_close(e), None);
        g.publish_report(0, 42, e);
        assert_eq!(g.try_close(e), None);
        g.publish_report(1, 37, e);
        assert_eq!(g.try_close(e), Some(37));
        assert_eq!(g.read(), 37);
        g.clear_request();
        assert!(!g.round_requested());
    }

    #[test]
    fn gvt_is_monotone_under_stale_reports() {
        let g = IncGvt::new(1, 0);
        g.open_round();
        g.publish_report(0, 100, 1);
        assert_eq!(g.try_close(1), Some(100));
        // A conservative (lower) report can never move GVT backwards.
        g.open_round();
        g.publish_report(0, 50, 2);
        assert_eq!(g.try_close(2), Some(100));
        assert_eq!(g.read(), 100);
    }

    #[test]
    fn publish_overrides_for_resume() {
        let g = IncGvt::new(3, 7);
        assert_eq!(g.read(), 7);
        g.publish(99);
        assert_eq!(g.read(), 99);
    }
}
