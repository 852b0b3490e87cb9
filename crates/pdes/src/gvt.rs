//! Shared state of Time Warp's GVT round, Fujimoto's barriered reduction:
//! PEs count the inter-PE messages they send and drain, settle until the
//! counts agree, then [`GvtRound::agree`] confirms it between two barriers
//! and publishes each PE's queue head. With no message in flight every live
//! event sits in some PE's queue, so the minimum report is a safe GVT (the
//! [`mcheck`](crate::mcheck) `quiesce` model drives this code).

use std::sync::atomic::Ordering::{Relaxed, SeqCst};

#[cfg(mcheck)]
use crate::mcheck::mutation::{active, Mutation};
use crate::sync::{CachePadded, MAtomicBool, MAtomicU64};

pub(crate) struct GvtRound {
    /// Last computed GVT (ticks). Written only by PE 0; read by everyone.
    gvt: MAtomicU64,
    /// Set by any PE to request a round; cleared by PE 0 inside it.
    requested: MAtomicBool,
    /// Inter-PE messages sent (counted on entering a send buffer) and
    /// drained: equal only while none is unflushed or un-drained. Padded:
    /// every send and drain writes them, every event reads `gvt`.
    sent: CachePadded<MAtomicU64>,
    received: CachePadded<MAtomicU64>,
    /// Per-PE queue head published by the last quiet agreement (ticks).
    reports: Vec<CachePadded<MAtomicU64>>,
}

impl GvtRound {
    pub(crate) fn new(n_pes: usize, initial_gvt: u64) -> Self {
        GvtRound {
            gvt: MAtomicU64::new(initial_gvt),
            requested: MAtomicBool::new(false),
            sent: CachePadded(MAtomicU64::new(0)),
            received: CachePadded(MAtomicU64::new(0)),
            reports: (0..n_pes)
                .map(|_| CachePadded(MAtomicU64::new(u64::MAX)))
                .collect(),
        }
    }

    /// The last published GVT.
    #[inline]
    pub(crate) fn read(&self) -> u64 {
        // ORDER: SeqCst — GVT gates commits; keep it in the counters' order.
        self.gvt.load(SeqCst)
    }

    /// Publish a new GVT (PE 0 only).
    pub(crate) fn publish(&self, gvt: u64) {
        // ORDER: SeqCst — see `read`.
        self.gvt.store(gvt, SeqCst);
    }

    /// Ask every PE to join a GVT round (idempotent), or, PE 0 inside the
    /// round, withdraw the request.
    pub(crate) fn set_requested(&self, on: bool) {
        // ORDER: SeqCst — one total order with the withdrawal: a request can
        // at worst trigger one extra round, never be lost while visible.
        self.requested.store(on, SeqCst);
    }

    #[inline]
    pub(crate) fn round_requested(&self) -> bool {
        // ORDER: SeqCst — see `set_requested`.
        self.requested.load(SeqCst)
    }

    #[inline]
    pub(crate) fn count_sent(&self) {
        // ORDER: SeqCst — both counters join one total order, so reading
        // `sent == received` means no message is in flight anywhere.
        self.sent.0.fetch_add(1, SeqCst);
    }

    #[inline]
    pub(crate) fn count_received(&self, n: u64) {
        // ORDER: SeqCst — see `count_sent`.
        self.received.0.fetch_add(n, SeqCst);
    }

    pub(crate) fn counters(&self) -> (u64, u64) {
        // ORDER: SeqCst — see `count_sent`.
        (self.sent.0.load(SeqCst), self.received.0.load(SeqCst))
    }

    /// The agreeing pass of a quiescence check, once this PE has settled: B2,
    /// sample the counters, publish `report` (its queue head) if quiet, B3.
    /// Only loads run between the waits, so every PE returns the same `quiet`.
    pub(crate) fn agree<E>(
        &self,
        pe: usize,
        report: Option<u64>,
        mut wait: impl FnMut() -> Result<(), E>,
    ) -> Result<bool, E> {
        #[cfg(mcheck)]
        let early = active(Mutation::QuiesceSampledBeforeB2).then(|| self.counters());
        wait()?; // B2: every PE has settled once.
        #[cfg(mcheck)]
        let (sent, received) = early.unwrap_or_else(|| self.counters());
        #[cfg(not(mcheck))]
        let (sent, received) = self.counters();
        if let Some(head) = report.filter(|_| sent == received) {
            // ORDER: Relaxed — read only after B3, whose mutex orders it.
            self.reports[pe].0.store(head, Relaxed);
        }
        wait()?; // B3: counters sampled; reports published if quiet.
        Ok(sent == received)
    }

    /// The minimum report: the round's GVT once a quiet `agree` returned.
    pub(crate) fn min_report(&self) -> u64 {
        // ORDER: Relaxed — ordered after every store by B3.
        let reports = self.reports.iter().map(|r| r.0.load(Relaxed));
        reports.min().unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_agreement_publishes_the_minimum_report() {
        let (g, wait) = (GvtRound::new(1, 0), || Ok::<(), ()>(()));
        g.count_sent();
        assert_eq!(g.agree(0, Some(42), wait), Ok(false));
        assert_eq!(g.min_report(), u64::MAX, "no report while not quiet");
        g.count_received(1);
        assert_eq!(g.agree(0, Some(42), wait), Ok(true));
        assert_eq!(g.min_report(), 42);
    }

    #[test]
    fn publish_overrides_for_resume() {
        let g = GvtRound::new(3, 7);
        assert_eq!(g.read(), 7);
        g.publish(99);
        assert_eq!(g.read(), 99);
    }
}
