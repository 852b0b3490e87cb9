//! Deterministic fault injection ("chaos layer") for the optimistic kernel.
//!
//! Time Warp's correctness story is that disorder is *absorbed*: stragglers
//! roll back, duplicates annihilate by [`EventId`](crate::event::EventId),
//! and the committed output stays bit-identical to the sequential run. This
//! module lets a test *provoke* that disorder on demand instead of hoping
//! the scheduler produces it.
//!
//! A [`FaultPlan`] is attached to an
//! [`EngineConfig`](crate::config::EngineConfig) via
//! [`with_faults`](crate::config::EngineConfig::with_faults). The parallel
//! kernel then passes every batch of inter-PE [`Remote`] messages through a
//! per-PE [`FaultState`] at the inbox boundary, which — driven by its own
//! seeded CLCG4 stream, independent of all model streams — may:
//!
//! * **delay** a message: hold it back until a later inbox drain (it becomes
//!   a straggler and forces a primary rollback, or an anti-message that
//!   arrives after its positive was executed — a secondary rollback);
//! * **duplicate** a message: deliver a clone alongside the original (the
//!   kernel must absorb it by id, never double-executing);
//! * **reorder** a batch: shuffle the drain order (anti-before-positive
//!   inversions exercise the deferred-anti path).
//!
//! Faults are injected *after* the global sent/received accounting, so GVT
//! quiescence still sees every message exactly once; held-back messages are
//! flushed before a PE can contribute to a quiescent GVT round, which is
//! what keeps GVT from passing a delayed message's timestamp.
//!
//! Injection counts surface in [`EngineStats`]; the invariant — checked by
//! `tests/chaos.rs` — is that **any** plan commits output bit-identical to
//! the sequential kernel's.

use crate::event::{PeId, Remote};
use crate::rng::{stream_seed, Clcg4, ReversibleRng};
use crate::stats::EngineStats;

/// Decorrelates the fault streams from every model LP stream derived from
/// the same global seed.
const FAULT_STREAM_SALT: u64 = 0xC4A0_5F00_D1CE_D00D;

/// A seeded description of which faults to inject and how often.
///
/// All probabilities are per-message (per-batch for `reorder`) and must lie
/// in `[0, 1]`. The same plan against the same model and engine seed injects
/// the same faults — runs are reproducible bugs included.
///
/// ```
/// use pdes::fault::FaultPlan;
/// let plan = FaultPlan::new(42).with_delay(0.2).with_duplicate(0.1).with_reorder(0.5);
/// assert!(!plan.is_noop());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault-decision CLCG4 streams (one per PE).
    pub seed: u64,
    /// Probability a message is held back to a later inbox drain.
    pub delay: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a drained batch is shuffled.
    pub reorder: f64,
    /// Crash injection: panic this PE (simulating a worker death the
    /// supervisor must recover from) once it has executed
    /// [`kill_after`](Self::kill_after) events. One-shot by design —
    /// recovery strips it via [`without_crashes`](Self::without_crashes).
    pub kill_pe: Option<u32>,
    /// Event count at which [`kill_pe`](Self::kill_pe) fires (≥ 1; the
    /// panic raises after that many events have executed on the PE).
    pub kill_after: u64,
    /// Crash injection: tear the nth (0-based) snapshot write of the run
    /// mid-file, as a crash during a checkpoint would, so recovery must
    /// detect the corruption and fall back to the previous snapshot.
    pub poison_ckpt: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing until rates are set.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            kill_pe: None,
            kill_after: 0,
            poison_ckpt: None,
        }
    }

    /// Set the per-message delay (holdback) probability.
    pub fn with_delay(mut self, p: f64) -> Self {
        self.delay = p;
        self
    }

    /// Set the per-message duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Set the per-batch reorder (shuffle) probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Panic PE `pe` after it has executed `after` events (see
    /// [`kill_pe`](Self::kill_pe)).
    pub fn with_kill(mut self, pe: u32, after: u64) -> Self {
        self.kill_pe = Some(pe);
        self.kill_after = after;
        self
    }

    /// Tear the nth (0-based) snapshot write mid-file (see
    /// [`poison_ckpt`](Self::poison_ckpt)).
    pub fn with_poison_ckpt(mut self, nth: u64) -> Self {
        self.poison_ckpt = Some(nth);
        self
    }

    /// This plan with all crash injection (kill + snapshot poison) removed;
    /// comm-level chaos rates are kept. The supervisor retries with this so
    /// a one-shot injected crash cannot re-fire on every recovery attempt.
    pub fn without_crashes(mut self) -> Self {
        self.kill_pe = None;
        self.kill_after = 0;
        self.poison_ckpt = None;
        self
    }

    /// True if no *comm-level* fault (delay/duplicate/reorder) can ever
    /// fire — the kernel then skips the inbox chaos path entirely. Crash
    /// injection is independent of this: it is checked on its own paths.
    pub fn is_noop(&self) -> bool {
        self.delay == 0.0 && self.duplicate == 0.0 && self.reorder == 0.0
    }

    /// Check all rates are probabilities.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("delay", self.delay),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!(
                    "fault {name} rate {p} is not a probability in [0, 1]"
                ));
            }
        }
        if self.kill_pe.is_some() && self.kill_after == 0 {
            return Err("kill_after must be >= 1 when kill_pe is set (use \
                        FaultPlan::with_kill)"
                .into());
        }
        Ok(())
    }
}

/// Per-PE runtime state of the chaos layer: the plan, this PE's decision
/// stream, and messages currently held back.
pub(crate) struct FaultState<P> {
    plan: FaultPlan,
    rng: Clcg4,
    holdback: Vec<Remote<P>>,
}

impl<P: Clone> FaultState<P> {
    pub(crate) fn new(plan: FaultPlan, pe: PeId) -> Self {
        FaultState {
            plan,
            rng: Clcg4::new(stream_seed(plan.seed ^ FAULT_STREAM_SALT, pe as u64)),
            holdback: Vec::new(),
        }
    }

    /// Messages currently held back (diagnostics).
    pub(crate) fn held(&self) -> usize {
        self.holdback.len()
    }

    /// Minimum receive tick across held-back messages (`u64::MAX` when none
    /// are held). The incremental GVT reduction folds this into a PE's
    /// published minimum: a delayed message must hold GVT below its
    /// timestamp even though no barrier will ever force it out.
    pub(crate) fn held_min(&self) -> u64 {
        self.holdback
            .iter()
            .map(|m| match m {
                Remote::Positive(e) => e.key.recv_time.0,
                Remote::Anti(c, _) => c.key.recv_time.0,
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Move every held-back message into `into`. Called at the start of each
    /// inbox drain so a delayed message is late by at most one drain, and
    /// always flushed before GVT quiescence.
    pub(crate) fn take_holdback(&mut self, into: &mut Vec<Remote<P>>) {
        into.append(&mut self.holdback);
    }

    /// Pass one drained batch through the fault plan, returning what the
    /// kernel should actually deliver this drain.
    pub(crate) fn filter(
        &mut self,
        incoming: Vec<Remote<P>>,
        stats: &mut EngineStats,
    ) -> Vec<Remote<P>> {
        let mut deliver = Vec::with_capacity(incoming.len());
        for msg in incoming {
            if self.plan.duplicate > 0.0 && self.rng.bernoulli(self.plan.duplicate) {
                stats.injected_duplicates += 1;
                // The clone may itself be delayed, independently.
                if self.plan.delay > 0.0 && self.rng.bernoulli(self.plan.delay) {
                    self.holdback.push(msg.clone());
                } else {
                    deliver.push(msg.clone());
                }
            }
            if self.plan.delay > 0.0 && self.rng.bernoulli(self.plan.delay) {
                stats.injected_delays += 1;
                self.holdback.push(msg);
            } else {
                deliver.push(msg);
            }
        }
        if deliver.len() >= 2 && self.plan.reorder > 0.0 && self.rng.bernoulli(self.plan.reorder) {
            stats.injected_reorders += 1;
            // Fisher–Yates with the plan's own stream.
            for i in (1..deliver.len()).rev() {
                let j = self.rng.integer(0, i as u64) as usize;
                deliver.swap(i, j);
            }
        }
        deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ChildRef, EventId, EventKey};
    use crate::time::VirtualTime;

    fn anti(seq: u64) -> Remote<()> {
        Remote::Anti(
            ChildRef {
                id: EventId::new(0, seq),
                key: EventKey {
                    recv_time: VirtualTime(seq + 1),
                    dst: 0,
                    tie: seq,
                    src: 0,
                    send_time: VirtualTime::ZERO,
                },
            },
            crate::obs::blame::CascadeTag::NONE,
        )
    }

    fn ids(batch: &[Remote<()>]) -> Vec<u64> {
        batch
            .iter()
            .map(|m| match m {
                Remote::Anti(c, _) => c.id.seq(),
                Remote::Positive(e) => e.id.seq(),
            })
            .collect()
    }

    #[test]
    fn noop_plan_passes_everything_through_unchanged() {
        let mut fs: FaultState<()> = FaultState::new(FaultPlan::new(1), 0);
        let mut stats = EngineStats::default();
        let out = fs.filter((0..10).map(anti).collect(), &mut stats);
        assert_eq!(ids(&out), (0..10).collect::<Vec<_>>());
        assert_eq!(fs.held(), 0);
        assert_eq!(stats.injected_delays, 0);
        assert_eq!(stats.injected_duplicates, 0);
        assert_eq!(stats.injected_reorders, 0);
    }

    #[test]
    fn faults_are_deterministic_per_seed_and_pe() {
        let plan = FaultPlan::new(7)
            .with_delay(0.3)
            .with_duplicate(0.2)
            .with_reorder(0.5);
        let run = |pe: PeId| {
            let mut fs: FaultState<()> = FaultState::new(plan, pe);
            let mut stats = EngineStats::default();
            let out = ids(&fs.filter((0..50).map(anti).collect(), &mut stats));
            (out, fs.held(), stats.injected_delays)
        };
        assert_eq!(run(0), run(0), "same seed+pe must inject identically");
        assert_ne!(run(0).0, run(1).0, "different PEs draw different streams");
    }

    #[test]
    fn nothing_is_lost_or_invented() {
        let plan = FaultPlan::new(99)
            .with_delay(0.4)
            .with_duplicate(0.3)
            .with_reorder(1.0);
        let mut fs: FaultState<()> = FaultState::new(plan, 2);
        let mut stats = EngineStats::default();
        let n = 200u64;
        let mut delivered = fs.filter((0..n).map(anti).collect(), &mut stats);
        // Drain holdback until empty (no new input → converges).
        while fs.held() > 0 {
            let mut pending = Vec::new();
            fs.take_holdback(&mut pending);
            delivered.extend(fs.filter(pending, &mut stats));
        }
        let mut seen = ids(&delivered);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen,
            (0..n).collect::<Vec<_>>(),
            "every original must survive"
        );
        assert_eq!(
            delivered.len() as u64,
            n + stats.injected_duplicates,
            "clones account for every extra delivery"
        );
        assert!(stats.injected_delays > 0 && stats.injected_reorders > 0);
    }

    #[test]
    fn crash_injection_builders_and_stripping() {
        let plan = FaultPlan::new(5)
            .with_delay(0.1)
            .with_kill(2, 300)
            .with_poison_ckpt(1);
        assert_eq!(plan.kill_pe, Some(2));
        assert_eq!(plan.kill_after, 300);
        assert_eq!(plan.poison_ckpt, Some(1));
        assert!(plan.validate().is_ok());
        // Comm-level noop is independent of crash injection.
        assert!(FaultPlan::new(0).with_kill(0, 1).is_noop());

        let stripped = plan.without_crashes();
        assert_eq!(stripped.kill_pe, None);
        assert_eq!(stripped.poison_ckpt, None);
        assert_eq!(stripped.delay, 0.1, "comm chaos survives the strip");

        let mut bad = FaultPlan::new(0);
        bad.kill_pe = Some(0);
        assert!(bad.validate().is_err(), "kill with kill_after=0 rejected");
    }

    #[test]
    fn validate_rejects_bad_rates() {
        assert!(FaultPlan::new(0).with_delay(1.5).validate().is_err());
        assert!(FaultPlan::new(0).with_reorder(-0.1).validate().is_err());
        assert!(FaultPlan::new(0)
            .with_duplicate(f64::NAN)
            .validate()
            .is_err());
        assert!(FaultPlan::new(0).with_delay(1.0).validate().is_ok());
    }
}
