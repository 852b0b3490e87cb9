//! The windowed conservative arm of the PE loop (DESIGN.md, "The windowed
//! arm"). A model that declares an epoch `E` ([`Model::epoch`]) sends other
//! LPs nothing earlier than the end of the epoch it executes in, so once
//! every message sent before a window opened has been delivered, each PE can
//! execute and commit every local event below the end of the current epoch.
//! Per window: execute and commit, flush, hand off
//! `min(queue head, min receive time sent this window)` ([`WindowSync`]),
//! wait for every PE while draining through the fault filter, drain once
//! verbatim, and move to the epoch holding the agreed minimum — empty epochs
//! are skipped (YAWNS). Nothing is undone, so no Time Warp record,
//! anti-message, blame or fossil collection runs here. [`window_epoch`]
//! decides once per run whether the arm applies.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

use super::{Halt, PeRuntime};
use crate::config::EngineConfig;
use crate::error::FailureCause;
use crate::event::{Event, EventKey, QueueEntry, Remote};
use crate::model::Model;
use crate::obs::prof::Phase;
use crate::obs::{ObsKind, ObsRecord};
use crate::sync::{CachePadded, MAtomicU64};

/// The epoch the run executes in windows of, or `None` for Time Warp: the
/// model declares an epoch `E ≥ 1`, the optimism bound is set and at most
/// `E`, and the run is not barriered (it neither checkpoints nor sets
/// [`GvtMode::Barrier`](crate::config::GvtMode::Barrier)).
pub(crate) fn window_epoch<M: Model>(model: &M, config: &EngineConfig) -> Option<u64> {
    let epoch = model.epoch().filter(|&e| e > 0)?;
    let bound = config.max_lookahead?;
    (bound <= epoch && !config.barriered_gvt()).then_some(epoch)
}

/// The window agreement: per PE a report slot for even and one for odd
/// windows, and the last window the PE handed off.
///
/// Two slots make the hand-off barrier-free: a PE can run ahead by at most
/// one window (it cannot finish window `w + 1` before every PE handed off
/// `w + 1`, which each does only after reading the reports of `w`), so a
/// report for `w + 2` never overwrites one for `w` that is still unread.
pub(crate) struct WindowSync {
    reports: Vec<CachePadded<[MAtomicU64; 2]>>,
    done: Vec<CachePadded<MAtomicU64>>,
}

impl WindowSync {
    pub(crate) fn new(n_pes: usize) -> Self {
        WindowSync {
            reports: (0..n_pes)
                .map(|_| CachePadded([MAtomicU64::new(u64::MAX), MAtomicU64::new(u64::MAX)]))
                .collect(),
            done: (0..n_pes)
                .map(|_| CachePadded(MAtomicU64::new(0)))
                .collect(),
        }
    }

    fn slot(window: u64) -> usize {
        #[cfg(mcheck)]
        if crate::mcheck::mutation::active(crate::mcheck::mutation::Mutation::WindowOneSlot) {
            // Seeded mutation: every window shares one report slot.
            return 0;
        }
        (window & 1) as usize
    }

    /// Publish `pe`'s report for `window`, then mark the window handed off.
    fn publish(&self, pe: usize, window: u64, report: u64) {
        // ORDER: Relaxed — published by the Release store of `done` below.
        self.reports[pe].0[Self::slot(window)].store(report, Relaxed);
        #[cfg(mcheck)]
        let done_order = crate::mcheck::mutation::order_or_relaxed(
            crate::mcheck::mutation::Mutation::WindowDoneRelaxed,
            Release,
        );
        #[cfg(not(mcheck))]
        let done_order = Release;
        // ORDER: Release — pairs with the Acquire in `all_done`: a PE that
        // sees the window handed off also sees the report above and every
        // batch this PE pushed into a ring before handing off.
        self.done[pe].0.store(window, done_order);
    }

    /// Whether every PE has handed off `window`.
    pub(crate) fn all_done(&self, window: u64) -> bool {
        // ORDER: Acquire — pairs with the Release store in `publish`.
        self.done.iter().all(|d| d.0.load(Acquire) >= window)
    }

    /// The agreed minimum of `window`. Call only once `all_done(window)`.
    pub(crate) fn min_report(&self, window: u64) -> u64 {
        self.reports
            .iter()
            // ORDER: Relaxed — ordered after every report store by the
            // Acquire pass of `all_done`; the slot is not rewritten before
            // this PE hands off the next window (see the type's docs).
            .map(|r| r.0[Self::slot(window)].load(Relaxed))
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// Hand `window` off: make every message this PE sent visible (`flush`),
/// then publish its report. Handing off first would let a peer drain its
/// inbox and pass the window boundary before the last batch lands.
pub(crate) fn hand_off(
    sync: &WindowSync,
    pe: usize,
    window: u64,
    report: u64,
    flush: impl FnOnce(),
) {
    #[cfg(mcheck)]
    if crate::mcheck::mutation::active(crate::mcheck::mutation::Mutation::WindowDoneBeforeFlush) {
        sync.publish(pe, window, report);
        flush();
        return;
    }
    flush();
    sync.publish(pe, window, report);
}

impl<M: Model> PeRuntime<'_, M> {
    /// The PE loop of the windowed arm (see the module docs). Returns `Ok`
    /// once the agreed minimum has passed the horizon.
    pub(super) fn run_windows(&mut self, epoch: u64) -> Result<(), Halt> {
        let end = self.config.end_time.0;
        let mut window = 0;
        loop {
            window += 1;
            let report = self.queue_min().min(self.send_min);
            let gvt = self.agree(window, report)?;
            self.end_window(gvt, report)?;
            if gvt >= end {
                return self.audit_scheduler();
            }
            let wend = (gvt / epoch).saturating_add(1).saturating_mul(epoch);
            let limit = wend.min(end);
            while matches!(self.queue.peek_key(), Some(k) if k.recv_time.0 < limit) {
                let t0 = self.profiler.begin(Phase::SchedPop);
                let entry = self.queue.pop().expect("peeked event must pop");
                self.profiler.end(Phase::SchedPop, t0);
                self.execute_final(entry, wend)?;
            }
        }
    }

    /// Steps 2–4 of the loop for `window`: hand off `report`, wait for every
    /// PE, drain, and return the agreed minimum.
    fn agree(&mut self, window: u64, report: u64) -> Result<u64, Halt> {
        self.send_min = u64::MAX;
        let shared = self.shared;
        hand_off(&shared.window, self.id, window, report, || {
            self.flush_out_bufs()
        });
        loop {
            let t0 = self.profiler.begin(Phase::GvtWait);
            let done = shared.window.all_done(window);
            if !done {
                std::thread::yield_now();
            }
            self.profiler.end(Phase::GvtWait, t0);
            if done {
                break;
            }
            if shared.barrier.is_aborted() {
                return Err(Halt);
            }
            self.check_deadline(shared.gvt.read())?;
            self.drain_inbox(true)?;
        }
        // Every message sent before any PE handed off this window is in a
        // ring now; deliver them all, held-back ones included. No copy of a
        // delivered message is left anywhere, so the duplicate filter can
        // forget them.
        self.drain_inbox(false)?;
        self.seen_pos.clear();
        Ok(shared.window.min_report(window))
    }

    /// Per-window bookkeeping: count the round, publish the agreed minimum
    /// as GVT (PE 0), keep the deadline armed, and once `gvt_interval`
    /// events have committed since the last sample, audit the scheduler and
    /// sample a round.
    fn end_window(&mut self, gvt: u64, report: u64) -> Result<(), Halt> {
        self.stats.gvt_rounds += 1;
        if self.id == 0 {
            self.shared.gvt.publish(gvt);
        }
        self.check_deadline(gvt)?;
        if self.since_gvt >= self.config.gvt_interval {
            self.since_gvt = 0;
            self.round += 1;
            self.audit_scheduler()?;
            self.sample_round(gvt, report);
            self.progress_line(gvt);
        }
        Ok(())
    }

    /// Execute one event of the current window and commit it: handle, the
    /// model's commit hook, free its slot, push or send the children. A
    /// child for another LP that lands before `wend` breaks the model's
    /// epoch promise and fails the run.
    fn execute_final(&mut self, entry: QueueEntry, wend: u64) -> Result<(), Halt> {
        if let Some(a) = self.audit.as_mut() {
            a.toggle_sched(entry.id, &entry.key);
        }
        obs!(self, ObsKind::Execute, entry.id, entry.key);
        let lp = entry.key.dst;
        let li = self.local_lp_idx(lp);
        if self.audit.is_some() && self.config.audit_probe {
            if let Err(v) = self.probe(li, &entry) {
                self.audit_violation(v);
                return Err(Halt);
            }
        }
        self.bf.clear();
        let mut emits = std::mem::take(&mut self.emit_buf);
        self.run_handler(li, &entry, &mut emits);
        self.tracer.commit_direct(&entry.key, &mut self.hop_buf);
        self.model
            .commit(self.arena.get(entry.slot), lp, entry.key.recv_time);
        let _ = self.arena.free(entry.slot);

        let mut outcome = Ok(());
        for emit in emits.drain(..) {
            let key = EventKey {
                recv_time: emit.recv_time,
                dst: emit.dst,
                tie: emit.tie,
                src: lp,
                send_time: entry.key.recv_time,
            };
            if emit.dst != lp && emit.recv_time.0 < wend {
                self.shared.fail(FailureCause::EpochViolated {
                    lp,
                    send_time: key.send_time.0,
                    recv_time: key.recv_time.0,
                    epoch_end: wend,
                });
                outcome = Err(Halt);
                break;
            }
            let id = self.alloc_event_id();
            obs!(self, ObsKind::Emit, id, key, emit.dst);
            let pe = self.flat.pe_of_lp[emit.dst as usize];
            if pe == self.id {
                match self.insert_arena(emit.payload) {
                    Ok(slot) => {
                        if let Some(a) = self.audit.as_mut() {
                            a.toggle_sched(id, &key);
                        }
                        let t0 = self.profiler.begin(Phase::SchedPush);
                        self.queue.push(QueueEntry { key, id, slot });
                        self.profiler.end(Phase::SchedPush, t0);
                    }
                    Err(h) => {
                        outcome = Err(h);
                        break;
                    }
                }
            } else {
                self.stats.remote_events += 1;
                let payload = emit.payload;
                self.send_remote(pe, Remote::Positive(Event { id, key, payload }));
            }
        }
        self.emit_buf = emits;
        outcome?;
        self.stats.events_processed += 1;
        self.stats.events_committed += 1;
        self.since_gvt += 1;
        self.crash_if_due();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::config::GvtMode;
    use crate::error::RunError;
    use crate::event::LpId;
    use crate::model::{EventCtx, InitCtx, Merge, ReverseCtx};
    use crate::rng::ReversibleRng;
    use crate::time::VirtualTime;
    use crate::Run;

    const STEP: u64 = VirtualTime::STEP;

    /// LP `i` passes a token to LP `i + 1` every `delay` ticks, folding one
    /// draw per event into a hash (the payload saves the old hash for
    /// `reverse`); it claims `epoch`, and `panic_at` names an LP and a step
    /// at which it panics.
    struct Ring {
        n: u32,
        delay: u64,
        epoch: Option<u64>,
        panic_at: Option<(LpId, u64)>,
    }

    #[derive(Debug, Default, PartialEq)]
    struct Total(u64, u64);

    impl Merge for Total {
        fn merge(&mut self, other: Self) {
            self.0 += other.0;
            self.1 = self.1.wrapping_add(other.1);
        }
    }

    impl Model for Ring {
        type State = (u64, u64);
        type Payload = u64;
        type Output = Total;

        fn n_lps(&self) -> u32 {
            self.n
        }

        fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, u64>) -> (u64, u64) {
            ctx.schedule_at(lp, VirtualTime::from_steps(1), 0, 0);
            (0, 0)
        }

        fn handle(&self, s: &mut (u64, u64), saved: &mut u64, ctx: &mut EventCtx<'_, u64>) {
            if self.panic_at == Some((ctx.lp(), ctx.now().step())) {
                panic!("ring LP {} gives up", ctx.lp());
            }
            s.0 += 1;
            *saved = s.1;
            s.1 =
                s.1.wrapping_mul(31)
                    .wrapping_add(ctx.rng().integer(0, 1000));
            ctx.schedule((ctx.lp() + 1) % self.n, self.delay, 0, 0);
        }

        fn reverse(&self, s: &mut (u64, u64), saved: &mut u64, _: &ReverseCtx) {
            s.0 -= 1;
            s.1 = *saved;
        }

        fn epoch(&self) -> Option<u64> {
            self.epoch
        }

        fn finish(&self, _: LpId, s: &(u64, u64), out: &mut Total) {
            out.merge(Total(s.0, s.1));
        }
    }

    fn ring(delay: u64, epoch: Option<u64>) -> Ring {
        Ring {
            n: 16,
            delay,
            epoch,
            panic_at: None,
        }
    }

    fn windowed() -> EngineConfig {
        EngineConfig::new(VirtualTime::from_steps(40))
            .with_pes(2)
            .with_kps(4)
            .with_lookahead(STEP)
    }

    #[test]
    fn the_arm_is_taken_only_with_an_epoch_a_bound_within_it_and_no_barrier() {
        let honest = ring(STEP, Some(STEP));
        assert_eq!(window_epoch(&honest, &windowed()), Some(STEP));
        assert_eq!(
            window_epoch(&honest, &windowed().with_lookahead(STEP / 2)),
            Some(STEP)
        );
        for cfg in [
            windowed().with_lookahead(STEP + 1),
            windowed().with_gvt_mode(GvtMode::Barrier),
            windowed().with_checkpoint_every(4),
            EngineConfig::new(VirtualTime::from_steps(40)).with_pes(2),
        ] {
            assert_eq!(window_epoch(&honest, &cfg), None, "{cfg:?}");
        }
        for epoch in [None, Some(0)] {
            assert_eq!(window_epoch(&ring(STEP, epoch), &windowed()), None);
        }
    }

    #[test]
    fn an_honest_epoch_commits_the_oracle_without_rolling_back() {
        let m = ring(STEP, Some(STEP));
        let cfg = windowed();
        let seq = Run::new(&m, &cfg).sequential().go().unwrap();
        let par = Run::new(&m, &cfg).go().unwrap();
        assert_eq!(par.output, seq.output);
        assert_eq!(par.stats.events_committed, seq.stats.events_committed);
        assert_eq!(par.stats.events_processed, par.stats.events_committed);
        assert_eq!(par.stats.total_rollbacks(), 0);
        // One agreement before the first window, then one after each of
        // the 39 steps.
        assert_eq!(par.stats.gvt_rounds, 40);
    }

    #[test]
    fn a_false_epoch_claim_is_a_structured_error_not_a_divergence() {
        // Half-step sends break a one-step promise on the first event.
        let m = ring(STEP / 2, Some(STEP));
        let err = Run::new(&m, &windowed()).go().unwrap_err();
        match err {
            RunError::EpochViolated {
                lp,
                send_time,
                recv_time,
                epoch_end,
                ref diagnostics,
            } => {
                assert!(lp < 16);
                assert_eq!(send_time, STEP);
                assert_eq!(recv_time, STEP + STEP / 2);
                assert_eq!(epoch_end, 2 * STEP);
                assert_eq!(diagnostics.pes.len(), 2);
            }
            other => panic!("expected EpochViolated, got {other}"),
        }
        assert!(err.to_string().contains("epoch promise broken"), "{err}");
        // Declaring nothing, the same model runs as Time Warp.
        let honest = ring(STEP / 2, None);
        let seq = Run::new(&honest, &windowed()).sequential().go().unwrap();
        let par = Run::new(&honest, &windowed()).go().unwrap();
        assert_eq!(par.output, seq.output);
    }

    #[test]
    fn a_panic_on_one_pe_unwinds_the_sibling_waiting_for_it() {
        let m = Ring {
            panic_at: Some((0, 7)),
            ..ring(STEP, Some(STEP))
        };
        match Run::new(&m, &windowed()).go().unwrap_err() {
            RunError::PePanic { pe, payload, .. } => {
                assert_eq!(pe, 0);
                assert!(payload.contains("gives up"), "{payload}");
            }
            other => panic!("expected PePanic, got {other}"),
        }
    }

    #[test]
    fn an_expired_deadline_stops_the_windows() {
        let m = ring(STEP, Some(STEP));
        let cfg = windowed().with_deadline(Duration::ZERO);
        let err = Run::new(&m, &cfg).go().unwrap_err();
        assert!(matches!(err, RunError::GvtStalled { .. }), "{err}");
    }
}
