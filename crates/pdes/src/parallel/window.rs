//! The windowed conservative arm of the PE loop (DESIGN.md, "The windowed
//! arm"). A model that declares an epoch `E` ([`Model::epoch`]) sends other
//! LPs nothing earlier than the end of the epoch it executes in, so once
//! every message sent before a window opened has been delivered, each LP's
//! inputs below the window's end are fixed but for its own self-sends, and
//! it can commit them in its own key order, whatever the other LPs do. So
//! events are filed unsorted in their LP's inbox ([`LpInboxes`]), and an
//! LP's due events are sorted once, when its visit opens. Per window: visit
//! each local LP with events due below the window's end (open, pop the run
//! dry, close), flush, hand off the minimum of what is left and of what was
//! sent to other LPs ([`WindowSync`]), wait for every PE while draining,
//! drain once verbatim, and move to the epoch holding the agreed minimum
//! (empty epochs are skipped, YAWNS). Nothing is undone, so no scheduler,
//! arena, Time Warp record, anti-message, blame or fossil collection runs
//! here, and only events on the wire carry an id.
//!
//! [`LpInboxes`]: crate::scheduler::lp_inbox::LpInboxes

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

use super::{Halt, PayloadAt, PeRuntime};
use crate::config::EngineConfig;
use crate::error::FailureCause;
use crate::event::{Event, EventKey, InlineEntry, Remote};
use crate::model::Model;
use crate::obs::prof::Phase;
use crate::obs::{ObsKind, ObsRecord};
use crate::scheduler::lp_inbox::NO_ID;
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
        // The boot events were filed before this thread started.
        if let Some(a) = self.audit.as_mut() {
            self.store.keys().for_each(|k| a.toggle_sched(NO_ID, k));
        }
        self.check_store()?;
        let n = self.my_lps.len();
        let mut heads = (0..n)
            .map(|li| self.store.head(li))
            .min()
            .unwrap_or(u64::MAX);
        let end = self.config.end_time.0;
        let mut window = 0;
        loop {
            window += 1;
            let report = heads.min(self.send_min);
            let gvt = self.agree(window, report)?;
            self.end_window(gvt, report)?;
            if gvt >= end {
                return self.audit_store();
            }
            let wend = (gvt / epoch).saturating_add(1).saturating_mul(epoch);
            let limit = wend.min(end);
            heads = u64::MAX;
            for li in 0..n {
                // Only an LP with work due is timed: `SchedPop` covers the
                // partition and the sort, and a pop off the run is a
                // `Vec::pop`.
                if self.store.head(li) < limit {
                    let t0 = self.profiler.begin(Phase::SchedPop);
                    let opened = self.store.open(li, limit);
                    self.profiler.end(Phase::SchedPop, t0);
                    debug_assert!(opened);
                    while let Some(InlineEntry { key, mut payload }) = self.store.pop() {
                        self.run_event(li, key, &mut payload, wend)?;
                    }
                    self.store.close();
                }
                heads = heads.min(self.store.head(li));
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
    /// events have committed since the last sample, audit the store and
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
            self.audit_store()?;
            self.sample_round(gvt, report);
            self.progress_line(gvt);
        }
        Ok(())
    }

    /// Auditor: the store's recomputed content fingerprint must match the
    /// push/pop mirror, and its invariant walk must pass.
    fn audit_store(&mut self) -> Result<(), Halt> {
        let check = self.audit.as_ref().map(|a| {
            let (digest, walk) = self.store.audit(&self.my_lps);
            a.check_scheduler(self.id, Some(digest), walk)
        });
        self.audit_gate(check)
    }

    /// File a pending event under local LP `li`.
    pub(super) fn push_pending(
        &mut self,
        li: usize,
        key: EventKey,
        payload: M::Payload,
    ) -> Result<(), Halt> {
        if let Some(a) = self.audit.as_mut() {
            a.toggle_sched(NO_ID, &key);
        }
        let t0 = self.profiler.begin(Phase::SchedPush);
        self.store.push(li, key, payload);
        self.profiler.end(Phase::SchedPush, t0);
        self.check_store()
    }

    /// The arena's contract on the store: fail the run once it holds more
    /// than `arena_slots` events.
    fn check_store(&self) -> Result<(), Halt> {
        match self.store.over_cap() {
            Some(cap) => Err(self.exhausted(cap)),
            None => Ok(()),
        }
    }

    /// Execute one event of the current window on local LP `li` and commit
    /// it: handle, the model's commit hook, then file or send the children.
    /// A self-send due in the window joins the open run in key order, so
    /// it runs in this visit; a child for another LP that lands before `wend`
    /// breaks the model's epoch promise and fails the run.
    fn run_event(
        &mut self,
        li: usize,
        key: EventKey,
        payload: &mut M::Payload,
        wend: u64,
    ) -> Result<(), Halt> {
        if let Some(a) = self.audit.as_mut() {
            a.toggle_sched(NO_ID, &key);
        }
        obs!(self, ObsKind::Execute, NO_ID, key);
        if self.audit.is_some() && self.config.audit_probe {
            if let Err(v) = self.probe(li, &key, PayloadAt::Inline(payload)) {
                self.audit_violation(v);
                return Err(Halt);
            }
        }
        let mut emits = self.run_handler(li, &key, PayloadAt::Inline(payload));
        self.tracer.commit_direct(&key, &mut self.hop_buf);
        let lp = key.dst;
        self.model.commit(payload, lp, key.recv_time);
        for emit in emits.drain(..) {
            let child = emit.key(lp, key.recv_time);
            if emit.dst != lp {
                if child.recv_time.0 < wend {
                    self.shared.fail(FailureCause::EpochViolated {
                        lp,
                        send_time: key.recv_time.0,
                        recv_time: child.recv_time.0,
                        epoch_end: wend,
                    });
                    return Err(Halt);
                }
                // The report covers what this PE sent until the next
                // hand-off, and a child filed under an LP visited earlier in
                // this window missed that LP's head.
                self.send_min = self.send_min.min(child.recv_time.0);
            }
            let pe = self.flat.pe_of_lp[emit.dst as usize];
            if pe == self.id {
                obs!(self, ObsKind::Emit, NO_ID, child, emit.dst);
                self.push_pending(self.local_lp_idx(emit.dst), child, emit.payload)?;
            } else {
                let id = self.alloc_event_id();
                obs!(self, ObsKind::Emit, id, child, emit.dst);
                self.stats.remote_events += 1;
                let (key, payload) = (child, emit.payload);
                self.send_remote(pe, Remote::Positive(Event { id, key, payload }));
            }
        }
        self.emit_buf = emits;
        self.stats.events_processed += 1;
        self.stats.events_committed += 1;
        self.since_gvt += 1;
        self.crash_if_due();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    use std::time::Duration;

    use super::*;
    use crate::config::GvtMode;
    use crate::error::RunError;
    use crate::event::LpId;
    use crate::model::{EventCtx, InitCtx, Merge, ReverseCtx};
    use crate::obs::ObsConfig;
    use crate::rng::ReversibleRng;
    use crate::time::VirtualTime;
    use crate::Run;

    const STEP: u64 = VirtualTime::STEP;

    /// LP `i` passes a token to LP `i + 1` every `delay` ticks, folding
    /// the event's kind and one draw per event into a hash (the payload is
    /// `[kind, old hash]`, the old hash saved for `reverse`); it claims
    /// `epoch`, and `panic_at` names an LP and a step at which it panics.
    struct Ring {
        n: u32,
        delay: u64,
        epoch: Option<u64>,
        panic_at: Option<(LpId, u64)>,
        /// A second token one tick behind the first (kind 1, tie 20); the
        /// first token sends its LP a child one tick ahead (kind 2, tie 1),
        /// due at the same time as the second token but sorting before it.
        same_time: bool,
        /// The first token also sends its LP an event three epochs ahead
        /// (kind 3), so events wait in an inbox across windows.
        ahead: bool,
        /// The first token also sends the next LP an event four epochs
        /// ahead (kind 4), so a cross-LP child survives that LP's visits.
        far: bool,
        /// Tokens travel from LP `i` to LP `i - 1`, which a PE visits first,
        /// and LP 0 keeps them.
        down: bool,
        /// Every commit as `(lp, time, kind)`, in call order.
        commits: Mutex<Vec<(LpId, u64, u64)>>,
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
        type Payload = [u64; 2];
        type Output = Total;

        fn n_lps(&self) -> u32 {
            self.n
        }

        fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, [u64; 2]>) -> (u64, u64) {
            ctx.schedule_at(lp, VirtualTime::from_steps(1), 10, [0, 0]);
            if self.same_time {
                ctx.schedule_at(lp, VirtualTime::from_parts(1, 1), 20, [1, 0]);
            }
            (0, 0)
        }

        fn handle(&self, s: &mut (u64, u64), p: &mut [u64; 2], ctx: &mut EventCtx<'_, [u64; 2]>) {
            if self.panic_at == Some((ctx.lp(), ctx.now().step())) {
                panic!("ring LP {} gives up", ctx.lp());
            }
            s.0 += 1;
            p[1] = s.1;
            let draw = ctx.rng().integer(0, 1000);
            s.1 = s.1.wrapping_mul(31).wrapping_add(draw ^ (p[0] << 20));
            if p[0] > 1 {
                return;
            }
            let next = match self.down {
                true => ctx.lp().checked_sub(1),
                false => Some((ctx.lp() + 1) % self.n),
            };
            if let Some(next) = next {
                ctx.schedule(next, self.delay, 10 * (p[0] + 1), [p[0], 0]);
            }
            if p[0] == 0 && self.same_time {
                ctx.schedule_self(1, 1, [2, 0]);
            }
            if p[0] == 0 && self.ahead {
                ctx.schedule_self(3 * self.epoch.unwrap_or(STEP), 30, [3, 0]);
            }
            if p[0] == 0 && self.far {
                let next = (ctx.lp() + 1) % self.n;
                ctx.schedule(next, 4 * self.epoch.unwrap_or(STEP), 40, [4, 0]);
            }
        }

        fn reverse(&self, s: &mut (u64, u64), p: &mut [u64; 2], _: &ReverseCtx) {
            s.0 -= 1;
            s.1 = p[1];
        }

        fn commit(&self, p: &[u64; 2], lp: LpId, at: VirtualTime) {
            self.commits.lock().unwrap().push((lp, at.0, p[0]));
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
            same_time: false,
            ahead: false,
            far: false,
            down: false,
            commits: Mutex::new(Vec::new()),
        }
    }

    /// A ring with same-time self-sends and events sent ahead.
    fn busy_ring() -> Ring {
        Ring {
            same_time: true,
            ahead: true,
            ..ring(STEP, Some(STEP))
        }
    }

    /// Take the commits `m` recorded so far, grouped by LP, each LP's in
    /// call order.
    fn commit_log(m: &Ring) -> Vec<(LpId, u64, u64)> {
        let mut log = std::mem::take(&mut *m.commits.lock().unwrap());
        log.sort_by_key(|c| c.0);
        log
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

    /// `m` on the windowed arm at 1 and 2 PEs commits what the sequential
    /// oracle commits, each LP in the oracle's order, without rolling back
    /// (and a window that never drains fails the deadline, not the suite).
    fn assert_windowed_keeps_the_oracle(m: &Ring, cfg: &EngineConfig) {
        let seq = Run::new(m, cfg).sequential().go().unwrap();
        let oracle = commit_log(m);
        for pes in [1, 2] {
            let cfg = cfg
                .clone()
                .with_pes(pes)
                .with_deadline(Duration::from_secs(60));
            let par = Run::new(m, &cfg).go().unwrap();
            assert_eq!(par.output, seq.output, "{pes} PEs");
            assert_eq!(par.stats.events_committed, seq.stats.events_committed);
            assert_eq!(par.stats.events_processed, par.stats.events_committed);
            assert_eq!(par.stats.total_rollbacks(), 0, "{pes} PEs");
            assert!(commit_log(m) == oracle, "{pes} PEs: commit order diverged");
        }
    }

    #[test]
    fn same_time_self_sends_and_events_waiting_across_windows_keep_the_oracle() {
        assert_windowed_keeps_the_oracle(&busy_ring(), &windowed());
    }

    /// With one LP per PE, the same LP opens a visit every window, and
    /// each visit must start from that window's inbox.
    #[test]
    fn one_lp_per_pe_opens_a_visit_every_window() {
        let m = Ring {
            n: 2,
            far: true,
            ..busy_ring()
        };
        let cfg = EngineConfig::new(VirtualTime::from_steps(200))
            .with_kps(2)
            .with_lookahead(STEP);
        assert_windowed_keeps_the_oracle(&m, &cfg);
    }

    /// A cross-LP child sent four epochs ahead waits in its LP's inbox
    /// through every visit before its window.
    #[test]
    fn a_cross_lp_child_epochs_ahead_survives_repeated_partitions() {
        for n in [2, 16] {
            let m = Ring {
                n,
                far: true,
                ..busy_ring()
            };
            assert_windowed_keeps_the_oracle(&m, &windowed().with_kps(2));
        }
    }

    /// On one PE, every token passed down lands in an LP the window already
    /// visited, after its head was folded into the report; the report must
    /// still hold the next window at the tokens' epoch.
    #[test]
    fn a_child_for_an_lp_visited_earlier_holds_the_next_window() {
        let m = Ring {
            down: true,
            ..ring(STEP, Some(STEP))
        };
        let cfg = windowed();
        let seq = Run::new(&m, &cfg).sequential().go().unwrap();
        for pes in [1, 2] {
            let par = Run::new(&m, &cfg.clone().with_pes(pes)).go().unwrap();
            assert_eq!(par.output, seq.output, "{pes} PEs");
            assert_eq!(par.stats.events_committed, seq.stats.events_committed);
        }
    }

    /// `Model::commit` runs once per committed event in each LP's key
    /// order, on the windowed arm and on Time Warp alike.
    #[test]
    fn each_lp_commits_in_the_oracle_order_on_both_arms() {
        let m = busy_ring();
        Run::new(&m, &windowed()).sequential().go().unwrap();
        let oracle = commit_log(&m);
        assert_eq!(oracle.len(), 16 * 4 * 39 - 16 * 3, "every kind commits");
        let time_warp = windowed().with_lookahead(u64::MAX);
        for (arm, cfg) in [("windowed", windowed()), ("time warp", time_warp)] {
            Run::new(&m, &cfg).go().unwrap();
            assert!(commit_log(&m) == oracle, "{arm}: commit order diverged");
        }
    }

    /// A post-mortem after a handler panic still sees each arm's pending
    /// store, and a windowed dump shows remote deliveries under their wire
    /// ids.
    #[test]
    fn a_panic_post_mortem_sees_the_store_and_the_deliveries() {
        let cfg = windowed().with_obs(ObsConfig::verbose());
        for epoch in [Some(STEP), None] {
            let m = Ring {
                panic_at: Some((0, 7)),
                ..ring(STEP, epoch)
            };
            let Err(RunError::PePanic { diagnostics, .. }) = Run::new(&m, &cfg).go() else {
                panic!("{epoch:?}: expected PePanic");
            };
            let pe0 = &diagnostics.pes[0];
            assert!(pe0.stats.arena_peak_slots > 0, "{epoch:?}: {:?}", pe0.stats);
            let delivery = |l: &String| l.starts_with("Enqueue") && !l.contains("EventId(0)");
            assert!(
                pe0.trace.iter().any(delivery),
                "{epoch:?}: {:#?}",
                pe0.trace
            );
        }
    }

    /// The store holds the arena's cap, reports its high-water mark, and
    /// a sampled round sees what it holds.
    #[test]
    fn the_store_keeps_the_arena_contract() {
        let m = busy_ring();
        // Boot files two tokens per LP, 16 per PE: over a cap of 8 before
        // the first window, and over 24 once the events sent ahead pile up.
        for cap in [8, 24] {
            match Run::new(&m, &windowed().with_arena_slots(cap)).go() {
                Err(RunError::ArenaExhausted { capacity, .. }) => assert_eq!(capacity, cap),
                other => panic!("cap {cap}: expected ArenaExhausted, got {other:?}"),
            }
        }
        let par = Run::new(&m, &windowed().with_gvt_interval(8)).go().unwrap();
        assert!(par.stats.arena_peak_slots > 24, "{:?}", par.stats);
        assert!(par.telemetry.rounds.iter().any(|r| r.queue_depth > 0));
    }
}
