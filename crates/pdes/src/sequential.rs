//! Sequential reference kernel.
//!
//! Executes events strictly in [`EventKey`](crate::event::EventKey) order on
//! one thread — no rollback, no GVT. This is the oracle the paper validates
//! the optimistic kernel against (Section 4.2.1): *"the only way for the
//! results of the parallel simulation to match the sequential model is for
//! the parallel model to be deterministic"*. The integration tests assert
//! byte-identical model outputs between the two kernels.
//!
//! A run reaches it through [`Run::sequential`](crate::Run::sequential).
//! Only the loop lives here — pop in key order, handle, commit, push the
//! children. Boot, the audit probe, frame capture, round emission and
//! teardown are the shared run [`lifecycle`] the parallel kernel calls too.
//! The loop itself is deliberately *not* shared with (or folded into) the
//! optimistic runtime: it is the reference every equality suite compares
//! against, so it must not depend on the machinery it checks.

use std::time::Instant;

use crate::arena::EventArena;
use crate::audit::{self, AuditState};
use crate::ckpt::{self, BootFrame};
use crate::config::EngineConfig;
use crate::error::{FailureCause, PeDiagnostics, RunDiagnostics, RunError};
use crate::event::{Bitfield, EventId, EventKey, QueueEntry};
use crate::lifecycle;
use crate::model::{Emit, EventCtx, Model};
use crate::obs::prof::Phase;
use crate::obs::trace::HopEmit;
use crate::obs::{ObsKind, ObsRecord, RoundSnapshot, Telemetry};
use crate::scheduler::EventQueue;
use crate::stats::RunResult;

/// `Run::new(model, config).sequential().go()`, kept only because the
/// `benchmark/` package imports it; removed with the next benchmark change.
pub fn run_sequential<M: Model>(
    model: &M,
    config: &EngineConfig,
) -> Result<RunResult<M::Output>, RunError> {
    crate::Run::new(model, config).sequential().go()
}

/// The reference loop: `config` validated and instrumented by
/// [`Run::go`](crate::Run::go), which also restored `resume` if there is
/// one.
///
/// Consulted from the config: `end_time`, `seed`, `scheduler`,
/// `arena_slots`, the checkpoint knobs, `obs` (same telemetry surface as
/// the parallel kernel), `audit` / `audit_probe`, and `gvt_interval` —
/// there is no GVT here, so it is the number of committed events between
/// telemetry samples, scheduler audits and checkpoint opportunities.
/// Not consulted: the PE/KP/lookahead/batching settings (meaningless
/// without optimism), `deadline` and `gvt_stall_rounds` (no watchdog),
/// [`obs.progress_every`](crate::obs::ObsConfig::progress_every) (no stderr
/// progress line), and the communication faults of a configured
/// [`fault_plan`](crate::config::EngineConfig::fault_plan) (there is no
/// inter-PE boundary to inject them at — only
/// [`poison_ckpt`](crate::fault::FaultPlan::poison_ckpt) applies here). A
/// model panic is *not* contained here (only the parallel kernel runs its
/// workers under `catch_unwind`); every other failure closes the metrics
/// stream with a `fail` heartbeat, exactly like a parallel run.
pub(crate) fn run_sequential_inner<M: Model>(
    model: &M,
    config: &EngineConfig,
    resume: Option<BootFrame<M>>,
) -> Result<RunResult<M::Output>, RunError> {
    let n_lps = model.n_lps();
    let default_slots = EventArena::<M::Payload>::DEFAULT_SLOTS;
    let mut pending = Pending::<M::Payload> {
        queue: config.scheduler.build(),
        arena: EventArena::new(config.arena_slots.unwrap_or(default_slots)),
        audit: config.audit.then(|| AuditState::new(None)),
        next_seq: 0,
    };
    // Boot straight into the pending set; an exhausted arena fails the run
    // from inside the loop closure below, through the shared teardown.
    let mut boot_failure = None;
    let resumed = resume.is_some();
    let frame = lifecycle::boot(model, config, resume, |key, payload| {
        if let Err(cause) = pending.push(key, payload) {
            boot_failure.get_or_insert(cause);
        }
    });
    // `(lp, state, rng)` for every LP, indexed by LP id.
    let mut lps = frame.lps;
    let mut stats = frame.base_stats;
    let mut round = frame.round;
    let mut last_ckpt_gvt = frame.gvt;
    let mut ckpt_writes: u64 = 0;

    // Observability: same surface as the parallel kernel, adapted to one
    // thread with no rollback. The "GVT" of a sequential run is simply the
    // current event's time (everything commits immediately), so a snapshot
    // is sampled every `gvt_interval` committed events with gvt == lvt.
    let mut recorder = config.obs.build_recorder();
    let mut series = config.obs.build_series();
    let mut profiler = config.obs.build_profiler();
    let mut tracer = config.obs.build_tracer(1);
    if resumed && recorder.wants(ObsKind::Recovery) {
        recorder.record(ObsRecord::kernel(ObsKind::Recovery, round));
    }

    let start = Instant::now();
    let mut last_key: Option<EventKey> = None;

    // The reference loop. A closure only so that `?` leaves the loop and
    // still reaches the shared teardown below.
    let outcome = (|| -> Result<(), FailureCause> {
        if let Some(cause) = boot_failure {
            return Err(cause);
        }
        let mut emits: Vec<Emit<M::Payload>> = Vec::new();
        let mut probe_buf: Vec<Emit<M::Payload>> = Vec::new();
        let mut hop_buf: Vec<HopEmit> = Vec::new();
        let mut bf = Bitfield::default();
        let mut since_sample: u64 = 0;

        // Events at or beyond the horizon are never executed; the queue is
        // ordered, so the first such key ends the run.
        while matches!(pending.queue.peek_key(), Some(k) if k.recv_time < config.end_time) {
            let t0 = profiler.begin(Phase::SchedPop);
            let entry = pending.queue.pop().expect("peeked key must pop");
            profiler.end(Phase::SchedPop, t0);
            if let Some(a) = pending.audit.as_mut() {
                a.toggle_sched(entry.id, &entry.key);
            }
            debug_assert!(
                last_key.is_none_or(|lk| lk < entry.key),
                "event keys must be strictly increasing (duplicate key?): {last_key:?} then {:?}",
                entry.key
            );
            last_key = Some(entry.key);

            let lp = entry.key.dst;
            assert!(lp < n_lps, "event addressed to nonexistent LP {lp}");
            let (_, state, rng) = &mut lps[lp as usize];

            // Auditor: replay handle+reverse once before the real execution
            // and require the LP fingerprint to return to its starting
            // value. `PDES_AUDIT=fast` (audit_probe = false) skips the double
            // execution and keeps only the hash-mirror checks.
            if pending.audit.is_some() && config.audit_probe {
                let payload = pending.arena.get_mut(entry.slot);
                audit::probe_reverse(model, 0, state, rng, &entry, payload, &mut probe_buf)?;
            }

            bf.clear();
            if recorder.wants(ObsKind::Execute) {
                recorder.record(ObsRecord::event(ObsKind::Execute, entry.id, entry.key, 0));
            }
            let tracing = tracer.enabled();
            let t0 = profiler.begin(Phase::Execute);
            let mut ctx = EventCtx {
                lp,
                src: entry.key.src,
                now: entry.key.recv_time,
                send_time: entry.key.send_time,
                bf: &mut bf,
                rng,
                out: &mut emits,
                obs: Some(&mut recorder),
                trace: tracing.then_some(&mut hop_buf),
            };
            model.handle(state, pending.arena.get_mut(entry.slot), &mut ctx);
            profiler.end(Phase::Execute, t0);
            // Sequential execution commits immediately — hops go straight to
            // the committed log; no speculation to stage.
            tracer.commit_direct(&entry.key, &mut hop_buf);
            model.commit(pending.arena.get(entry.slot), lp, entry.key.recv_time);
            let t0 = profiler.begin(Phase::SchedPush);
            for emit in emits.drain(..) {
                debug_assert!(emit.dst < n_lps, "scheduled to nonexistent LP {}", emit.dst);
                let key = EventKey {
                    recv_time: emit.recv_time,
                    dst: emit.dst,
                    tie: emit.tie,
                    src: lp,
                    send_time: entry.key.recv_time,
                };
                let id = pending.push(key, emit.payload)?;
                if recorder.wants(ObsKind::Enqueue) {
                    recorder.record(ObsRecord::event(ObsKind::Enqueue, id, key, 0));
                }
            }
            profiler.end(Phase::SchedPush, t0);
            // Committed and its children materialized — the slot is dead;
            // recycle it so steady-state execution never grows the arena.
            let _ = pending.arena.free(entry.slot);
            stats.events_processed += 1;
            stats.events_committed += 1;
            since_sample += 1;
            if since_sample < config.gvt_interval {
                continue;
            }
            since_sample = 0;
            round += 1;
            // Auditor: the GVT-interval boundary is the sequential analogue
            // of a GVT round.
            pending.check()?;
            let now_ticks = entry.key.recv_time.0;
            // Checkpoint: the interval boundary is the sequential analogue of
            // a committed GVT round — everything executed so far is final, so
            // (states, rngs, pending queue) is a complete frame.
            if ckpt::due(config, round, now_ticks, last_ckpt_gvt) {
                let all = lps.iter().map(|(lp, state, rng)| (*lp, state, rng));
                let part =
                    ckpt::capture_part(model, all, pending.queue.as_mut(), &pending.arena, &stats)?;
                ckpt::write_frame(
                    config,
                    now_ticks,
                    round,
                    vec![part],
                    &mut ckpt_writes,
                    &mut stats,
                    &mut recorder,
                )?;
                last_ckpt_gvt = now_ticks;
            }
            let snap = RoundSnapshot {
                round,
                pe: 0,
                wall_us: start.elapsed().as_micros() as u64,
                gvt: now_ticks,
                lvt: now_ticks,
                queue_depth: pending.queue.len() as u64,
                events_committed: stats.events_committed,
                events_processed: stats.events_processed,
                phase_ns: profiler.cumulative_ns(),
                checkpoints_written: stats.checkpoints_written,
                checkpoint_bytes: stats.checkpoint_bytes,
                ..Default::default()
            };
            lifecycle::emit_round(config, &mut series, snap);
        }
        // Final auditor sweep over whatever the horizon left in the queue.
        pending.check()
    })();

    let wall = start.elapsed();
    let gvt = last_key.map_or(last_ckpt_gvt, |k| k.recv_time.0);
    let committed = stats.events_committed;
    let result = match outcome {
        Ok(()) => {
            stats.arena_peak_slots = pending.arena.peak() as u64;
            stats.prof = profiler.profile().clone();
            // The sequential kernel never speculates, so its blame report
            // (and the cascade fields of every RoundSnapshot above, via
            // `..Default`) stays at the structural zero the forensics suite
            // pins — the surface is identical to a parallel run's, the
            // content provably empty.
            debug_assert!(stats.blame.is_empty());
            let mut output = M::Output::default();
            for (lp, state, _) in &lps {
                model.finish(*lp, state, &mut output);
            }
            let mut telemetry = Telemetry::default();
            telemetry.absorb(series, recorder.summary(0));
            telemetry.absorb_trace(tracer.finish(true));
            Ok(RunResult {
                output,
                stats,
                telemetry,
            })
        }
        Err(cause) => {
            if let FailureCause::Audit { violation } = &cause {
                audit::record_violation(&mut recorder, violation);
            }
            // One PE, no inter-PE traffic.
            Err(cause.into_error(RunDiagnostics {
                gvt,
                sent: 0,
                received: 0,
                pes: vec![PeDiagnostics::capture(
                    0,
                    pending.queue.len(),
                    &stats,
                    &recorder,
                )],
            }))
        }
    };
    lifecycle::teardown(config, wall, round, gvt, committed, result)
}

/// The pending-event set: scheduler handles over arena payloads (the same
/// storage split as the parallel kernel), every push mirrored into the
/// auditor.
struct Pending<P> {
    queue: Box<dyn EventQueue>,
    arena: EventArena<P>,
    /// Reversibility auditor (see [`audit`]). The sequential kernel never
    /// rolls back, so only the reverse-replay probe and the scheduler checks
    /// apply — which makes it the cheapest place to localize a broken
    /// `reverse` handler before trusting it under optimism.
    audit: Option<AuditState>,
    /// All ids come from one counter; ids never influence processing order.
    next_seq: u64,
}

impl<P> Pending<P> {
    /// Land a payload in the arena and its handle in the queue under a fresh
    /// id. Arena exhaustion is a structured failure, not a panic.
    #[inline]
    fn push(&mut self, key: EventKey, payload: P) -> Result<EventId, FailureCause> {
        let id = EventId::new(0, self.next_seq);
        self.next_seq += 1;
        if let Some(a) = self.audit.as_mut() {
            a.toggle_sched(id, &key);
        }
        let slot = self
            .arena
            .insert(payload)
            .map_err(|full| FailureCause::ArenaExhausted {
                pe: 0,
                capacity: full.capacity,
            })?;
        self.queue.push(QueueEntry { key, id, slot });
        Ok(id)
    }

    /// Auditor: the scheduler's recomputed content fingerprint must match
    /// the kernel's push/pop mirror, and its structural invariants must hold.
    fn check(&self) -> Result<(), FailureCause> {
        if let Some(a) = self.audit.as_ref() {
            a.check_scheduler(0, self.queue.audit_digest(), self.queue.check_invariants())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LpId;
    use crate::model::{InitCtx, Merge, ReverseCtx};
    use crate::rng::ReversibleRng;
    use crate::time::VirtualTime;
    use crate::Run;

    /// A ping-pong model: LP i sends to LP (i+1) % n every step; counts
    /// received messages and sums RNG draws to exercise the stream.
    struct PingPong {
        n: u32,
    }

    #[derive(Default, Clone, PartialEq, Debug)]
    struct PingState {
        received: u64,
        draw_sum: f64,
    }

    #[derive(Clone, Debug)]
    struct Ping {
        /// Draw saved by the forward handler so reverse can subtract it
        /// (exercised by the audit probe even though this kernel never
        /// rolls back).
        saved: f64,
    }

    #[derive(Default, Debug, PartialEq)]
    struct PingOut {
        total: u64,
    }

    impl Merge for PingOut {
        fn merge(&mut self, other: Self) {
            self.total += other.total;
        }
    }

    impl Model for PingPong {
        type State = PingState;
        type Payload = Ping;
        type Output = PingOut;

        fn n_lps(&self) -> u32 {
            self.n
        }

        fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, Ping>) -> PingState {
            ctx.schedule_at(
                lp,
                VirtualTime::from_steps(1),
                lp as u64,
                Ping { saved: 0.0 },
            );
            PingState::default()
        }

        fn handle(&self, state: &mut PingState, p: &mut Ping, ctx: &mut EventCtx<'_, Ping>) {
            state.received += 1;
            let draw = ctx.rng().uniform();
            state.draw_sum += draw;
            p.saved = draw;
            let next = (ctx.lp() + 1) % self.n;
            ctx.schedule(
                next,
                VirtualTime::STEP,
                ctx.lp() as u64,
                Ping { saved: 0.0 },
            );
        }

        fn reverse(&self, state: &mut PingState, p: &mut Ping, _ctx: &ReverseCtx) {
            state.received -= 1;
            state.draw_sum -= p.saved;
        }

        fn finish(&self, _lp: LpId, state: &PingState, out: &mut PingOut) {
            out.total += state.received;
        }
    }

    #[test]
    fn ping_pong_event_count_is_exact() {
        let model = PingPong { n: 4 };
        let config = EngineConfig::new(VirtualTime::from_steps(11));
        let result = Run::new(&model, &config).sequential().go().unwrap();
        // Each LP fires at steps 1..=10 → 4 LPs × 10 steps, plus nothing at
        // step 11 (>= end is excluded... step 11 events exist but horizon is
        // exclusive).
        assert_eq!(result.output.total, 40);
        assert_eq!(result.stats.events_committed, 40);
        assert_eq!(result.stats.events_processed, 40);
    }

    #[test]
    fn deterministic_across_runs() {
        let model = PingPong { n: 8 };
        let config = EngineConfig::new(VirtualTime::from_steps(50)).with_seed(99);
        let a = Run::new(&model, &config).sequential().go().unwrap();
        let b = Run::new(&model, &config).sequential().go().unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.stats.events_committed, b.stats.events_committed);
    }

    #[test]
    fn different_seed_same_topological_counts() {
        // Event counts don't depend on RNG here, only the draws do.
        let model = PingPong { n: 4 };
        let a = Run::new(
            &model,
            &EngineConfig::new(VirtualTime::from_steps(5)).with_seed(1),
        )
        .sequential()
        .go()
        .unwrap();
        let b = Run::new(
            &model,
            &EngineConfig::new(VirtualTime::from_steps(5)).with_seed(2),
        )
        .sequential()
        .go()
        .unwrap();
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn default_and_heap_agree() {
        use crate::scheduler::SchedulerKind;
        let model = PingPong { n: 8 };
        let base = EngineConfig::new(VirtualTime::from_steps(30)).with_seed(5);
        let heap = Run::new(&model, &base.clone().with_scheduler(SchedulerKind::Heap))
            .sequential()
            .go()
            .unwrap();
        let default = Run::new(&model, &base).sequential().go().unwrap();
        assert_eq!(heap.output, default.output);
        assert_eq!(heap.stats.events_committed, default.stats.events_committed);
    }
}
