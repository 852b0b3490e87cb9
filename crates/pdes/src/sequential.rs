//! Sequential reference kernel.
//!
//! Executes events strictly in [`EventKey`](crate::event::EventKey) order on
//! one thread — no rollback, no GVT. This is the oracle the paper validates
//! the optimistic kernel against (Section 4.2.1): *"the only way for the
//! results of the parallel simulation to match the sequential model is for
//! the parallel model to be deterministic"*. The integration tests assert
//! byte-identical model outputs between the two kernels.

use std::time::Instant;

use crate::arena::{EventArena, SlotRef};
use crate::audit::{lp_fingerprint, AuditCheck, AuditHasher, AuditState, AuditViolation};
use crate::ckpt::{CkptPart, CkptWriter, EventRecord, LpRecord, RestoredRun, Snapshot};
use crate::config::EngineConfig;
use crate::error::{PeDiagnostics, RunDiagnostics, RunError};
use crate::event::{Bitfield, Event, EventId, EventKey, LpId, QueueEntry};
use crate::model::{Emit, EventCtx, InitCtx, Model, ReverseCtx};
use crate::obs::prof::Phase;
use crate::obs::{FlightRecorder, ObsKind, ObsRecord, RoundSnapshot, Telemetry};
use crate::rng::{stream_seed, Clcg4, ReversibleRng};
use crate::stats::{EngineStats, RunResult};

/// Run `model` to completion on the sequential kernel.
///
/// Consulted from the config: `end_time`, `seed`, `scheduler`,
/// `arena_slots`, the checkpoint knobs, `obs` (same telemetry surface as
/// the parallel kernel), `audit` / `audit_probe`, and `gvt_interval` —
/// there is no GVT here, so it is the number of committed events between
/// telemetry samples, scheduler audits and checkpoint opportunities.
/// PE/KP/lookahead/batching settings are meaningless without optimism, and
/// the communication faults of a configured
/// [`fault_plan`](crate::config::EngineConfig::fault_plan) are ignored
/// (there is no inter-PE boundary to inject them at — only
/// [`poison_ckpt`](crate::fault::FaultPlan::poison_ckpt) applies here). An
/// empty model or an invalid configuration is rejected as
/// [`RunError::ConfigInvalid`](crate::error::RunError::ConfigInvalid).
pub fn run_sequential<M: Model>(
    model: &M,
    config: &EngineConfig,
) -> Result<RunResult<M::Output>, RunError> {
    run_sequential_inner(model, config, None)
}

/// Resume a sequential run from a checkpoint [`Snapshot`].
///
/// The snapshot is validated against `model` and `config` (seed, horizon,
/// LP count, and per-LP audit fingerprints must all match); execution then
/// continues from the captured frontier and the committed suffix is
/// bit-identical to the same span of an uninterrupted run. Snapshots are
/// kernel-portable: a frame captured by the parallel kernel resumes here
/// and vice versa.
pub fn run_sequential_resumed<M: Model>(
    model: &M,
    config: &EngineConfig,
    snap: &Snapshot,
) -> Result<RunResult<M::Output>, RunError> {
    config.validate()?;
    let restored = crate::ckpt::restore(model, config, snap)?;
    run_sequential_inner(model, config, Some(restored))
}

fn run_sequential_inner<M: Model>(
    model: &M,
    config: &EngineConfig,
    resume: Option<RestoredRun<M>>,
) -> Result<RunResult<M::Output>, RunError> {
    config.validate()?;
    let n_lps = model.n_lps();
    if n_lps == 0 {
        return Err(RunError::config("model has no LPs"));
    }
    // Run registry: a configured `metrics_path` turns into a run directory
    // with a manifest plus a JSONL sink (see [`obs::agg`](crate::obs::agg)).
    let instrumented;
    let config = match crate::obs::agg::instrument(config, n_lps as u64, "sequential")? {
        Some(cfg) => {
            instrumented = cfg;
            &instrumented
        }
        None => config,
    };

    let mut rngs: Vec<Clcg4>;
    let mut states: Vec<M::State>;
    let mut queue = config.scheduler.build();
    // Pending payloads live in the arena; the queue orders lightweight
    // handles (same storage split as the parallel kernel).
    let mut arena: EventArena<M::Payload> = EventArena::new(
        config
            .arena_slots
            .unwrap_or(EventArena::<M::Payload>::DEFAULT_SLOTS),
    );
    let mut seq: u64 = 0;
    let mut emits: Vec<Emit<M::Payload>> = Vec::new();

    // Reversibility auditor (see [`audit`](crate::audit)). The sequential
    // kernel never rolls back, so only the reverse-replay probe and the
    // scheduler checks apply — which makes it the cheapest place to localize
    // a broken `reverse` handler before trusting it under optimism.
    let mut audit = config.audit.then(|| AuditState::new(None));
    let mut probe_buf: Vec<Emit<M::Payload>> = Vec::new();

    let mut stats = EngineStats::default();
    let mut round: u64 = 0;
    let mut last_ckpt_gvt: u64 = 0;
    let mut ckpt_writes: u64 = 0;
    let resumed_from = resume.as_ref().map(|r| r.round);

    // Observability: same surface as the parallel kernel, adapted to one
    // thread with no rollback. The "GVT" of a sequential run is simply the
    // current event's time (everything commits immediately), so a snapshot
    // is sampled every `gvt_interval` committed events with gvt == lvt.
    let mut recorder = config.obs.build_recorder();
    let mut series = config.obs.build_series();
    let mut profiler = config.obs.build_profiler();
    let mut tracer = config.obs.build_tracer(1);
    let mut hop_buf: Vec<crate::obs::trace::HopEmit> = Vec::new();
    let mut since_sample: u64 = 0;

    match resume {
        None => {
            rngs = (0..n_lps)
                .map(|lp| Clcg4::new(stream_seed(config.seed, lp as u64)))
                .collect();
            states = Vec::with_capacity(n_lps as usize);
            // Initialize every LP and enqueue its bootstrap events.
            for lp in 0..n_lps {
                let mut ctx = InitCtx {
                    lp,
                    rng: &mut rngs[lp as usize],
                    out: &mut emits,
                };
                states.push(model.init(lp, &mut ctx));
                for emit in emits.drain(..) {
                    let Event { id, key, payload } = materialize(emit, lp, &mut seq);
                    if let Some(a) = audit.as_mut() {
                        a.toggle_sched(id, &key);
                    }
                    let slot = insert_slot(&mut arena, payload, 0, queue.len(), &stats, &recorder)?;
                    queue.push(QueueEntry { key, id, slot });
                }
            }
        }
        Some(restored) => {
            // Restored frame: LP states and RNG positions come straight from
            // the snapshot; pending events get *fresh* ids (ids never
            // influence committed order and no anti-message can target a
            // restored event — everything below the frame is committed).
            rngs = Vec::with_capacity(n_lps as usize);
            states = Vec::with_capacity(n_lps as usize);
            for (_lp, state, rng) in restored.lps {
                states.push(state);
                rngs.push(rng);
            }
            for (key, payload) in restored.events {
                let id = EventId::new(0, seq);
                seq += 1;
                if let Some(a) = audit.as_mut() {
                    a.toggle_sched(id, &key);
                }
                let slot = insert_slot(&mut arena, payload, 0, queue.len(), &stats, &recorder)?;
                queue.push(QueueEntry { key, id, slot });
            }
            stats = restored.base_stats;
            round = restored.round;
            last_ckpt_gvt = restored.gvt;
        }
    }

    let start = Instant::now();
    if config.obs.heartbeat_every > 0 {
        if let Some(sink) = &config.obs.sink {
            sink.heartbeat(&crate::obs::agg::Heartbeat {
                pe: 0,
                wall_us: 0,
                round,
                gvt: last_ckpt_gvt,
                committed: stats.events_committed,
                phase: crate::obs::agg::RunPhase::Run,
            });
        }
    }
    let mut bf = Bitfield::default();
    let mut last_key: Option<EventKey> = None;

    if let Some(from) = resumed_from {
        if recorder.wants(ObsKind::Recovery) {
            recorder.record(ObsRecord::kernel(ObsKind::Recovery, from));
        }
    }

    loop {
        // Events at or beyond the horizon are never executed; the queue is
        // ordered, so the first such key ends the run.
        let executable = matches!(queue.peek_key(), Some(k) if k.recv_time < config.end_time);
        if !executable {
            break;
        }
        let t0 = profiler.begin(Phase::SchedPop);
        let entry = queue.pop().expect("peeked key must pop");
        profiler.end(Phase::SchedPop, t0);
        if let Some(a) = audit.as_mut() {
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

        // Auditor: replay handle+reverse once before the real execution and
        // require the LP fingerprint to return to its starting value.
        // `PDES_AUDIT=fast` (audit_probe = false) skips the double execution
        // and keeps only the hash-mirror checks.
        if audit.is_some() && config.audit_probe {
            let payload = arena.get_mut(entry.slot);
            if let Err(v) = probe_reverse(
                model,
                lp,
                &mut states[lp as usize],
                &mut rngs[lp as usize],
                &entry,
                payload,
                &mut probe_buf,
            ) {
                if recorder.wants(ObsKind::AuditViolation) {
                    recorder.record(ObsRecord::event(
                        ObsKind::AuditViolation,
                        entry.id,
                        entry.key,
                        v.check as u64,
                    ));
                }
                return Err(audit_failed(
                    v,
                    entry.key.recv_time.0,
                    queue.len(),
                    &stats,
                    &recorder,
                ));
            }
        }

        bf.clear();
        if recorder.wants(ObsKind::Execute) {
            recorder.record(ObsRecord::event(ObsKind::Execute, entry.id, entry.key, 0));
        }
        let tracing = tracer.enabled();
        {
            let t0 = profiler.begin(Phase::Execute);
            let payload = arena.get_mut(entry.slot);
            let mut ctx = EventCtx {
                lp,
                src: entry.key.src,
                now: entry.key.recv_time,
                send_time: entry.key.send_time,
                bf: &mut bf,
                rng: &mut rngs[lp as usize],
                out: &mut emits,
                obs: Some(&mut recorder),
                trace: tracing.then_some(&mut hop_buf),
            };
            model.handle(&mut states[lp as usize], payload, &mut ctx);
            profiler.end(Phase::Execute, t0);
        }
        // Sequential execution commits immediately — hops go straight to the
        // committed log; no speculation to stage.
        tracer.commit_direct(&entry.key, &mut hop_buf);
        model.commit(arena.get(entry.slot), lp, entry.key.recv_time);
        let t0 = profiler.begin(Phase::SchedPush);
        for emit in emits.drain(..) {
            debug_assert!(emit.dst < n_lps, "scheduled to nonexistent LP {}", emit.dst);
            let src = lp;
            let Event {
                id,
                mut key,
                payload,
            } = materialize(emit, src, &mut seq);
            key.send_time = entry.key.recv_time;
            if recorder.wants(ObsKind::Enqueue) {
                recorder.record(ObsRecord::event(ObsKind::Enqueue, id, key, 0));
            }
            if let Some(a) = audit.as_mut() {
                a.toggle_sched(id, &key);
            }
            let slot = insert_slot(
                &mut arena,
                payload,
                entry.key.recv_time.0,
                queue.len(),
                &stats,
                &recorder,
            )?;
            queue.push(QueueEntry { key, id, slot });
        }
        profiler.end(Phase::SchedPush, t0);
        // Committed and its children materialized — the slot is dead; recycle
        // it so steady-state execution never grows the arena.
        let _ = arena.free(entry.slot);
        stats.events_processed += 1;
        stats.events_committed += 1;
        since_sample += 1;
        if since_sample >= config.gvt_interval {
            since_sample = 0;
            round += 1;
            // Auditor: the GVT-interval boundary is the sequential analogue
            // of a GVT round — compare the scheduler's recomputed content
            // fingerprint with the kernel's mirror and walk its invariants.
            if let Some(a) = audit.as_ref() {
                if let Err(v) = a.check_scheduler(0, queue.audit_digest(), queue.check_invariants())
                {
                    return Err(audit_failed(
                        v,
                        entry.key.recv_time.0,
                        queue.len(),
                        &stats,
                        &recorder,
                    ));
                }
            }
            let now_ticks = entry.key.recv_time.0;
            // Checkpoint: the interval boundary is the sequential analogue of
            // a committed GVT round — everything executed so far is final, so
            // (states, rngs, pending queue) is a complete frame.
            if config
                .checkpoint_every
                .is_some_and(|n| n != 0 && round.is_multiple_of(n))
                && now_ticks > last_ckpt_gvt
            {
                let part = capture_part(model, &states, &rngs, queue.as_mut(), &arena, &stats)?;
                let frame = Snapshot::assemble(
                    config.seed,
                    config.end_time,
                    n_lps,
                    now_ticks,
                    round,
                    vec![part],
                );
                let (path, bytes) = crate::ckpt::write_snapshot(&frame, &config.checkpoint_dir)?;
                if config
                    .fault_plan
                    .as_ref()
                    .is_some_and(|p| p.poison_ckpt == Some(ckpt_writes))
                {
                    crate::ckpt::poison_file(&path)?;
                }
                ckpt_writes += 1;
                stats.checkpoints_written += 1;
                stats.checkpoint_bytes += bytes;
                last_ckpt_gvt = now_ticks;
                if recorder.wants(ObsKind::Checkpoint) {
                    recorder.record(ObsRecord::kernel(ObsKind::Checkpoint, bytes));
                }
            }
            let snap = RoundSnapshot {
                round,
                pe: 0,
                wall_us: start.elapsed().as_micros() as u64,
                gvt: now_ticks,
                lvt: now_ticks,
                queue_depth: queue.len() as u64,
                events_committed: stats.events_committed,
                events_processed: stats.events_processed,
                phase_ns: profiler.cumulative_ns(),
                checkpoints_written: stats.checkpoints_written,
                checkpoint_bytes: stats.checkpoint_bytes,
                ..Default::default()
            };
            series.push(snap);
            if let Some(sink) = &config.obs.sink {
                sink.record(&snap);
                let every = config.obs.heartbeat_every;
                if every > 0 && round.is_multiple_of(every) {
                    sink.heartbeat(&crate::obs::agg::Heartbeat {
                        pe: 0,
                        wall_us: snap.wall_us,
                        round,
                        gvt: now_ticks,
                        committed: stats.events_committed,
                        phase: crate::obs::agg::RunPhase::Run,
                    });
                }
            }
        }
    }

    // Final auditor sweep over whatever the horizon left in the queue.
    if let Some(a) = audit.as_ref() {
        if let Err(v) = a.check_scheduler(0, queue.audit_digest(), queue.check_invariants()) {
            let gvt = last_key.map_or(0, |k| k.recv_time.0);
            return Err(audit_failed(v, gvt, queue.len(), &stats, &recorder));
        }
    }

    stats.arena_peak_slots = arena.peak() as u64;
    stats.wall_time = start.elapsed();
    stats.prof = profiler.profile().clone();
    // The sequential kernel never speculates, so its blame report (and the
    // cascade fields of every RoundSnapshot above, via `..Default`) stays at
    // the structural zero the forensics suite pins — the surface is
    // identical to a parallel run's, the content provably empty.
    debug_assert!(stats.blame.is_empty());

    let mut output = M::Output::default();
    for lp in 0..n_lps {
        model.finish(lp, &states[lp as usize], &mut output);
    }
    let mut telemetry = Telemetry::default();
    telemetry.absorb(series, recorder.summary(0));
    telemetry.absorb_trace(tracer.finish(true));
    telemetry.seal();
    if let Some(sink) = &config.obs.sink {
        if config.obs.heartbeat_every > 0 {
            sink.heartbeat(&crate::obs::agg::Heartbeat {
                pe: 0,
                wall_us: stats.wall_time.as_micros() as u64,
                round,
                gvt: last_key.map_or(last_ckpt_gvt, |k| k.recv_time.0),
                committed: stats.events_committed,
                phase: crate::obs::agg::RunPhase::End,
            });
        }
        sink.flush();
    }
    Ok(RunResult {
        output,
        stats,
        telemetry,
    })
}

/// Fingerprint one LP: the model's [`Model::audit_state`] digest plus the
/// RNG stream position.
fn audit_fingerprint<M: Model>(model: &M, lp: LpId, state: &M::State, rng: &Clcg4) -> u64 {
    let mut h = AuditHasher::new();
    model.audit_state(lp, state, &mut h);
    lp_fingerprint(h.finish(), rng)
}

/// Reverse-replay probe (sequential flavor): run `handle` against a scratch
/// emission buffer with observability off, run `reverse`, un-step the RNG,
/// and require the LP fingerprint to return to its pre-probe value. On
/// success the LP, RNG, and payload are back exactly where they started.
fn probe_reverse<M: Model>(
    model: &M,
    lp: LpId,
    state: &mut M::State,
    rng: &mut Clcg4,
    entry: &QueueEntry,
    payload: &mut M::Payload,
    probe_out: &mut Vec<Emit<M::Payload>>,
) -> Result<(), AuditViolation> {
    let before = audit_fingerprint(model, lp, state, rng);
    let mut bf = Bitfield::default();
    let rng_before = rng.call_count();
    {
        let mut ctx = EventCtx {
            lp,
            src: entry.key.src,
            now: entry.key.recv_time,
            send_time: entry.key.send_time,
            bf: &mut bf,
            rng,
            out: probe_out,
            obs: None,
            trace: None,
        };
        model.handle(state, payload, &mut ctx);
    }
    probe_out.clear();
    let rng_calls = rng.call_count() - rng_before;
    let rctx = ReverseCtx {
        lp,
        now: entry.key.recv_time,
        bf,
    };
    model.reverse(state, payload, &rctx);
    rng.reverse_n(rng_calls);
    let after = audit_fingerprint(model, lp, state, rng);
    if after != before {
        return Err(AuditViolation {
            pe: 0,
            lp: Some(lp),
            id: Some(entry.id),
            key: Some(entry.key),
            check: AuditCheck::ReverseReplay,
            detail: format!(
                "handle+reverse left LP fingerprint {after:#018x}, expected {before:#018x} \
                 (reverse is not an exact inverse of handle)"
            ),
        });
    }
    Ok(())
}

/// Land a payload in the arena, converting exhaustion into a structured
/// [`RunError::ArenaExhausted`] with a one-PE diagnostics snapshot.
fn insert_slot<P>(
    arena: &mut EventArena<P>,
    payload: P,
    gvt: u64,
    queue_depth: usize,
    stats: &EngineStats,
    recorder: &FlightRecorder,
) -> Result<SlotRef, RunError> {
    arena
        .insert(payload)
        .map_err(|full| RunError::ArenaExhausted {
            pe: 0,
            capacity: full.capacity,
            diagnostics: RunDiagnostics {
                gvt,
                sent: 0,
                received: 0,
                pes: vec![PeDiagnostics {
                    pe: 0,
                    queue_depth,
                    stats: stats.clone(),
                    trace: recorder.decode_last(64),
                    recorder: recorder.summary(0),
                    ..Default::default()
                }],
            },
        })
}

/// Package an audit violation as [`RunError::AuditFailed`] with a one-PE
/// diagnostics snapshot.
fn audit_failed(
    violation: AuditViolation,
    gvt: u64,
    queue_depth: usize,
    stats: &EngineStats,
    recorder: &FlightRecorder,
) -> RunError {
    RunError::AuditFailed {
        violation: Box::new(violation),
        diagnostics: RunDiagnostics {
            gvt,
            sent: 0,
            received: 0,
            pes: vec![PeDiagnostics {
                pe: 0,
                queue_depth,
                stats: stats.clone(),
                trace: recorder.decode_last(64),
                recorder: recorder.summary(0),
                ..Default::default()
            }],
        },
    }
}

/// Serialize one complete committed frame: every LP's model state (via
/// [`Model::save_state`]), RNG position, and audit fingerprint, plus the
/// whole pending queue. The queue is drained and re-pushed — content is
/// unchanged, so the auditor's scheduler mirror stays consistent without
/// any toggles.
fn capture_part<M: Model>(
    model: &M,
    states: &[M::State],
    rngs: &[Clcg4],
    queue: &mut dyn crate::scheduler::EventQueue,
    arena: &EventArena<M::Payload>,
    stats: &EngineStats,
) -> Result<CkptPart, crate::ckpt::CkptError> {
    // One scratch writer for every record: each LP state / payload is
    // serialized into the reused buffer, then copied out exactly-sized.
    let mut w = CkptWriter::new();
    let mut lps = Vec::with_capacity(states.len());
    for (lp, (state, rng)) in states.iter().zip(rngs).enumerate() {
        let lp = lp as LpId;
        w.clear();
        model.save_state(lp, state, &mut w)?;
        let mut h = AuditHasher::new();
        model.audit_state(lp, state, &mut h);
        lps.push(LpRecord {
            lp,
            rng_s: rng.state(),
            rng_count: rng.call_count(),
            fingerprint: lp_fingerprint(h.finish(), rng),
            state: w.as_slice().to_vec(),
        });
    }
    let mut events = Vec::with_capacity(queue.len());
    let mut scratch: Vec<QueueEntry> = Vec::with_capacity(queue.len());
    while let Some(e) = queue.pop() {
        w.clear();
        model.save_payload(arena.get(e.slot), &mut w)?;
        events.push(EventRecord::from_key(&e.key, w.as_slice().to_vec()));
        scratch.push(e);
    }
    for e in scratch {
        queue.push(e);
    }
    Ok(CkptPart {
        lps,
        events,
        stats: stats.clone(),
    })
}

/// Turn an [`Emit`] into a full event. The sequential kernel allocates all
/// ids from one counter; ids never influence processing order.
fn materialize<P>(emit: Emit<P>, src: LpId, seq: &mut u64) -> Event<P> {
    let id = EventId::new(0, *seq);
    *seq += 1;
    Event {
        id,
        key: EventKey {
            recv_time: emit.recv_time,
            dst: emit.dst,
            tie: emit.tie,
            src,
            send_time: crate::time::VirtualTime::ZERO,
        },
        payload: emit.payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Merge, ReverseCtx};
    use crate::rng::ReversibleRng;
    use crate::time::VirtualTime;

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
        let result = run_sequential(&model, &config).unwrap();
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
        let a = run_sequential(&model, &config).unwrap();
        let b = run_sequential(&model, &config).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.stats.events_committed, b.stats.events_committed);
    }

    #[test]
    fn different_seed_same_topological_counts() {
        // Event counts don't depend on RNG here, only the draws do.
        let model = PingPong { n: 4 };
        let a = run_sequential(
            &model,
            &EngineConfig::new(VirtualTime::from_steps(5)).with_seed(1),
        )
        .unwrap();
        let b = run_sequential(
            &model,
            &EngineConfig::new(VirtualTime::from_steps(5)).with_seed(2),
        )
        .unwrap();
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn splay_and_heap_agree() {
        use crate::scheduler::SchedulerKind;
        let model = PingPong { n: 8 };
        let base = EngineConfig::new(VirtualTime::from_steps(30)).with_seed(5);
        let heap =
            run_sequential(&model, &base.clone().with_scheduler(SchedulerKind::Heap)).unwrap();
        let splay = run_sequential(&model, &base.with_scheduler(SchedulerKind::Splay)).unwrap();
        assert_eq!(heap.output, splay.output);
        assert_eq!(heap.stats.events_committed, splay.stats.events_committed);
    }
}
