//! The run lifecycle both kernels share.
//!
//! A run is *boot → loop → teardown*, with a telemetry sample (and possibly
//! a checkpoint) at every round boundary. Only the loop differs between the
//! kernels — strict key order on one thread vs optimistic execution with
//! rollback and GVT — so only the loop lives in
//! [`sequential`](crate::sequential) and [`parallel`](crate::parallel).
//! Everything around it is defined once: boot, round emission, heartbeats
//! and teardown here; the reverse-replay probe and LP fingerprint in
//! [`audit`](crate::audit); frame capture and the snapshot write step in
//! [`ckpt`](crate::ckpt); the per-PE failure snapshot in
//! [`error`](crate::error).

use std::time::Duration;

use crate::ckpt::BootFrame;
use crate::config::EngineConfig;
use crate::error::RunError;
use crate::event::EventKey;
use crate::model::{InitCtx, Model};
use crate::obs::agg::{Heartbeat, RunPhase};
use crate::obs::{RoundSeries, RoundSnapshot};
use crate::rng::{stream_seed, Clcg4};
use crate::stats::{EngineStats, RunResult};
use crate::time::VirtualTime;

/// Boot a run: produce the frame it starts from — `resume` if there is one,
/// otherwise the time-zero frame, every LP initialized on its own seeded RNG
/// stream (like ROSS's startup function) — and announce it to the fleet
/// monitor with the opening `Run` pulse.
///
/// The frame's pending events are not returned but streamed to `pending`, in
/// frontier order (LP order, then emission order, for a fresh run), so
/// booting never materializes a second copy of the event set. They carry no
/// ids: each kernel issues *fresh* ones from its own id space. Ids never
/// influence committed order, and no anti-message can target a boot event
/// (everything below the frame is committed).
pub(crate) fn boot<M: Model>(
    model: &M,
    config: &EngineConfig,
    resume: Option<BootFrame<M>>,
    mut pending: impl FnMut(EventKey, M::Payload),
) -> BootFrame<M> {
    let frame = if let Some(mut frame) = resume {
        for (key, payload) in std::mem::take(&mut frame.events) {
            pending(key, payload);
        }
        frame
    } else {
        let n_lps = model.n_lps();
        let mut lps = Vec::with_capacity(n_lps as usize);
        let mut emits = Vec::new();
        for lp in 0..n_lps {
            let mut rng = Clcg4::new(stream_seed(config.seed, lp as u64));
            let mut ctx = InitCtx {
                lp,
                rng: &mut rng,
                out: &mut emits,
            };
            let state = model.init(lp, &mut ctx);
            for emit in emits.drain(..) {
                assert!(
                    emit.dst < n_lps,
                    "init event to nonexistent LP {}",
                    emit.dst
                );
                let key = EventKey {
                    recv_time: emit.recv_time,
                    dst: emit.dst,
                    tie: emit.tie,
                    src: lp,
                    send_time: VirtualTime::ZERO,
                };
                pending(key, emit.payload);
            }
            lps.push((lp, state, rng));
        }
        BootFrame {
            gvt: 0,
            round: 0,
            base_stats: EngineStats::default(),
            lps,
            events: Vec::new(),
        }
    };
    let committed = frame.base_stats.events_committed;
    pulse(config, RunPhase::Run, 0, frame.round, frame.gvt, committed);
    frame
}

/// Emit one liveness pulse for the fleet monitor (see [`Heartbeat`]): `Run`
/// from [`boot`] and every [`heartbeat_every`](crate::obs::ObsConfig)
/// rounds, `End` / `Fail` exactly once from [`teardown`]. `committed` is
/// PE-local while running and the run total on the closing pulse.
fn pulse(
    config: &EngineConfig,
    phase: RunPhase,
    wall_us: u64,
    round: u64,
    gvt: u64,
    committed: u64,
) {
    if config.obs.heartbeat_every == 0 {
        return;
    }
    if let Some(sink) = &config.obs.sink {
        sink.heartbeat(&Heartbeat {
            pe: 0,
            wall_us,
            round,
            gvt,
            committed,
            phase,
        });
    }
}

/// Publish one PE's round sample: into its bounded series, to the streaming
/// sink at full resolution, and — PE 0 only, every `heartbeat_every` rounds
/// — as a `Run` pulse.
#[inline]
pub(crate) fn emit_round(config: &EngineConfig, series: &mut RoundSeries, snap: RoundSnapshot) {
    series.push(snap);
    if let Some(sink) = &config.obs.sink {
        sink.record(&snap);
        let every = config.obs.heartbeat_every;
        if snap.pe == 0 && every > 0 && snap.round.is_multiple_of(every) {
            pulse(
                config,
                RunPhase::Run,
                snap.wall_us,
                snap.round,
                snap.gvt,
                snap.events_committed,
            );
        }
    }
}

/// Close a run on either kernel. A successful run gets its wall time stamped
/// and its telemetry sealed; success and failure alike then pulse `End` /
/// `Fail` with the final `round`, `gvt` and run-wide `committed` total and
/// flush the sink — so a fleet monitor never sees a failed run as merely
/// silent.
pub(crate) fn teardown<O>(
    config: &EngineConfig,
    wall: Duration,
    round: u64,
    gvt: u64,
    committed: u64,
    mut outcome: Result<RunResult<O>, RunError>,
) -> Result<RunResult<O>, RunError> {
    let phase = match &mut outcome {
        Ok(result) => {
            result.stats.wall_time = wall;
            result.telemetry.seal();
            RunPhase::End
        }
        Err(_) => RunPhase::Fail,
    };
    let wall_us = wall.as_micros() as u64;
    pulse(config, phase, wall_us, round, gvt, committed);
    if let Some(sink) = &config.obs.sink {
        sink.flush();
    }
    outcome
}
