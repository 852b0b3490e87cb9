//! Structured run failures.
//!
//! Both kernels return `Result<RunResult<_>, RunError>`. A failing parallel
//! run never hangs and never aborts the process: a panicking model handler
//! (or a violated kernel invariant) unwinds every PE and surfaces as
//! [`RunError::PePanic`] carrying per-PE diagnostics; a GVT that stops
//! advancing (zero-delay livelock, scheduling bug) trips the liveness
//! watchdog and surfaces as [`RunError::GvtStalled`]; malformed
//! configurations are rejected up front as [`RunError::ConfigInvalid`].
//!
//! Diagnostics are collected *after* all PE threads have unwound, so they are
//! a consistent post-mortem snapshot: last GVT, global message counters, and
//! per-PE queue depths, engine counters, and — when the flight recorder is
//! enabled (`PDES_TRACE=1` or
//! [`ObsConfig::recorder_capacity`](crate::obs::ObsConfig::recorder_capacity))
//! — the decoded tail of each PE's kernel-event ring.

use std::fmt;
use std::time::Duration;

use crate::audit::AuditViolation;
use crate::event::PeId;
use crate::obs::{FlightRecorder, RecorderSummary};
use crate::stats::EngineStats;

/// Why a kernel run failed.
#[derive(Debug)]
pub enum RunError {
    /// A PE thread panicked — in a model handler or on a kernel invariant.
    /// All sibling PEs were unwound cleanly before this was returned.
    PePanic {
        /// The PE whose thread panicked first.
        pe: PeId,
        /// The panic payload, rendered as text.
        payload: String,
        /// Post-mortem snapshot of the whole machine.
        diagnostics: RunDiagnostics,
    },
    /// GVT failed to advance for the configured number of consecutive
    /// reduction rounds (see
    /// [`EngineConfig::gvt_stall_rounds`](crate::config::EngineConfig::gvt_stall_rounds)),
    /// or the wall-clock deadline expired
    /// ([`EngineConfig::deadline`](crate::config::EngineConfig::deadline)).
    GvtStalled {
        /// The GVT value (ticks) the run was stuck at.
        gvt: u64,
        /// Consecutive non-advancing GVT rounds observed.
        rounds: u64,
        /// Wall-clock time elapsed when the watchdog fired (only meaningful
        /// for deadline trips; zero for round-count trips).
        elapsed: Duration,
        /// Post-mortem snapshot of the whole machine.
        diagnostics: RunDiagnostics,
    },
    /// The run was rejected before any event executed: bad engine
    /// configuration, empty model, or a model/mapping mismatch.
    ConfigInvalid {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A PE worker thread terminated without reporting a result — a kernel
    /// bug; included so joining can never panic a second time.
    WorkerLost {
        /// The PE whose report slot was empty.
        pe: PeId,
    },
    /// A checkpoint operation failed: the snapshot could not be written
    /// (I/O), a model does not implement the serialization hooks, or a
    /// snapshot handed to a resume entry point was corrupt or belongs to a
    /// different run (see [`ckpt`](crate::ckpt)).
    Checkpoint {
        /// Human-readable description of the failure.
        reason: String,
    },
    /// A PE's event arena ran out of slots: more events were simultaneously
    /// live (pending + processed-but-uncommitted) than the configured
    /// capacity (see
    /// [`EngineConfig::arena_slots`](crate::config::EngineConfig::arena_slots)).
    /// All sibling PEs were unwound cleanly before this was returned; raise
    /// the capacity or lower the GVT interval (commits free slots).
    ArenaExhausted {
        /// The PE whose arena filled up.
        pe: PeId,
        /// The arena capacity that was exhausted, in slots.
        capacity: u32,
        /// Post-mortem snapshot of the whole machine.
        diagnostics: RunDiagnostics,
    },
    /// The runtime auditor (see [`crate::audit`]) caught a reversibility,
    /// anti-message-conservation, or scheduler-integrity violation. The run
    /// was stopped at the first violation; all sibling PEs were unwound
    /// cleanly before this was returned.
    AuditFailed {
        /// The structured violation: which check, which PE/LP, which event.
        /// Boxed to keep `RunError` (and every `Result` carrying it) small.
        violation: Box<AuditViolation>,
        /// Post-mortem snapshot of the whole machine.
        diagnostics: RunDiagnostics,
    },
    /// Run-registry instrumentation failed before any event executed: the
    /// run directory, manifest, or metrics stream could not be created (see
    /// [`obs::agg`](crate::obs::agg)). An instrumented run that cannot
    /// register would be a silent gap in the fleet registry, so this is an
    /// error, not a warning.
    Obs {
        /// Human-readable description of the failure.
        reason: String,
    },
}

impl RunError {
    /// Shorthand constructor for [`RunError::ConfigInvalid`].
    pub fn config(reason: impl Into<String>) -> Self {
        RunError::ConfigInvalid {
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`RunError::Obs`].
    pub fn obs(reason: impl Into<String>) -> Self {
        RunError::Obs {
            reason: reason.into(),
        }
    }

    /// The machine snapshot attached to this failure, if any.
    pub fn diagnostics(&self) -> Option<&RunDiagnostics> {
        match self {
            RunError::PePanic { diagnostics, .. } => Some(diagnostics),
            RunError::GvtStalled { diagnostics, .. } => Some(diagnostics),
            RunError::AuditFailed { diagnostics, .. } => Some(diagnostics),
            RunError::ArenaExhausted { diagnostics, .. } => Some(diagnostics),
            RunError::ConfigInvalid { .. }
            | RunError::WorkerLost { .. }
            | RunError::Checkpoint { .. }
            | RunError::Obs { .. } => None,
        }
    }

    /// The audit violation behind this failure, if it is an
    /// [`RunError::AuditFailed`].
    pub fn audit_violation(&self) -> Option<&AuditViolation> {
        match self {
            RunError::AuditFailed { violation, .. } => Some(violation.as_ref()),
            _ => None,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::PePanic {
                pe,
                payload,
                diagnostics,
            } => {
                write!(f, "PE {pe} panicked: {payload}\n{diagnostics}")
            }
            RunError::GvtStalled {
                gvt,
                rounds,
                elapsed,
                diagnostics,
            } => {
                write!(
                    f,
                    "GVT stalled at {gvt} for {rounds} rounds ({elapsed:?} elapsed)\n{diagnostics}"
                )
            }
            RunError::ConfigInvalid { reason } => write!(f, "invalid configuration: {reason}"),
            RunError::Checkpoint { reason } => write!(f, "checkpoint failure: {reason}"),
            RunError::Obs { reason } => write!(f, "run instrumentation failure: {reason}"),
            RunError::WorkerLost { pe } => {
                write!(f, "PE {pe} worker thread terminated without reporting")
            }
            RunError::AuditFailed {
                violation,
                diagnostics,
            } => {
                write!(f, "{violation}\n{diagnostics}")
            }
            RunError::ArenaExhausted {
                pe,
                capacity,
                diagnostics,
            } => {
                write!(
                    f,
                    "PE {pe} event arena exhausted ({capacity} slots live); raise \
                     arena_slots or lower gvt_interval\n{diagnostics}"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Consistent post-run snapshot of the whole machine, attached to
/// [`RunError::PePanic`] and [`RunError::GvtStalled`].
#[derive(Debug, Default)]
pub struct RunDiagnostics {
    /// Last GVT the machine computed (ticks).
    pub gvt: u64,
    /// Global count of inter-PE messages pushed.
    pub sent: u64,
    /// Global count of inter-PE messages drained.
    pub received: u64,
    /// One entry per PE, in PE order.
    pub pes: Vec<PeDiagnostics>,
}

impl fmt::Display for RunDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "last GVT {} | messages sent {} / received {}",
            self.gvt, self.sent, self.received
        )?;
        for pe in &self.pes {
            writeln!(
                f,
                "  PE {}: pending {} | uncommitted {} | inbox {} | held faults {} | \
                 deferred antis {} | processed {} | rolled back {}",
                pe.pe,
                pe.queue_depth,
                pe.uncommitted,
                pe.inbox_depth,
                pe.held_faults,
                pe.deferred_antis,
                pe.stats.events_processed,
                pe.stats.events_rolled_back,
            )?;
            writeln!(
                f,
                "        comm: {} batches ({:.1} msgs/batch) | {} ring-full stalls | \
                 pool {:.0}% hit ({}h/{}m)",
                pe.stats.batches_flushed,
                pe.stats.mean_batch_size(),
                pe.stats.ring_full_stalls,
                100.0 * pe.stats.pool_hit_rate(),
                pe.stats.pool_hits,
                pe.stats.pool_misses,
            )?;
            if pe.recorder.recorded > 0 {
                writeln!(
                    f,
                    "        recorder: {} records kept of {} ({} overwritten), last {} shown",
                    pe.recorder.len,
                    pe.recorder.recorded,
                    pe.recorder.overwritten,
                    pe.trace.len(),
                )?;
            }
            for line in &pe.trace {
                writeln!(f, "    trace: {line}")?;
            }
        }
        Ok(())
    }
}

/// One PE's contribution to a [`RunDiagnostics`] snapshot.
#[derive(Debug, Default)]
pub struct PeDiagnostics {
    /// The PE this snapshot describes.
    pub pe: PeId,
    /// Events still in the pending queue.
    pub queue_depth: usize,
    /// Processed-but-uncommitted events across this PE's KPs.
    pub uncommitted: usize,
    /// Messages left in this PE's inbox at unwind time.
    pub inbox_depth: usize,
    /// Messages held back by the fault-injection layer.
    pub held_faults: usize,
    /// Anti-messages waiting for their positive to arrive.
    pub deferred_antis: usize,
    /// This PE's engine counters at unwind time.
    pub stats: EngineStats,
    /// Decoded tail (newest records) of the PE's flight-recorder ring —
    /// empty unless the recorder was enabled.
    pub trace: Vec<String>,
    /// The flight recorder's occupancy at unwind time (how many records the
    /// `trace` tail was cut from, and how many the ring overwrote).
    pub recorder: RecorderSummary,
}

/// Newest flight-recorder records decoded into failure diagnostics (the
/// "last N actions" a post-mortem usually needs; the full ring stays
/// available in memory until the runtime drops).
const TRACE_TAIL: usize = 64;

impl PeDiagnostics {
    /// What either kernel can say about one PE at unwind time: pending-queue
    /// depth, engine counters, and the decoded flight-recorder tail. The
    /// speculation-only fields (uncommitted, held faults, deferred antis,
    /// inbox) stay zero for the parallel kernel to fill in.
    pub(crate) fn capture(
        pe: PeId,
        queue_depth: usize,
        stats: &EngineStats,
        recorder: &FlightRecorder,
    ) -> PeDiagnostics {
        PeDiagnostics {
            pe,
            queue_depth,
            stats: stats.clone(),
            trace: recorder.decode_last(TRACE_TAIL),
            recorder: recorder.summary(pe),
            ..Default::default()
        }
    }
}

/// Internal: the first failure recorded by any PE; converted into a
/// [`RunError`] once every thread has unwound and diagnostics are complete.
#[derive(Debug)]
pub(crate) enum FailureCause {
    Panic {
        pe: PeId,
        payload: String,
    },
    /// The watchdog tripped: `elapsed` is zero for a round-count trip, the
    /// wall time at the trip for an expired deadline.
    Stalled {
        gvt: u64,
        rounds: u64,
        elapsed: Duration,
    },
    Audit {
        violation: AuditViolation,
    },
    Ckpt {
        reason: String,
    },
    ArenaExhausted {
        pe: PeId,
        capacity: u32,
    },
}

impl From<AuditViolation> for FailureCause {
    fn from(violation: AuditViolation) -> FailureCause {
        FailureCause::Audit { violation }
    }
}

impl FailureCause {
    pub(crate) fn into_error(self, diagnostics: RunDiagnostics) -> RunError {
        match self {
            FailureCause::Panic { pe, payload } => RunError::PePanic {
                pe,
                payload,
                diagnostics,
            },
            FailureCause::Stalled {
                gvt,
                rounds,
                elapsed,
            } => RunError::GvtStalled {
                gvt,
                rounds,
                elapsed,
                diagnostics,
            },
            FailureCause::Audit { violation } => RunError::AuditFailed {
                violation: Box::new(violation),
                diagnostics,
            },
            FailureCause::Ckpt { reason } => RunError::Checkpoint { reason },
            FailureCause::ArenaExhausted { pe, capacity } => RunError::ArenaExhausted {
                pe,
                capacity,
                diagnostics,
            },
        }
    }
}

/// Render a `catch_unwind` payload as text (panics carry `&str` or `String`
/// in practice; anything else gets a placeholder).
pub(crate) fn decode_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = RunError::PePanic {
            pe: 2,
            payload: "boom".into(),
            diagnostics: RunDiagnostics {
                gvt: 17,
                sent: 5,
                received: 4,
                pes: vec![PeDiagnostics {
                    pe: 0,
                    queue_depth: 3,
                    ..Default::default()
                }],
            },
        };
        let text = err.to_string();
        assert!(text.contains("PE 2 panicked: boom"));
        assert!(text.contains("last GVT 17"));
        assert!(text.contains("pending 3"));
    }

    #[test]
    fn config_shorthand() {
        let err = RunError::config("bad");
        assert!(matches!(err, RunError::ConfigInvalid { ref reason } if reason == "bad"));
        assert!(err.diagnostics().is_none());
    }

    #[test]
    fn decode_payload_handles_both_string_kinds() {
        assert_eq!(decode_payload(Box::new("static")), "static");
        assert_eq!(decode_payload(Box::new(String::from("owned"))), "owned");
        assert_eq!(
            decode_payload(Box::new(42u32)),
            "<non-string panic payload>"
        );
    }
}
