//! Flight-recorder telemetry for the Time Warp kernel.
//!
//! Everything the engine used to report was an end-of-run aggregate
//! ([`EngineStats`](crate::stats::EngineStats)), so the *dynamics* an
//! optimistic simulation lives or dies by — rollback cascades, virtual-time
//! progress, speculation depth — were invisible while a run was in flight.
//! This module is the always-compiled, near-zero-overhead observability
//! layer that makes them visible. Three pieces:
//!
//! * **[`FlightRecorder`]** — a per-PE, fixed-capacity ring buffer of
//!   structured kernel events ([`ObsRecord`]): event executed / rolled back,
//!   anti-message sent/received, GVT advance, comm flush/overflow, pool
//!   hit/miss, fault injected, model-level notes. A recorder with capacity
//!   keeps every kind; the recording site checks that capacity first (one
//!   load and one branch), and the buffer overwrites its oldest entries —
//!   memory is bounded no matter how pathological the rollback storm. On
//!   failure the *last N* decoded records feed
//!   [`PeDiagnostics`](crate::error::PeDiagnostics).
//! * **[`RoundSnapshot`] series** — at every GVT reduction each PE samples
//!   its local virtual time against the new GVT (the Korniss *roughness*
//!   profile: the per-PE virtual-time spread is the health signal of an
//!   optimistic simulation), plus queue depth, rollback and commit counters,
//!   comm-ring occupancy and pool hit rates. Snapshots accumulate in a
//!   bounded [`RoundSeries`] (stride-doubling decimation keeps whole-run
//!   coverage in fixed memory) exposed as [`Telemetry`] on
//!   [`RunResult`](crate::stats::RunResult), and stream through a
//!   [`MetricsSink`] ([`NullSink`] / [`MemorySink`] / [`JsonlSink`]).
//! * **Exporters** — [`chrome`] renders a run as Chrome `trace_event` JSON
//!   (open it in `chrome://tracing` or <https://ui.perfetto.dev>, one track
//!   per PE); [`json`] dumps the snapshot series as JSONL and hosts the
//!   dependency-free JSON validator the test-suite and CI use.
//!
//! Observation never perturbs committed output: the recorder and series are
//! write-only side channels off the hot path, and the determinism suites run
//! bit-identical to the sequential oracle with everything at maximum
//! verbosity.

pub mod agg;
pub mod blame;
pub mod chrome;
pub mod json;
pub mod prof;
pub mod trace;

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::event::{EventId, EventKey, PeId};
use crate::time::VirtualTime;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Record kinds
// ---------------------------------------------------------------------------

/// Every structured kernel event the recorder can hold.
///
/// The `arg` field of [`ObsRecord`] is kind-specific (documented per
/// variant); kinds without an argument leave it zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ObsKind {
    /// A positive event entered the pending queue.
    Enqueue = 0,
    /// A pending event was forward-executed.
    Execute,
    /// The executing event scheduled a child (`arg` = destination LP).
    Emit,
    /// An event passed GVT and was committed + reclaimed.
    Fossil,
    /// A straggler rolled its KP back (`arg` = straggler's recv ticks).
    PrimaryRollback,
    /// A processed event was un-executed during a rollback.
    RollbackPop,
    /// An undone event was re-enqueued for re-execution.
    Requeue,
    /// An anti-message was dispatched (`arg` = destination PE).
    AntiSent,
    /// An anti-message caught its target still pending.
    CancelPending,
    /// An anti-message's target was already processed (secondary rollback).
    CancelMiss,
    /// The rollback reached and dropped the annihilation target.
    Annihilate,
    /// A positive met a parked anti-message on arrival and both vanished.
    AnnihilateEarly,
    /// An anti arrived before its positive and was parked.
    DeferAnti,
    /// A chaos-injected duplicate delivery was absorbed by id.
    DropDuplicate,
    /// GVT advanced (`arg` = new GVT ticks).
    GvtAdvance,
    /// A send buffer was flushed into a comm ring (`arg` = messages).
    CommFlush,
    /// A flush found the ring full and spilled to the overflow queue
    /// (`arg` = messages).
    CommOverflow,
    /// A buffer request was served from a recycling pool.
    PoolHit,
    /// A buffer request had to hit the global allocator.
    PoolMiss,
    /// The fault layer perturbed this inbox drain (`arg` = faults injected).
    FaultInjected,
    /// The runtime auditor caught a violation (`arg` = the
    /// [`AuditCheck`](crate::audit::AuditCheck) discriminant); the full
    /// structured report travels on
    /// [`RunError::AuditFailed`](crate::error::RunError::AuditFailed).
    AuditViolation,
    /// A snapshot was written at a GVT commit boundary (`arg` = snapshot
    /// bytes).
    Checkpoint,
    /// The run was resumed from a snapshot (`arg` = the snapshot's GVT
    /// round). Recorded once at the start of a resumed run.
    Recovery,
    /// A model-level note (`arg` = model-defined value; the record's `key.tie`
    /// carries the model's note code).
    ModelNote,
}

/// One structured flight-recorder entry: a kind, the event it concerns (zero
/// id/key for kernel-global kinds like [`ObsKind::GvtAdvance`]), and a
/// kind-specific argument.
#[derive(Clone, Copy, Debug)]
pub struct ObsRecord {
    /// What happened.
    pub kind: ObsKind,
    /// The event concerned (or `EventId(0)`).
    pub id: EventId,
    /// Its ordering key (or the zero key).
    pub key: EventKey,
    /// Kind-specific argument (see [`ObsKind`]).
    pub arg: u64,
}

/// The zero key used by records that do not concern a specific event.
pub(crate) const NO_KEY: EventKey = EventKey {
    recv_time: VirtualTime::ZERO,
    dst: 0,
    tie: 0,
    src: 0,
    send_time: VirtualTime::ZERO,
};

impl ObsRecord {
    /// A record about one event.
    #[inline]
    pub fn event(kind: ObsKind, id: EventId, key: EventKey, arg: u64) -> ObsRecord {
        ObsRecord { kind, id, key, arg }
    }

    /// A kernel-global record (no event attached).
    #[inline]
    pub fn kernel(kind: ObsKind, arg: u64) -> ObsRecord {
        ObsRecord {
            kind,
            id: EventId(0),
            key: NO_KEY,
            arg,
        }
    }

    /// Render the record as one trace line (the format
    /// [`PeDiagnostics::trace`](crate::error::PeDiagnostics) carries).
    pub fn decode(&self) -> String {
        format!(
            "{:?} id={:?} t={} dst={} tie={} arg={}",
            self.kind, self.id, self.key.recv_time.0, self.key.dst, self.key.tie, self.arg
        )
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Fixed-capacity ring buffer of [`ObsRecord`]s owned by one PE (or the
/// sequential kernel). Recording is lock-free by construction — each PE
/// writes only its own recorder — and O(1): a capacity check, then a slot
/// write. When full, the oldest record is overwritten and counted, so memory
/// never exceeds `capacity × sizeof(ObsRecord)`.
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<ObsRecord>,
    capacity: usize,
    /// Ring write cursor (`buf[next]` is the oldest record once wrapped).
    next: usize,
    /// Records accepted over the recorder's lifetime.
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` records. `capacity == 0`
    /// disables it.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            buf: Vec::new(),
            capacity,
            next: 0,
            recorded: 0,
        }
    }

    /// A recorder that records nothing (all checks short-circuit).
    pub fn disabled() -> FlightRecorder {
        Self::new(0)
    }

    /// Does the recorder keep records? Call before building a record so a
    /// disabled recorder costs one load + branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Append one record, overwriting the oldest if at capacity.
    #[inline]
    pub fn record(&mut self, rec: ObsRecord) {
        if !self.enabled() {
            return;
        }
        self.recorded += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
        }
        self.next += 1;
        if self.next == self.capacity {
            self.next = 0;
        }
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been recorded (or the recorder is disabled).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records accepted over the recorder's lifetime (≥ `len`).
    pub fn total_recorded(&self) -> u64 {
        self.recorded
    }

    /// Records lost to overwriting.
    pub fn overwritten(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// Iterate the held records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &ObsRecord> {
        let split = if self.buf.len() == self.capacity {
            self.next
        } else {
            0
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Decode the newest `last_n` records, oldest of them first — what a
    /// failure's [`PeDiagnostics`](crate::error::PeDiagnostics) carries.
    pub fn decode_last(&self, last_n: usize) -> Vec<String> {
        let skip = self.buf.len().saturating_sub(last_n);
        self.iter().skip(skip).map(ObsRecord::decode).collect()
    }

    /// Size/occupancy summary for [`Telemetry`].
    pub fn summary(&self, pe: PeId) -> RecorderSummary {
        RecorderSummary {
            pe,
            capacity: self.capacity,
            len: self.len(),
            recorded: self.recorded,
            overwritten: self.overwritten(),
        }
    }
}

/// One recorder's occupancy, surfaced per PE in [`Telemetry`] so tests (and
/// operators) can verify the bounded-memory guarantee held.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderSummary {
    /// The PE the recorder belonged to.
    pub pe: PeId,
    /// Configured ring capacity (records).
    pub capacity: usize,
    /// Records held at end of run (≤ capacity).
    pub len: usize,
    /// Records accepted over the run.
    pub recorded: u64,
    /// Records lost to ring overwriting.
    pub overwritten: u64,
}

// ---------------------------------------------------------------------------
// GVT-round snapshots
// ---------------------------------------------------------------------------

/// One PE's health sample at one GVT reduction round.
///
/// Counter fields are *cumulative* over the run (not per-round deltas), so a
/// series survives decimation and consumers can difference any two snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundSnapshot {
    /// GVT reduction round index (1-based).
    pub round: u64,
    /// The PE this sample describes.
    pub pe: PeId,
    /// Wall-clock microseconds since the parallel phase started.
    pub wall_us: u64,
    /// The GVT this round computed (ticks).
    pub gvt: u64,
    /// This PE's local virtual time at quiescence — the head of its pending
    /// queue, or `u64::MAX` when idle. `lvt - gvt` is the Korniss
    /// virtual-time roughness profile.
    pub lvt: u64,
    /// Pending-queue depth after the round.
    pub queue_depth: u64,
    /// Processed-but-uncommitted events across this PE's KPs.
    pub uncommitted: u64,
    /// Messages in flight toward this PE in the comm fabric.
    pub inbox_depth: u64,
    /// Cumulative ring-full overflow spills by this PE.
    pub ring_full_stalls: u64,
    /// Cumulative events committed on this PE.
    pub events_committed: u64,
    /// Cumulative forward executions (committed + speculated).
    pub events_processed: u64,
    /// Cumulative events undone by rollbacks.
    pub events_rolled_back: u64,
    /// Cumulative rollbacks (primary + secondary).
    pub rollbacks: u64,
    /// Cumulative buffer-pool hits.
    pub pool_hits: u64,
    /// Cumulative buffer-pool misses.
    pub pool_misses: u64,
    /// Cumulative estimated nanoseconds per kernel phase (indexed by
    /// [`prof::Phase`] discriminant; all zero when the profiler is off).
    pub phase_ns: [u64; prof::N_PHASES],
    /// Cumulative snapshots written by this PE (only PE 0 writes; zero on
    /// the rest and when checkpointing is off).
    pub checkpoints_written: u64,
    /// Cumulative snapshot bytes written by this PE.
    pub checkpoint_bytes: u64,
    /// Cumulative blame cascades opened on this PE (straggler + capture
    /// roots; zero when the blame layer is off).
    pub cascades: u64,
    /// Cumulative events undone under cascade attribution (tracks
    /// `events_rolled_back` exactly when blame is on).
    pub cascade_undone: u64,
    /// Cumulative undone events that were forward-executed again.
    pub cascade_reexec: u64,
}

impl RoundSnapshot {
    /// Virtual-time lead of this PE over GVT (the roughness profile sample);
    /// `None` when the PE was idle (no pending events).
    pub fn lvt_lead(&self) -> Option<u64> {
        (self.lvt != u64::MAX).then(|| self.lvt.saturating_sub(self.gvt))
    }

    /// Fraction of this PE's forward executions wasted so far.
    pub fn rollback_ratio(&self) -> f64 {
        if self.events_processed == 0 {
            0.0
        } else {
            self.events_rolled_back as f64 / self.events_processed as f64
        }
    }

    /// Pool hit rate so far (0 when no requests were made).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// Bounded in-memory series of [`RoundSnapshot`]s.
///
/// Keeps whole-run coverage in fixed memory by stride-doubling decimation:
/// when the buffer would exceed `capacity`, every second retained round is
/// dropped and the sampling stride doubles, so the series always spans the
/// run start to the present at uniform (if coarsening) resolution. Snapshot
/// fields are cumulative, so decimation loses resolution, never totals.
#[derive(Clone, Debug)]
pub struct RoundSeries {
    snaps: Vec<RoundSnapshot>,
    capacity: usize,
    /// Only rounds divisible by the stride are retained.
    stride: u64,
    /// Snapshots not retained (skipped by stride or dropped by decimation).
    dropped: u64,
}

impl RoundSeries {
    /// A series retaining at most `capacity` snapshots (`0` disables it).
    pub fn new(capacity: usize) -> RoundSeries {
        RoundSeries {
            snaps: Vec::new(),
            capacity,
            stride: 1,
            dropped: 0,
        }
    }

    /// Offer one snapshot; the series decides whether to retain it.
    pub fn push(&mut self, snap: RoundSnapshot) {
        if self.capacity == 0 || !snap.round.is_multiple_of(self.stride) {
            self.dropped += u64::from(self.capacity != 0);
            return;
        }
        if self.snaps.len() >= self.capacity {
            self.stride *= 2;
            let stride = self.stride;
            let before = self.snaps.len();
            self.snaps.retain(|s| s.round % stride == 0);
            self.dropped += (before - self.snaps.len()) as u64;
            if !snap.round.is_multiple_of(stride) {
                self.dropped += 1;
                return;
            }
        }
        self.snaps.push(snap);
    }

    /// Retained snapshots, oldest first.
    pub fn snapshots(&self) -> &[RoundSnapshot] {
        &self.snaps
    }

    /// Snapshots offered but not retained.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Current sampling stride (1 until the first decimation).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    pub(crate) fn into_snapshots(self) -> Vec<RoundSnapshot> {
        self.snaps
    }
}

// ---------------------------------------------------------------------------
// Metrics sinks
// ---------------------------------------------------------------------------

/// Streaming consumer of [`RoundSnapshot`]s.
///
/// Every PE calls [`record`](Self::record) once per GVT round with its own
/// snapshot (un-decimated — the bounded series is separate), so a sink sees
/// the full-resolution stream and can ship it anywhere (a file, a socket, a
/// metrics registry). Implementations must be `Send + Sync`; calls arrive
/// concurrently from all PE threads.
pub trait MetricsSink: Send + Sync {
    /// Consume one snapshot.
    fn record(&self, snap: &RoundSnapshot);
    /// Consume one liveness pulse (see [`agg::Heartbeat`]): PE 0 emits one
    /// at run start, every [`DEFAULT_HEARTBEAT_EVERY`] GVT rounds, and once
    /// at termination. Default no-op so snapshot-only sinks need not
    /// care.
    fn heartbeat(&self, _hb: &agg::Heartbeat) {}
    /// Flush buffered output (called once when the run ends).
    fn flush(&self) {}
}

/// A sink that discards everything (the explicit "off" value).
#[derive(Debug, Default)]
pub struct NullSink;

impl MetricsSink for NullSink {
    fn record(&self, _snap: &RoundSnapshot) {}
}

/// An in-memory sink retaining the last `capacity` snapshots — for tests and
/// in-process dashboards.
#[derive(Debug)]
pub struct MemorySink {
    snaps: Mutex<std::collections::VecDeque<RoundSnapshot>>,
    hbs: Mutex<Vec<agg::Heartbeat>>,
    capacity: usize,
    seen: std::sync::atomic::AtomicU64,
}

impl MemorySink {
    /// A sink retaining at most `capacity` snapshots (oldest evicted first).
    pub fn new(capacity: usize) -> MemorySink {
        MemorySink {
            snaps: Mutex::new(std::collections::VecDeque::new()),
            hbs: Mutex::new(Vec::new()),
            capacity,
            seen: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Copy out the retained snapshots, oldest first.
    pub fn snapshots(&self) -> Vec<RoundSnapshot> {
        lock(&self.snaps).iter().copied().collect()
    }

    /// Copy out the heartbeats received, in arrival order.
    pub fn heartbeats(&self) -> Vec<agg::Heartbeat> {
        lock(&self.hbs).clone()
    }

    /// Total snapshots ever offered (≥ retained).
    pub fn total_seen(&self) -> u64 {
        // ORDER: Relaxed — monotone telemetry counter; no other memory is
        // published through it.
        self.seen.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl MetricsSink for MemorySink {
    fn record(&self, snap: &RoundSnapshot) {
        // ORDER: Relaxed — monotone telemetry counter (see `total_seen`).
        self.seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if self.capacity == 0 {
            return;
        }
        let mut q = lock(&self.snaps);
        if q.len() >= self.capacity {
            q.pop_front();
        }
        q.push_back(*snap);
    }

    fn heartbeat(&self, hb: &agg::Heartbeat) {
        lock(&self.hbs).push(*hb);
    }
}

/// A sink appending one JSON object per snapshot to a file (JSONL). Writes
/// are buffered and serialized by a mutex — one short line per PE per GVT
/// round, far off the hot path.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream snapshots into it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl MetricsSink for JsonlSink {
    fn record(&self, snap: &RoundSnapshot) {
        let line = json::snapshot_json(snap);
        let mut out = lock(&self.out);
        // A full disk is not worth killing the simulation over; drop the line.
        let _ = writeln!(out, "{line}");
    }

    fn heartbeat(&self, hb: &agg::Heartbeat) {
        let mut out = lock(&self.out);
        let _ = writeln!(out, "{}", hb.json());
        // Heartbeats are the liveness channel a reader of the stream tells
        // "quiet" from "wedged" by; a pulse parked in the buffer until the
        // next snapshot burst would defeat that, so push it to the file now.
        let _ = out.flush();
    }

    fn flush(&self) {
        let _ = lock(&self.out).flush();
    }
}

impl Drop for JsonlSink {
    /// Last-chance flush: the kernels flush explicitly at run teardown, but
    /// a sink dropped on an early-error path (or by a caller that never ran)
    /// must not strand buffered lines.
    fn drop(&mut self) {
        let _ = lock(&self.out).flush();
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Observability knobs, embedded in
/// [`EngineConfig::obs`](crate::config::EngineConfig::obs).
///
/// The default configuration keeps the GVT-round series (cheap: one sample
/// per PE per reduction) and leaves the flight recorder off; see
/// [`verbose`](Self::verbose) and [`disabled`](Self::disabled) for the
/// extremes. [`EngineConfig::new`](crate::config::EngineConfig::new) seeds
/// two fields from the environment: `PDES_TRACE=1` sets
/// [`recorder_capacity`](Self::recorder_capacity) to
/// [`DEFAULT_RECORDER_CAPACITY`], and `PDES_OBS_METRICS=<path>` sets
/// [`metrics_path`](Self::metrics_path).
#[derive(Clone)]
pub struct ObsConfig {
    /// Flight-recorder ring capacity in records per PE (`0` = recorder off).
    /// A recorder with capacity keeps every [`ObsKind`].
    pub recorder_capacity: usize,
    /// GVT-round series capacity in snapshots per PE (`0` = series off).
    pub series_capacity: usize,
    /// Emit a one-line progress report on stderr every `K` GVT rounds
    /// (`None` = silent). Printed by PE 0 only.
    pub progress_every: Option<u64>,
    /// Streaming snapshot consumer (`None` = no streaming; the in-memory
    /// series still fills).
    pub sink: Option<Arc<dyn MetricsSink>>,
    /// Phase-level wall-clock profiler ([`prof`]). On by default: hot phases
    /// are timed 1 in `2^`[`prof::DEFAULT_SAMPLE_SHIFT`] scopes, which keeps
    /// it inside the CI overhead budget.
    pub prof_enabled: bool,
    /// Committed per-packet hop-trace capacity per PE ([`trace`]); `0`
    /// disables causal packet tracing (the default — a traced run buys exact
    /// per-packet lineage for memory proportional to committed hops).
    pub packet_trace_capacity: usize,
    /// Register this run ([`agg`]): write a
    /// [`RunManifest`](agg::RunManifest) next to this path and stream the
    /// full-resolution snapshot + heartbeat JSONL into it. `None` (the
    /// default) = not instrumented. When a [`sink`](Self::sink) is also set
    /// explicitly, the manifest is still written but the explicit sink wins
    /// (no file is created). The manifest's run id is the path's parent
    /// directory name.
    pub metrics_path: Option<PathBuf>,
    /// Human-readable model/workload label for the manifest (`None` =
    /// `"unlabeled"`).
    pub model_label: Option<String>,
    /// Rollback forensics ([`blame`]): cascade attribution, the blame
    /// matrix, and the wasted-work ledger. On by default — it only runs on
    /// rollback paths, which are already the slow path.
    pub blame_enabled: bool,
}

/// Recorder capacity used when `PDES_TRACE=1` (or [`ObsConfig::verbose`])
/// turns the flight recorder on.
pub const DEFAULT_RECORDER_CAPACITY: usize = 65_536;

/// Series capacity used by [`ObsConfig::default`].
pub const DEFAULT_SERIES_CAPACITY: usize = 1_024;

/// Heartbeat cadence in GVT rounds of every run with a sink (PE 0 also
/// pulses once at start and once at the end): frequent
/// enough that a reader tailing the stream notices a wedged run quickly,
/// sparse enough to stay invisible in the overhead benches.
pub const DEFAULT_HEARTBEAT_EVERY: u64 = 16;

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            recorder_capacity: 0,
            series_capacity: DEFAULT_SERIES_CAPACITY,
            progress_every: None,
            sink: None,
            prof_enabled: true,
            packet_trace_capacity: 0,
            metrics_path: None,
            model_label: None,
            blame_enabled: true,
        }
    }
}

impl ObsConfig {
    /// Everything off: no recorder, no series, no progress, no sink, no
    /// profiler, no packet trace, no blame.
    pub fn disabled() -> ObsConfig {
        ObsConfig {
            series_capacity: 0,
            prof_enabled: false,
            blame_enabled: false,
            ..ObsConfig::default()
        }
    }

    /// Maximum verbosity: full recorder and a deep snapshot series. The
    /// determinism suites run under this. Packet tracing stays opt-in even
    /// here (its memory scales with committed hops, not with a fixed cap a
    /// storm can't exceed).
    pub fn verbose() -> ObsConfig {
        ObsConfig {
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
            series_capacity: 4 * DEFAULT_SERIES_CAPACITY,
            ..ObsConfig::default()
        }
    }

    /// Set the flight-recorder capacity (`0` disables it).
    #[must_use]
    pub fn with_recorder_capacity(mut self, records: usize) -> ObsConfig {
        self.recorder_capacity = records;
        self
    }

    /// Set the GVT-round series capacity (`0` disables it).
    #[must_use]
    pub fn with_series_capacity(mut self, snapshots: usize) -> ObsConfig {
        self.series_capacity = snapshots;
        self
    }

    /// Emit a stderr progress line every `rounds` GVT rounds.
    #[must_use]
    pub fn with_progress_every(mut self, rounds: u64) -> ObsConfig {
        self.progress_every = Some(rounds);
        self
    }

    /// Stream snapshots into `sink`.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn MetricsSink>) -> ObsConfig {
        self.sink = Some(sink);
        self
    }

    /// Turn the phase-level wall-clock profiler on or off.
    #[must_use]
    pub fn with_profiler(mut self, enabled: bool) -> ObsConfig {
        self.prof_enabled = enabled;
        self
    }

    /// Enable per-packet causal tracing, committing at most `capacity` hops
    /// per PE ([`trace::TRACE_UNBOUNDED`] for no cap; `0` disables).
    #[must_use]
    pub fn with_packet_trace(mut self, capacity: usize) -> ObsConfig {
        self.packet_trace_capacity = capacity;
        self
    }

    /// Instrument the run: manifest + full-resolution JSONL stream at
    /// `path` (see [`metrics_path`](Self::metrics_path)).
    #[must_use]
    pub fn with_metrics_path(mut self, path: impl Into<PathBuf>) -> ObsConfig {
        self.metrics_path = Some(path.into());
        self
    }

    /// Stamp a model/workload label into the manifest.
    #[must_use]
    pub fn with_model_label(mut self, label: impl Into<String>) -> ObsConfig {
        self.model_label = Some(label.into());
        self
    }

    /// Turn rollback forensics ([`blame`]) on or off.
    #[must_use]
    pub fn with_blame(mut self, enabled: bool) -> ObsConfig {
        self.blame_enabled = enabled;
        self
    }

    /// Build a recorder per this configuration.
    pub(crate) fn build_recorder(&self) -> FlightRecorder {
        FlightRecorder::new(self.recorder_capacity)
    }

    /// Build a round series per this configuration.
    pub(crate) fn build_series(&self) -> RoundSeries {
        RoundSeries::new(self.series_capacity)
    }

    /// Build a phase profiler per this configuration.
    pub(crate) fn build_profiler(&self) -> prof::PhaseProfiler {
        prof::PhaseProfiler::new(self.prof_enabled, prof::DEFAULT_SAMPLE_SHIFT)
    }

    /// Build a packet tracer per this configuration.
    pub(crate) fn build_tracer(&self, n_kps: usize) -> trace::PacketTracer {
        trace::PacketTracer::new(self.packet_trace_capacity, n_kps)
    }

    /// Build a rollback-forensics tracker per this configuration.
    pub(crate) fn build_blame(&self, pe: PeId) -> blame::BlameTracker {
        blame::BlameTracker::new(self.blame_enabled, pe)
    }
}

impl fmt::Debug for ObsConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsConfig")
            .field("recorder_capacity", &self.recorder_capacity)
            .field("series_capacity", &self.series_capacity)
            .field("progress_every", &self.progress_every)
            .field("sink", &self.sink.as_ref().map(|_| "<dyn MetricsSink>"))
            .field("prof_enabled", &self.prof_enabled)
            .field("packet_trace_capacity", &self.packet_trace_capacity)
            .field("metrics_path", &self.metrics_path)
            .field("model_label", &self.model_label)
            .field("blame_enabled", &self.blame_enabled)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Run-level telemetry
// ---------------------------------------------------------------------------

/// Everything the observability layer collected over one run, attached to
/// [`RunResult::telemetry`](crate::stats::RunResult::telemetry).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Retained GVT-round snapshots across all PEs, sorted by
    /// `(round, pe)`. Empty when the series was disabled.
    pub rounds: Vec<RoundSnapshot>,
    /// One flight-recorder summary per PE (empty when disabled).
    pub recorders: Vec<RecorderSummary>,
    /// Snapshots offered to the per-PE series but not retained (decimation).
    pub rounds_dropped: u64,
    /// Committed per-packet hop lineage (empty unless
    /// [`ObsConfig::with_packet_trace`] enabled it), sealed into sequential
    /// execution order.
    pub trace: trace::PacketTrace,
    /// The GVT round of each snapshot a supervised run recovered from, in
    /// order (see [`Run::supervised`](crate::Run::supervised)); empty for
    /// any other run.
    pub resumed_rounds: Vec<u64>,
}

impl Telemetry {
    /// Number of PEs that contributed snapshots.
    pub fn n_pes(&self) -> usize {
        self.rounds.iter().map(|s| s.pe + 1).max().unwrap_or(0)
    }

    /// Snapshots for one PE, in round order.
    pub fn rounds_for(&self, pe: PeId) -> impl Iterator<Item = &RoundSnapshot> {
        self.rounds.iter().filter(move |s| s.pe == pe)
    }

    /// The distinct rounds present, ascending.
    pub fn round_indices(&self) -> Vec<u64> {
        let mut rounds: Vec<u64> = self.rounds.iter().map(|s| s.round).collect();
        rounds.sort_unstable();
        rounds.dedup();
        rounds
    }

    /// Mean and max `lvt - gvt` roughness for one PE over the run, ignoring
    /// idle samples. `None` if the PE never had a finite LVT.
    pub fn roughness(&self, pe: PeId) -> Option<(f64, u64)> {
        let mut n = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        for s in self.rounds_for(pe) {
            if let Some(lead) = s.lvt_lead() {
                n += 1;
                sum += lead;
                max = max.max(lead);
            }
        }
        (n > 0).then(|| (sum as f64 / n as f64, max))
    }

    /// Merge another PE's telemetry in (kernel use).
    pub(crate) fn absorb(&mut self, series: RoundSeries, recorder: RecorderSummary) {
        self.rounds_dropped += series.dropped();
        self.rounds.extend(series.into_snapshots());
        if recorder.capacity > 0 {
            self.recorders.push(recorder);
        }
    }

    /// Merge one PE's committed packet trace in (kernel use).
    pub(crate) fn absorb_trace(&mut self, trace: trace::PacketTrace) {
        self.trace.absorb(trace);
    }

    /// Final sort after all PEs merged (kernel use).
    pub(crate) fn seal(&mut self) {
        self.rounds.sort_unstable_by_key(|s| (s.round, s.pe));
        self.recorders.sort_unstable_by_key(|r| r.pe);
        self.trace.seal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: ObsKind, seq: u64) -> ObsRecord {
        ObsRecord::event(kind, EventId::new(0, seq), NO_KEY, 0)
    }

    #[test]
    fn recorder_ring_overwrites_oldest_and_stays_bounded() {
        let mut r = FlightRecorder::new(4);
        for seq in 0..10 {
            r.record(rec(ObsKind::Execute, seq));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.total_recorded(), 10);
        assert_eq!(r.overwritten(), 6);
        let seqs: Vec<u64> = r.iter().map(|x| x.id.seq()).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first iteration after wrap");
        let last2 = r.decode_last(2);
        assert_eq!(last2.len(), 2);
        assert!(last2[1].contains("id=EventId(9)"), "got: {}", last2[1]);
    }

    #[test]
    fn disabled_recorder_accepts_nothing() {
        let mut r = FlightRecorder::disabled();
        assert!(!r.enabled());
        r.record(rec(ObsKind::Execute, 0));
        assert!(r.is_empty());
        assert_eq!(
            r.summary(3),
            RecorderSummary {
                pe: 3,
                ..Default::default()
            }
        );
    }

    fn snap(round: u64, pe: PeId) -> RoundSnapshot {
        RoundSnapshot {
            round,
            pe,
            gvt: round * 10,
            lvt: round * 10 + 5,
            ..Default::default()
        }
    }

    #[test]
    fn series_decimates_but_spans_the_whole_run() {
        let mut s = RoundSeries::new(8);
        for round in 1..=100 {
            s.push(snap(round, 0));
        }
        assert!(
            s.snapshots().len() <= 8,
            "len {} over capacity",
            s.snapshots().len()
        );
        assert!(s.stride() > 1, "decimation never triggered");
        assert!(s.dropped() > 0);
        let rounds: Vec<u64> = s.snapshots().iter().map(|x| x.round).collect();
        assert!(
            rounds.windows(2).all(|w| w[0] < w[1]),
            "out of order: {rounds:?}"
        );
        assert!(
            *rounds.last().unwrap() > 90,
            "series lost the tail: {rounds:?}"
        );
        assert!(rounds[0] <= s.stride(), "series lost the head: {rounds:?}");
    }

    #[test]
    fn zero_capacity_series_retains_nothing() {
        let mut s = RoundSeries::new(0);
        s.push(snap(1, 0));
        assert!(s.snapshots().is_empty());
        assert_eq!(s.dropped(), 0, "disabled series does not count drops");
    }

    #[test]
    fn snapshot_derived_metrics() {
        let s = RoundSnapshot {
            gvt: 100,
            lvt: 140,
            events_processed: 50,
            events_rolled_back: 10,
            pool_hits: 3,
            pool_misses: 1,
            ..Default::default()
        };
        assert_eq!(s.lvt_lead(), Some(40));
        assert!((s.rollback_ratio() - 0.2).abs() < 1e-12);
        assert!((s.pool_hit_rate() - 0.75).abs() < 1e-12);
        let idle = RoundSnapshot {
            lvt: u64::MAX,
            ..Default::default()
        };
        assert_eq!(idle.lvt_lead(), None);
        assert_eq!(RoundSnapshot::default().rollback_ratio(), 0.0);
        assert_eq!(RoundSnapshot::default().pool_hit_rate(), 0.0);
    }

    #[test]
    fn memory_sink_is_bounded_and_counts() {
        let sink = MemorySink::new(3);
        for round in 1..=10 {
            sink.record(&snap(round, 0));
        }
        let got = sink.snapshots();
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].round, 10, "keeps the newest");
        assert_eq!(sink.total_seen(), 10);
    }

    #[test]
    fn telemetry_merge_sorts_and_summarizes() {
        let mut t = Telemetry::default();
        let mut s1 = RoundSeries::new(8);
        s1.push(snap(1, 1));
        s1.push(snap(2, 1));
        let mut s0 = RoundSeries::new(8);
        s0.push(snap(1, 0));
        s0.push(snap(2, 0));
        t.absorb(
            s1,
            RecorderSummary {
                pe: 1,
                capacity: 4,
                len: 2,
                recorded: 2,
                overwritten: 0,
            },
        );
        t.absorb(
            s0,
            RecorderSummary {
                pe: 0,
                capacity: 4,
                len: 1,
                recorded: 1,
                overwritten: 0,
            },
        );
        t.seal();
        assert_eq!(t.n_pes(), 2);
        assert_eq!(t.round_indices(), vec![1, 2]);
        let order: Vec<(u64, PeId)> = t.rounds.iter().map(|s| (s.round, s.pe)).collect();
        assert_eq!(order, vec![(1, 0), (1, 1), (2, 0), (2, 1)]);
        assert_eq!(t.recorders[0].pe, 0);
        let (mean, max) = t.roughness(0).unwrap();
        assert_eq!(max, 5);
        assert!((mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn obs_config_builders_and_debug() {
        let cfg = ObsConfig::default()
            .with_recorder_capacity(128)
            .with_series_capacity(7)
            .with_progress_every(16)
            .with_sink(Arc::new(NullSink));
        assert_eq!(cfg.recorder_capacity, 128);
        assert_eq!(cfg.series_capacity, 7);
        assert_eq!(cfg.progress_every, Some(16));
        let dbg = format!("{cfg:?}");
        assert!(dbg.contains("recorder_capacity: 128"), "got: {dbg}");
        assert!(
            dbg.contains("MetricsSink"),
            "sink must render without Debug impl"
        );
        assert_eq!(cfg.build_recorder().capacity(), 128);
        assert!(!ObsConfig::disabled().build_recorder().enabled());
        assert_eq!(
            ObsConfig::verbose().build_series().capacity,
            4 * DEFAULT_SERIES_CAPACITY
        );
    }

    #[test]
    fn obs_config_profiler_and_trace_knobs() {
        let cfg = ObsConfig::default();
        assert!(cfg.prof_enabled, "profiler is on by default");
        assert_eq!(cfg.packet_trace_capacity, 0, "packet tracing is opt-in");
        assert!(!ObsConfig::disabled().prof_enabled);
        assert!(!ObsConfig::disabled().build_profiler().enabled());

        let cfg = ObsConfig::default()
            .with_profiler(false)
            .with_packet_trace(512);
        assert!(!cfg.prof_enabled);
        assert_eq!(cfg.packet_trace_capacity, 512);
        assert!(cfg.build_tracer(4).enabled());
        let dbg = format!("{cfg:?}");
        assert!(dbg.contains("packet_trace_capacity: 512"), "got: {dbg}");
    }

    #[test]
    fn obs_config_fleet_knobs() {
        let cfg = ObsConfig::default();
        assert_eq!(cfg.metrics_path, None, "instrumentation is opt-in");

        let cfg = ObsConfig::default()
            .with_metrics_path("farm/run-00/metrics.jsonl")
            .with_model_label("hotpotato/torus16");
        assert_eq!(
            cfg.metrics_path.as_deref(),
            Some(Path::new("farm/run-00/metrics.jsonl"))
        );
        assert_eq!(cfg.model_label.as_deref(), Some("hotpotato/torus16"));
        let dbg = format!("{cfg:?}");
        assert!(dbg.contains("hotpotato/torus16"), "got: {dbg}");
    }

    #[test]
    fn series_single_capacity_always_keeps_a_snapshot() {
        // capacity 1 is the tightest legal series: it must never hold more
        // than one snapshot, and decimation must not strand it empty
        // forever — stride-multiple rounds keep landing.
        let mut s = RoundSeries::new(1);
        let mut retained_rounds = Vec::new();
        for round in 1..=64 {
            s.push(snap(round, 0));
            assert!(s.snapshots().len() <= 1, "capacity 1 exceeded");
            if let Some(kept) = s.snapshots().first() {
                retained_rounds.push(kept.round);
            }
        }
        assert!(s.stride() > 1, "capacity 1 must decimate");
        assert!(
            retained_rounds.iter().any(|&r| r >= 32),
            "a late stride-multiple round must be retained: {retained_rounds:?}"
        );
        // Everything offered is either held or accounted as dropped.
        assert_eq!(s.snapshots().len() as u64 + s.dropped(), 64);
    }

    #[test]
    fn series_exact_stride_boundary_rounds_are_kept() {
        let mut s = RoundSeries::new(4);
        for round in 1..=32 {
            s.push(snap(round, 0));
        }
        let stride = s.stride();
        assert!(stride > 1);
        for kept in s.snapshots() {
            assert_eq!(
                kept.round % stride,
                0,
                "retained round {} off the stride {stride}",
                kept.round
            );
        }
        // Offering a non-multiple after decimation drops it...
        let before = s.dropped();
        s.push(snap(33 * stride + 1, 0));
        assert_eq!(s.dropped(), before + 1);
        // ...while an exact multiple is retained.
        let len = s.snapshots().len();
        s.push(snap(34 * stride, 0));
        assert!(
            s.snapshots().len() == len + 1 || s.stride() > stride,
            "stride multiple neither retained nor re-decimated"
        );
    }

    #[test]
    fn series_dropped_accounting_is_exhaustive() {
        // Whatever the decimation history, every offer is either retained
        // or counted dropped — the invariant operators reconcile
        // `rounds_dropped` against.
        for capacity in [1usize, 2, 3, 8, 100] {
            let mut s = RoundSeries::new(capacity);
            let offered = 257u64;
            for round in 1..=offered {
                s.push(snap(round, 0));
            }
            assert_eq!(
                s.snapshots().len() as u64 + s.dropped(),
                offered,
                "capacity {capacity}: retained + dropped != offered"
            );
        }
    }

    #[test]
    fn recorder_summary_edge_cases() {
        // Capacity 0: all-zero summary, records nothing.
        let r = FlightRecorder::new(0);
        assert_eq!(
            r.summary(2),
            RecorderSummary {
                pe: 2,
                ..Default::default()
            }
        );

        // Capacity 1: the ring holds exactly the newest record and the
        // overwrite accounting matches recorded - len.
        let mut r = FlightRecorder::new(1);
        for seq in 0..5 {
            r.record(rec(ObsKind::Execute, seq));
        }
        let s = r.summary(0);
        assert_eq!((s.capacity, s.len, s.recorded, s.overwritten), (1, 1, 5, 4));
        assert_eq!(r.iter().count(), 1);
        assert_eq!(r.iter().next().unwrap().id.seq(), 4, "newest survives");

        // Exactly-full ring (no wrap yet): nothing overwritten.
        let mut r = FlightRecorder::new(3);
        for seq in 0..3 {
            r.record(rec(ObsKind::Execute, seq));
        }
        let s = r.summary(1);
        assert_eq!((s.len, s.recorded, s.overwritten), (3, 3, 0));
    }
}
