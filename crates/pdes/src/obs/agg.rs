//! Multi-run telemetry hub: run registry, stream ingester, health monitor.
//!
//! The per-run observability layer ([`obs`](super)) streams one JSONL
//! metrics file per run; the ROADMAP's scenario farm shards hundreds of
//! such runs across a machine. This module is the cross-run layer that
//! makes a *fleet* of runs observable:
//!
//! * **Run registry** — an instrumented run (one whose
//!   [`ObsConfig::metrics_path`](super::ObsConfig::metrics_path) is set)
//!   writes a versioned [`RunManifest`] (`run-manifest.json`) next to its
//!   metrics stream before the first event executes: config digest, seed,
//!   topology, scheduler, GVT mode, build tag, and the artifact file names.
//!   A consumer that finds the manifest can interpret the stream without
//!   out-of-band knowledge; a manifest whose version it does not understand
//!   is refused rather than misread.
//! * **Stream ingester** — [`StreamTail`] tails one growing JSONL file
//!   (byte-offset resume, partial-line tolerant: a torn tail line is held
//!   back until its newline arrives), [`parse_metric_line`] classifies each
//!   complete line (snapshot / heartbeat / malformed), and [`RunIngest`]
//!   folds a run's lines into cumulative rollup state — committed events,
//!   rollback ratio, lvt−gvt roughness percentiles (log₂-bucket histogram:
//!   fixed memory, deterministic), queue/arena depth, checkpoint bytes.
//! * **Health monitor** — [`FleetMonitor`] drives N ingesters, tracks
//!   per-run [`Heartbeat`]s, and runs threshold/trend detectors
//!   ([`HealthDetector`]: GVT stall, rollback-rate spike, roughness
//!   divergence, arena high-water approach, silent-stream timeout, run
//!   failure) that latch per run — one structured [`HealthEvent`] per
//!   onset, re-armed when the condition clears — reusing the
//!   [`ObsSeverity`] taxonomy. The fleet rollup is **byte-deterministic**
//!   for a fixed set of input streams regardless of how their reads
//!   interleave: every per-run fold depends only on that run's line order,
//!   runs are keyed in a `BTreeMap`, and the caller supplies the clock.
//!
//! Everything is dependency-free and consumes only files this repo itself
//! emits, parsed with the in-tree [`json`] value parser.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use super::json::{self, JsonValue};
use super::{ObsSeverity, RoundSnapshot};
use crate::audit::AuditHasher;
use crate::config::EngineConfig;
use crate::error::RunError;
use crate::scheduler::SchedulerKind;

// ---------------------------------------------------------------------------
// Run manifest (the registry entry)
// ---------------------------------------------------------------------------

/// Manifest schema version this build writes and understands. Bump on any
/// incompatible change; [`RunManifest::parse`] refuses other versions.
pub const MANIFEST_VERSION: u64 = 1;

/// File name of the manifest, written next to the metrics stream.
pub const MANIFEST_FILE: &str = "run-manifest.json";

/// The build tag stamped into manifests: `PDES_BUILD_TAG` at *compile* time
/// when set (CI can inject a git describe), else `pdes-<crate version>`.
pub fn build_tag() -> &'static str {
    option_env!("PDES_BUILD_TAG").unwrap_or(concat!("pdes-", env!("CARGO_PKG_VERSION")))
}

/// One run's registry entry: everything a fleet consumer needs to interpret
/// the metrics stream sitting next to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunManifest {
    /// Schema version (see [`MANIFEST_VERSION`]).
    pub manifest_version: u64,
    /// Fleet-unique run identifier (defaults to the run directory's name).
    pub run_id: String,
    /// Model label (see [`ObsConfig::model_label`](super::ObsConfig::model_label)).
    pub model: String,
    /// `"parallel"` or `"sequential"`.
    pub kernel: String,
    /// Global RNG seed.
    pub seed: u64,
    /// Worker threads.
    pub n_pes: u64,
    /// Rollback granules.
    pub n_kps: u64,
    /// Logical processes in the model mapping.
    pub n_lps: u64,
    /// Pending-set implementation (`heap`/`splay`/`calendar`).
    pub scheduler: String,
    /// GVT protocol selection (`auto`/`barrier`).
    pub gvt_mode: String,
    /// Events between GVT reductions.
    pub gvt_interval: u64,
    /// Per-iteration execution batch.
    pub batch: u64,
    /// Optimism bound in ticks (`None` = unbounded).
    pub max_lookahead: Option<u64>,
    /// Per-PE event-arena capacity in slots (resolved, never `None`).
    pub arena_slots: u64,
    /// Checkpoint cadence in GVT rounds (`None` = off).
    pub checkpoint_every: Option<u64>,
    /// Heartbeat cadence in GVT rounds (`0` = off).
    pub heartbeat_every: u64,
    /// FNV-1a digest (hex) over the canonical engine-config fields, so two
    /// manifests with equal digests ran the same engine configuration.
    pub config_digest: String,
    /// Build identity (see [`build_tag`]).
    pub build_tag: String,
    /// Metrics stream file name, relative to the manifest's directory.
    pub metrics: String,
}

impl RunManifest {
    /// Build the manifest for an instrumented run. `metrics_path` is where
    /// the JSONL stream will be written; the manifest records its file name
    /// and derives the default run id from the parent directory.
    pub fn for_run(
        config: &EngineConfig,
        n_lps: u64,
        kernel: &str,
        metrics_path: &Path,
    ) -> RunManifest {
        let run_id = config
            .obs
            .run_id
            .clone()
            .unwrap_or_else(|| default_run_id(metrics_path));
        let metrics = metrics_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "metrics.jsonl".to_string());
        RunManifest {
            manifest_version: MANIFEST_VERSION,
            run_id,
            model: config
                .obs
                .model_label
                .clone()
                .unwrap_or_else(|| "unlabeled".to_string()),
            kernel: kernel.to_string(),
            seed: config.seed,
            n_pes: config.n_pes as u64,
            n_kps: config.n_kps as u64,
            n_lps,
            scheduler: scheduler_name(config.scheduler).to_string(),
            gvt_mode: gvt_mode_name(config).to_string(),
            gvt_interval: config.gvt_interval,
            batch: config.batch as u64,
            max_lookahead: config.max_lookahead,
            arena_slots: config
                .arena_slots
                .unwrap_or(crate::arena::EventArena::<()>::DEFAULT_SLOTS)
                as u64,
            checkpoint_every: config.checkpoint_every,
            heartbeat_every: config.obs.heartbeat_every,
            config_digest: format!("{:016x}", config_digest(config, n_lps)),
            build_tag: build_tag().to_string(),
            metrics,
        }
    }

    /// Render as one pretty-enough JSON object (single line).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"manifest_version\":{},\"run_id\":{},\"model\":{},",
                "\"kernel\":{},\"seed\":{},\"n_pes\":{},\"n_kps\":{},",
                "\"n_lps\":{},\"scheduler\":{},\"gvt_mode\":{},",
                "\"gvt_interval\":{},\"batch\":{},\"max_lookahead\":{},",
                "\"arena_slots\":{},\"checkpoint_every\":{},",
                "\"heartbeat_every\":{},\"config_digest\":{},",
                "\"build_tag\":{},\"metrics\":{}}}"
            ),
            self.manifest_version,
            json_str(&self.run_id),
            json_str(&self.model),
            json_str(&self.kernel),
            self.seed,
            self.n_pes,
            self.n_kps,
            self.n_lps,
            json_str(&self.scheduler),
            json_str(&self.gvt_mode),
            self.gvt_interval,
            self.batch,
            json_opt(self.max_lookahead),
            self.arena_slots,
            json_opt(self.checkpoint_every),
            self.heartbeat_every,
            json_str(&self.config_digest),
            json_str(&self.build_tag),
            json_str(&self.metrics),
        )
    }

    /// Write the manifest into `dir` as [`MANIFEST_FILE`].
    pub fn write(&self, dir: &Path) -> Result<PathBuf, AggError> {
        let path = dir.join(MANIFEST_FILE);
        fs::write(&path, self.to_json() + "\n").map_err(|e| AggError::io(&path, e))?;
        Ok(path)
    }

    /// Parse a manifest, refusing unknown schema versions — a newer writer's
    /// fields must not be silently misread as defaults.
    pub fn parse(text: &str) -> Result<RunManifest, AggError> {
        let v = json::parse(text.trim())
            .map_err(|e| AggError::Manifest(format!("manifest is not valid JSON: {e}")))?;
        let version = v
            .u64_field("manifest_version")
            .ok_or_else(|| AggError::Manifest("manifest_version missing".to_string()))?;
        if version != MANIFEST_VERSION {
            return Err(AggError::Manifest(format!(
                "unsupported manifest_version {version} (this build understands {MANIFEST_VERSION})"
            )));
        }
        let req_str = |key: &str| {
            v.str_field(key)
                .map(str::to_string)
                .ok_or_else(|| AggError::Manifest(format!("manifest field {key:?} missing")))
        };
        let req_u64 = |key: &str| {
            v.u64_field(key)
                .ok_or_else(|| AggError::Manifest(format!("manifest field {key:?} missing")))
        };
        Ok(RunManifest {
            manifest_version: version,
            run_id: req_str("run_id")?,
            model: v.str_field("model").unwrap_or("unlabeled").to_string(),
            kernel: v.str_field("kernel").unwrap_or("unknown").to_string(),
            seed: req_u64("seed")?,
            n_pes: req_u64("n_pes")?,
            n_kps: v.u64_field("n_kps").unwrap_or(0),
            n_lps: v.u64_field("n_lps").unwrap_or(0),
            scheduler: v.str_field("scheduler").unwrap_or("unknown").to_string(),
            gvt_mode: v.str_field("gvt_mode").unwrap_or("unknown").to_string(),
            gvt_interval: v.u64_field("gvt_interval").unwrap_or(0),
            batch: v.u64_field("batch").unwrap_or(0),
            max_lookahead: v.u64_field("max_lookahead"),
            arena_slots: v.u64_field("arena_slots").unwrap_or(0),
            checkpoint_every: v.u64_field("checkpoint_every"),
            heartbeat_every: v.u64_field("heartbeat_every").unwrap_or(0),
            config_digest: v.str_field("config_digest").unwrap_or("").to_string(),
            build_tag: v.str_field("build_tag").unwrap_or("").to_string(),
            metrics: req_str("metrics")?,
        })
    }

    /// Load and parse `dir/run-manifest.json`.
    pub fn load(dir: &Path) -> Result<RunManifest, AggError> {
        let path = dir.join(MANIFEST_FILE);
        let text = fs::read_to_string(&path).map_err(|e| AggError::io(&path, e))?;
        RunManifest::parse(&text)
    }
}

fn default_run_id(metrics_path: &Path) -> String {
    metrics_path
        .parent()
        .and_then(Path::file_name)
        .or_else(|| metrics_path.file_stem())
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "run".to_string())
}

fn scheduler_name(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Ladder => "ladder",
        SchedulerKind::Heap => "heap",
        SchedulerKind::Splay => "splay",
        SchedulerKind::Calendar => "calendar",
    }
}

fn gvt_mode_name(config: &EngineConfig) -> &'static str {
    use crate::config::GvtMode;
    match config.gvt_mode {
        GvtMode::Auto => "auto",
        GvtMode::Barrier => "barrier",
    }
}

/// FNV-1a digest over the canonical engine-config fields (everything that
/// shapes committed output or performance; observability knobs excluded so
/// instrumenting a run does not change its identity).
fn config_digest(config: &EngineConfig, n_lps: u64) -> u64 {
    let canon = format!(
        "end={};seed={};pes={};kps={};lps={};sched={};gvti={};batch={};\
         comm={:?};look={:?};gvt_mode={};ckpt={:?};arena={:?};audit={}",
        config.end_time.0,
        config.seed,
        config.n_pes,
        config.n_kps,
        n_lps,
        scheduler_name(config.scheduler),
        config.gvt_interval,
        config.batch,
        config.comm_batch,
        config.max_lookahead,
        gvt_mode_name(config),
        config.checkpoint_every,
        config.arena_slots,
        config.audit,
    );
    let mut h = AuditHasher::new();
    h.write_bytes(canon.as_bytes());
    h.finish()
}

/// JSON string literal (escaped, quoted).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_opt(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

/// Lifecycle state a [`Heartbeat`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunPhase {
    /// The run is executing.
    Run,
    /// The run finished cleanly (final heartbeat carries run totals).
    End,
    /// The run aborted with an error.
    Fail,
}

impl RunPhase {
    /// Wire name (`run`/`end`/`fail`).
    pub fn name(self) -> &'static str {
        match self {
            RunPhase::Run => "run",
            RunPhase::End => "end",
            RunPhase::Fail => "fail",
        }
    }

    fn from_name(name: &str) -> Option<RunPhase> {
        match name {
            "run" => Some(RunPhase::Run),
            "end" => Some(RunPhase::End),
            "fail" => Some(RunPhase::Fail),
            _ => None,
        }
    }
}

/// One liveness pulse, interleaved into the metrics JSONL stream (`"hb":1`
/// distinguishes it from snapshot lines). PE 0 emits one at run start,
/// every [`ObsConfig::heartbeat_every`](super::ObsConfig::heartbeat_every)
/// GVT rounds, and once at termination with the run's final totals — so a
/// consumer can tell "healthy but quiet" from "wedged" without parsing the
/// full snapshot stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heartbeat {
    /// Emitting PE (0: only PE 0 heartbeats).
    pub pe: u64,
    /// Wall-clock microseconds since the run started.
    pub wall_us: u64,
    /// GVT round at emission (0 before the first round).
    pub round: u64,
    /// GVT at emission (ticks).
    pub gvt: u64,
    /// Events committed so far (PE-local while running; the run total on
    /// the final `end` heartbeat).
    pub committed: u64,
    /// Lifecycle state.
    pub phase: RunPhase,
}

impl Heartbeat {
    /// Render as a single-line JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"hb\":1,\"pe\":{},\"wall_us\":{},\"round\":{},\"gvt\":{},\"committed\":{},\"state\":\"{}\"}}",
            self.pe,
            self.wall_us,
            self.round,
            self.gvt,
            self.committed,
            self.phase.name(),
        )
    }
}

// ---------------------------------------------------------------------------
// Line classification
// ---------------------------------------------------------------------------

/// One classified metrics-stream line.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricLine {
    /// A [`RoundSnapshot`] emitted by [`snapshot_json`](json::snapshot_json).
    Snapshot(RoundSnapshot),
    /// A liveness pulse.
    Heartbeat(Heartbeat),
    /// Anything else (invalid JSON, or a JSON object of unknown shape) —
    /// counted, never fatal: one corrupt line must not poison a fleet.
    Malformed,
}

/// Classify one complete line of a metrics stream.
pub fn parse_metric_line(line: &str) -> MetricLine {
    let Ok(v) = json::parse(line) else {
        return MetricLine::Malformed;
    };
    if v.u64_field("hb") == Some(1) {
        let Some(phase) = v.str_field("state").and_then(RunPhase::from_name) else {
            return MetricLine::Malformed;
        };
        return MetricLine::Heartbeat(Heartbeat {
            pe: v.u64_field("pe").unwrap_or(0),
            wall_us: v.u64_field("wall_us").unwrap_or(0),
            round: v.u64_field("round").unwrap_or(0),
            gvt: v.u64_field("gvt").unwrap_or(0),
            committed: v.u64_field("committed").unwrap_or(0),
            phase,
        });
    }
    match snapshot_from_json(&v) {
        Some(snap) => MetricLine::Snapshot(snap),
        None => MetricLine::Malformed,
    }
}

/// Rebuild a [`RoundSnapshot`] from a parsed [`json::snapshot_json`] line.
/// Requires the identifying fields (`round`, `pe`, `gvt`, `lvt`); counter
/// fields absent in older streams default to zero.
pub fn snapshot_from_json(v: &JsonValue) -> Option<RoundSnapshot> {
    let mut snap = RoundSnapshot {
        round: v.u64_field("round")?,
        pe: v.u64_field("pe")? as usize,
        gvt: v.u64_field("gvt")?,
        lvt: v.u64_field("lvt")?,
        wall_us: v.u64_field("wall_us").unwrap_or(0),
        queue_depth: v.u64_field("queue_depth").unwrap_or(0),
        uncommitted: v.u64_field("uncommitted").unwrap_or(0),
        inbox_depth: v.u64_field("inbox_depth").unwrap_or(0),
        ring_full_stalls: v.u64_field("ring_full_stalls").unwrap_or(0),
        events_committed: v.u64_field("events_committed").unwrap_or(0),
        events_processed: v.u64_field("events_processed").unwrap_or(0),
        events_rolled_back: v.u64_field("events_rolled_back").unwrap_or(0),
        rollbacks: v.u64_field("rollbacks").unwrap_or(0),
        pool_hits: v.u64_field("pool_hits").unwrap_or(0),
        pool_misses: v.u64_field("pool_misses").unwrap_or(0),
        checkpoints_written: v.u64_field("checkpoints_written").unwrap_or(0),
        checkpoint_bytes: v.u64_field("checkpoint_bytes").unwrap_or(0),
        cascades: v.u64_field("cascades").unwrap_or(0),
        cascade_undone: v.u64_field("cascade_undone").unwrap_or(0),
        cascade_reexec: v.u64_field("cascade_reexec").unwrap_or(0),
        ..RoundSnapshot::default()
    };
    if let Some(phases) = v.get("phase_ns").and_then(JsonValue::as_arr) {
        for (slot, ns) in snap.phase_ns.iter_mut().zip(phases) {
            *slot = ns.as_u64().unwrap_or(0);
        }
    }
    Some(snap)
}

// ---------------------------------------------------------------------------
// Stream tailing
// ---------------------------------------------------------------------------

/// Tails one growing JSONL file: each [`poll`](Self::poll) reads whatever
/// bytes were appended since the last poll and returns only *complete*
/// lines. A torn tail (the writer's buffer flushed mid-line) is buffered
/// until its newline arrives — partial-line tolerance is what makes tailing
/// a live run's stream safe.
#[derive(Debug)]
pub struct StreamTail {
    path: PathBuf,
    offset: u64,
    partial: Vec<u8>,
}

impl StreamTail {
    /// Tail `path` from the beginning (the file need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> StreamTail {
        StreamTail {
            path: path.into(),
            offset: 0,
            partial: Vec::new(),
        }
    }

    /// The tailed path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read newly appended bytes and return the complete lines among them
    /// (empty lines skipped). A missing file yields no lines (the run may
    /// not have started writing yet).
    pub fn poll(&mut self) -> Result<Vec<String>, AggError> {
        let mut file = match fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(AggError::io(&self.path, e)),
        };
        file.seek(SeekFrom::Start(self.offset))
            .map_err(|e| AggError::io(&self.path, e))?;
        let mut fresh = Vec::new();
        file.read_to_end(&mut fresh)
            .map_err(|e| AggError::io(&self.path, e))?;
        self.offset += fresh.len() as u64;
        self.partial.extend_from_slice(&fresh);
        let mut lines = Vec::new();
        while let Some(nl) = self.partial.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = self.partial.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&raw[..nl]);
            let text = text.trim();
            if !text.is_empty() {
                lines.push(text.to_string());
            }
        }
        Ok(lines)
    }
}

// ---------------------------------------------------------------------------
// Health events
// ---------------------------------------------------------------------------

/// The fleet monitor's threshold/trend detectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthDetector {
    /// GVT has not advanced across too many reported rounds.
    GvtStall,
    /// Rollback share of forward executions spiked over a recent window.
    RollbackSpike,
    /// A PE's lvt−gvt roughness exceeded the divergence limit.
    RoughnessDivergence,
    /// Live events (queue + uncommitted) approached the arena capacity.
    ArenaHighWater,
    /// A running stream produced nothing for too long (wall clock).
    SilentStream,
    /// The run reported a `fail` heartbeat.
    RunFailed,
}

/// Number of [`HealthDetector`] variants (latch-array size).
const N_DETECTORS: usize = HealthDetector::RunFailed as usize + 1;

impl HealthDetector {
    /// Every detector, in discriminant order.
    pub const ALL: [HealthDetector; N_DETECTORS] = [
        HealthDetector::GvtStall,
        HealthDetector::RollbackSpike,
        HealthDetector::RoughnessDivergence,
        HealthDetector::ArenaHighWater,
        HealthDetector::SilentStream,
        HealthDetector::RunFailed,
    ];

    /// Wire name (snake_case).
    pub fn name(self) -> &'static str {
        match self {
            HealthDetector::GvtStall => "gvt_stall",
            HealthDetector::RollbackSpike => "rollback_spike",
            HealthDetector::RoughnessDivergence => "roughness_divergence",
            HealthDetector::ArenaHighWater => "arena_high_water",
            HealthDetector::SilentStream => "silent_stream",
            HealthDetector::RunFailed => "run_failed",
        }
    }

    /// Severity in the [`ObsSeverity`] taxonomy.
    pub fn severity(self) -> ObsSeverity {
        match self {
            HealthDetector::RoughnessDivergence => ObsSeverity::Info,
            _ => ObsSeverity::Warn,
        }
    }
}

/// Detector thresholds. The defaults suit the short farm runs CI exercises;
/// a long production sweep would loosen them.
#[derive(Clone, Copy, Debug)]
pub struct HealthPolicy {
    /// Fire [`HealthDetector::GvtStall`] after this many reported rounds
    /// without a GVT advance.
    pub gvt_stall_rounds: u64,
    /// Fire [`HealthDetector::RollbackSpike`] when rolled-back ÷ processed
    /// over a window exceeds this (per mille).
    pub rollback_spike_permille: u64,
    /// Minimum forward executions in a window before the spike detector
    /// judges it (small windows are all noise).
    pub rollback_window_min: u64,
    /// Fire [`HealthDetector::RoughnessDivergence`] when a PE's lvt−gvt
    /// lead exceeds this many ticks.
    pub roughness_limit: u64,
    /// Fire [`HealthDetector::ArenaHighWater`] when live events reach this
    /// percentage of the manifest's arena capacity.
    pub arena_pct: u64,
    /// Fire [`HealthDetector::SilentStream`] when a running stream stays
    /// silent this long (monitor-clock milliseconds).
    pub silent_ms: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            gvt_stall_rounds: 64,
            rollback_spike_permille: 500,
            rollback_window_min: 64,
            roughness_limit: 1_000_000,
            arena_pct: 80,
            silent_ms: 5_000,
        }
    }
}

/// One detector onset for one run. Events latch: a condition that persists
/// produces one event at onset and re-arms only after it clears, so a
/// wedged run cannot flood the health stream.
#[derive(Clone, Debug, PartialEq)]
pub struct HealthEvent {
    /// The run concerned.
    pub run: String,
    /// Per-run event sequence number (0-based, total order within a run).
    pub seq: u64,
    /// What fired.
    pub detector: HealthDetector,
    /// Detector severity.
    pub severity: ObsSeverity,
    /// Latest round ingested when the detector fired.
    pub round: u64,
    /// Observed value (detector-specific units).
    pub value: u64,
    /// Threshold it crossed (same units).
    pub threshold: u64,
    /// Monitor clock at the firing poll (caller-supplied milliseconds).
    pub at_ms: u64,
}

impl HealthEvent {
    /// Render as a single-line JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"run\":{},\"seq\":{},\"detector\":\"{}\",\"severity\":\"{}\",\"round\":{},\"value\":{},\"threshold\":{},\"at_ms\":{}}}",
            json_str(&self.run),
            self.seq,
            self.detector.name(),
            severity_name(self.severity),
            self.round,
            self.value,
            self.threshold,
            self.at_ms,
        )
    }
}

fn severity_name(sev: ObsSeverity) -> &'static str {
    match sev {
        ObsSeverity::Debug => "debug",
        ObsSeverity::Info => "info",
        ObsSeverity::Warn => "warn",
    }
}

// ---------------------------------------------------------------------------
// Per-run ingestion
// ---------------------------------------------------------------------------

/// Lifecycle of an ingested run, driven by its heartbeats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    /// Manifest seen; no heartbeat yet.
    Waiting,
    /// `run` heartbeat (or any metrics line) seen.
    Running,
    /// `end` heartbeat seen.
    Ended,
    /// `fail` heartbeat seen.
    Failed,
}

impl RunState {
    fn name(self) -> &'static str {
        match self {
            RunState::Waiting => "waiting",
            RunState::Running => "running",
            RunState::Ended => "ended",
            RunState::Failed => "failed",
        }
    }

    /// Terminal states need no further polling.
    pub fn is_terminal(self) -> bool {
        matches!(self, RunState::Ended | RunState::Failed)
    }
}

/// Log₂-bucket histogram buckets (`0`, then `[2^(i-1), 2^i)` for `i ≥ 1`,
/// with everything ≥ 2^63 in the last). Fixed memory for any stream length,
/// and percentile answers depend only on the multiset of samples — never on
/// ingestion order — which is what keeps the rollup byte-deterministic.
const N_ROUGH_BUCKETS: usize = 65;

/// One run's fold state: manifest, stream tail, latest per-PE snapshots,
/// roughness histogram, counters, and detector latches.
#[derive(Debug)]
pub struct RunIngest {
    /// The run's registry entry.
    pub manifest: RunManifest,
    tail: StreamTail,
    /// Latest snapshot per PE (by round).
    latest: BTreeMap<u64, RoundSnapshot>,
    /// Previous snapshot per PE (the spike detector's window base).
    prev: BTreeMap<u64, RoundSnapshot>,
    max_round: u64,
    lines: u64,
    malformed: u64,
    out_of_order: u64,
    max_gvt: u64,
    round_of_gvt_advance: u64,
    rough_hist: [u64; N_ROUGH_BUCKETS],
    rough_n: u64,
    rough_max: u64,
    state: RunState,
    last_hb: Option<Heartbeat>,
    latched: [bool; N_DETECTORS],
    fired: [u64; N_DETECTORS],
    next_seq: u64,
    last_progress_ms: u64,
}

impl RunIngest {
    /// Ingest state for one run whose metrics stream lives at
    /// `metrics_path`. `now_ms` starts the silent-stream clock.
    pub fn new(manifest: RunManifest, metrics_path: PathBuf, now_ms: u64) -> RunIngest {
        RunIngest {
            manifest,
            tail: StreamTail::new(metrics_path),
            latest: BTreeMap::new(),
            prev: BTreeMap::new(),
            max_round: 0,
            lines: 0,
            malformed: 0,
            out_of_order: 0,
            max_gvt: 0,
            round_of_gvt_advance: 0,
            rough_hist: [0; N_ROUGH_BUCKETS],
            rough_n: 0,
            rough_max: 0,
            state: RunState::Waiting,
            last_hb: None,
            latched: [false; N_DETECTORS],
            fired: [0; N_DETECTORS],
            next_seq: 0,
            last_progress_ms: now_ms,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> RunState {
        self.state
    }

    /// Latest heartbeat, if any.
    pub fn last_heartbeat(&self) -> Option<Heartbeat> {
        self.last_hb
    }

    /// Complete lines ingested (snapshots + heartbeats + malformed).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Malformed lines skipped.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Snapshots that arrived with a round older than one already seen for
    /// the same PE (counted, excluded from the fold).
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Poll the stream and fold any new lines; detector onsets are appended
    /// to `events`. `now_ms` is the monitor clock (caller-supplied so tests
    /// and replays are deterministic).
    pub fn poll(
        &mut self,
        policy: &HealthPolicy,
        now_ms: u64,
        events: &mut Vec<HealthEvent>,
    ) -> Result<(), AggError> {
        let lines = self.tail.poll()?;
        if !lines.is_empty() {
            self.last_progress_ms = now_ms;
            self.clear(HealthDetector::SilentStream);
        }
        for line in &lines {
            self.absorb_line(line, policy, now_ms, events);
        }
        if !self.state.is_terminal()
            && now_ms.saturating_sub(self.last_progress_ms) >= policy.silent_ms
        {
            self.fire(
                HealthDetector::SilentStream,
                now_ms.saturating_sub(self.last_progress_ms),
                policy.silent_ms,
                now_ms,
                events,
            );
        }
        Ok(())
    }

    /// Fold one complete line (exposed for offline/synthetic ingestion —
    /// the determinism tests feed the same lines in different chunkings).
    pub fn absorb_line(
        &mut self,
        line: &str,
        policy: &HealthPolicy,
        now_ms: u64,
        events: &mut Vec<HealthEvent>,
    ) {
        self.lines += 1;
        match parse_metric_line(line) {
            MetricLine::Snapshot(snap) => {
                if self.state == RunState::Waiting {
                    self.state = RunState::Running;
                }
                self.absorb_snapshot(snap, policy, now_ms, events);
            }
            MetricLine::Heartbeat(hb) => {
                self.last_hb = Some(hb);
                match hb.phase {
                    RunPhase::Run => {
                        if self.state == RunState::Waiting {
                            self.state = RunState::Running;
                        }
                    }
                    RunPhase::End => self.state = RunState::Ended,
                    RunPhase::Fail => {
                        self.state = RunState::Failed;
                        self.fire(HealthDetector::RunFailed, hb.round, 0, now_ms, events);
                    }
                }
            }
            MetricLine::Malformed => self.malformed += 1,
        }
    }

    fn absorb_snapshot(
        &mut self,
        snap: RoundSnapshot,
        policy: &HealthPolicy,
        now_ms: u64,
        events: &mut Vec<HealthEvent>,
    ) {
        let pe = snap.pe as u64;
        if let Some(existing) = self.latest.get(&pe) {
            if snap.round < existing.round {
                self.out_of_order += 1;
                return;
            }
            self.prev.insert(pe, *existing);
        }
        self.latest.insert(pe, snap);
        self.max_round = self.max_round.max(snap.round);

        if let Some(lead) = snap.lvt_lead() {
            self.rough_hist[rough_bucket(lead)] += 1;
            self.rough_n += 1;
            self.rough_max = self.rough_max.max(lead);
        }

        // GVT progress / stall.
        if snap.gvt > self.max_gvt {
            self.max_gvt = snap.gvt;
            self.round_of_gvt_advance = snap.round;
            self.clear(HealthDetector::GvtStall);
        } else {
            let stalled = snap.round.saturating_sub(self.round_of_gvt_advance);
            if stalled >= policy.gvt_stall_rounds {
                self.fire(
                    HealthDetector::GvtStall,
                    stalled,
                    policy.gvt_stall_rounds,
                    now_ms,
                    events,
                );
            }
        }

        // Rollback-rate spike over the window since this PE's previous
        // snapshot (cumulative counters difference cleanly).
        if let Some(prev) = self.prev.get(&pe) {
            let d_proc = snap.events_processed.saturating_sub(prev.events_processed);
            let d_rb = snap
                .events_rolled_back
                .saturating_sub(prev.events_rolled_back);
            if d_proc >= policy.rollback_window_min {
                let permille = d_rb.saturating_mul(1000) / d_proc;
                if permille > policy.rollback_spike_permille {
                    self.fire(
                        HealthDetector::RollbackSpike,
                        permille,
                        policy.rollback_spike_permille,
                        now_ms,
                        events,
                    );
                } else {
                    self.clear(HealthDetector::RollbackSpike);
                }
            }
        }

        // Roughness divergence.
        if let Some(lead) = snap.lvt_lead() {
            if lead > policy.roughness_limit {
                self.fire(
                    HealthDetector::RoughnessDivergence,
                    lead,
                    policy.roughness_limit,
                    now_ms,
                    events,
                );
            } else {
                self.clear(HealthDetector::RoughnessDivergence);
            }
        }

        // Arena high-water approach: live events (pending + processed but
        // uncommitted) against the manifest's per-PE capacity.
        if self.manifest.arena_slots > 0 {
            let live = snap.queue_depth.saturating_add(snap.uncommitted);
            let threshold = self.manifest.arena_slots / 100 * policy.arena_pct
                + self.manifest.arena_slots % 100 * policy.arena_pct / 100;
            if live >= threshold && threshold > 0 {
                self.fire(
                    HealthDetector::ArenaHighWater,
                    live,
                    threshold,
                    now_ms,
                    events,
                );
            } else {
                self.clear(HealthDetector::ArenaHighWater);
            }
        }
    }

    fn fire(
        &mut self,
        detector: HealthDetector,
        value: u64,
        threshold: u64,
        now_ms: u64,
        events: &mut Vec<HealthEvent>,
    ) {
        let idx = detector as usize;
        if self.latched[idx] {
            return;
        }
        self.latched[idx] = true;
        self.fired[idx] += 1;
        events.push(HealthEvent {
            run: self.manifest.run_id.clone(),
            seq: self.next_seq,
            detector,
            severity: detector.severity(),
            round: self.max_round,
            value,
            threshold,
            at_ms: now_ms,
        });
        self.next_seq += 1;
    }

    fn clear(&mut self, detector: HealthDetector) {
        self.latched[detector as usize] = false;
    }

    /// Sum of a cumulative counter over the latest snapshot of every PE.
    fn sum_latest(&self, f: impl Fn(&RoundSnapshot) -> u64) -> u64 {
        self.latest.values().map(f).sum()
    }

    /// Committed total and wall time for the rollup. Per-round snapshots
    /// lag the final commit, so once the run is terminal the end/fail
    /// heartbeat (stamped by the kernel after the last commit) is
    /// authoritative; while running, the latest snapshot gauges are.
    fn committed_wall(&self) -> (u64, u64) {
        let committed = self.sum_latest(|s| s.events_committed);
        let wall = self.latest.values().map(|s| s.wall_us).max().unwrap_or(0);
        match self.last_hb {
            Some(hb) if hb.phase != RunPhase::Run => {
                (committed.max(hb.committed), wall.max(hb.wall_us))
            }
            _ => (committed, wall),
        }
    }

    /// Roughness percentile (log₂-bucket upper bound; `p100` uses the exact
    /// max). Returns 0 when no finite-LVT sample was seen.
    pub fn roughness_percentile(&self, p: u64) -> u64 {
        if self.rough_n == 0 {
            return 0;
        }
        if p >= 100 {
            return self.rough_max;
        }
        // Rank of the percentile sample (nearest-rank on the histogram).
        let rank = (self.rough_n * p).div_ceil(100).max(1);
        let mut seen = 0;
        for (i, &count) in self.rough_hist.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return rough_bucket_upper(i).min(self.rough_max);
            }
        }
        self.rough_max
    }

    /// Render this run's rollup as one JSON object. Every field is a pure
    /// function of the manifest and the stream's line sequence.
    pub fn rollup_json(&self) -> String {
        let (committed, wall_us) = self.committed_wall();
        let processed = self.sum_latest(|s| s.events_processed);
        let rolled_back = self.sum_latest(|s| s.events_rolled_back);
        let committed_per_sec = if wall_us > 0 {
            committed as f64 * 1e6 / wall_us as f64
        } else {
            0.0
        };
        let rollback_ratio = if processed > 0 {
            rolled_back as f64 / processed as f64
        } else {
            0.0
        };
        let health: Vec<String> = HealthDetector::ALL
            .iter()
            .map(|d| format!("\"{}\":{}", d.name(), self.fired[*d as usize]))
            .collect();
        format!(
            concat!(
                "{{\"run\":{},\"model\":{},\"kernel\":{},\"state\":\"{}\",",
                "\"seed\":{},\"pes\":{},\"rounds\":{},\"gvt\":{},",
                "\"committed\":{},\"processed\":{},\"rolled_back\":{},",
                "\"rollbacks\":{},\"cascades\":{},\"cascade_undone\":{},",
                "\"cascade_reexec\":{},\"committed_per_sec\":{:.1},",
                "\"rollback_ratio\":{:.6},",
                "\"roughness\":{{\"n\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},",
                "\"queue_depth\":{},\"uncommitted\":{},\"checkpoint_bytes\":{},",
                "\"arena_slots\":{},\"lines\":{},\"malformed\":{},",
                "\"out_of_order\":{},\"health\":{{{}}}}}"
            ),
            json_str(&self.manifest.run_id),
            json_str(&self.manifest.model),
            json_str(&self.manifest.kernel),
            self.state.name(),
            self.manifest.seed,
            self.latest.len(),
            self.max_round,
            self.max_gvt,
            committed,
            processed,
            rolled_back,
            self.sum_latest(|s| s.rollbacks),
            self.sum_latest(|s| s.cascades),
            self.sum_latest(|s| s.cascade_undone),
            self.sum_latest(|s| s.cascade_reexec),
            committed_per_sec,
            rollback_ratio,
            self.rough_n,
            self.roughness_percentile(50),
            self.roughness_percentile(90),
            self.roughness_percentile(99),
            self.rough_max,
            self.sum_latest(|s| s.queue_depth),
            self.sum_latest(|s| s.uncommitted),
            self.sum_latest(|s| s.checkpoint_bytes),
            self.manifest.arena_slots,
            self.lines,
            self.malformed,
            self.out_of_order,
            health.join(","),
        )
    }
}

fn rough_bucket(lead: u64) -> usize {
    if lead == 0 {
        0
    } else {
        (64 - lead.leading_zeros()) as usize
    }
}

fn rough_bucket_upper(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b if b >= 64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

// ---------------------------------------------------------------------------
// Fleet monitor
// ---------------------------------------------------------------------------

/// Drives N [`RunIngest`]s over a farm-style directory layout (one
/// subdirectory per run, each holding [`MANIFEST_FILE`] + its metrics
/// stream), accumulating [`HealthEvent`]s and rendering fleet rollups.
#[derive(Debug)]
pub struct FleetMonitor {
    policy: HealthPolicy,
    runs: BTreeMap<String, RunIngest>,
    seen_dirs: BTreeSet<PathBuf>,
    events: Vec<HealthEvent>,
}

impl FleetMonitor {
    /// A monitor with the given detector thresholds.
    pub fn new(policy: HealthPolicy) -> FleetMonitor {
        FleetMonitor {
            policy,
            runs: BTreeMap::new(),
            seen_dirs: BTreeSet::new(),
            events: Vec::new(),
        }
    }

    /// Register one run directory (must hold a readable, version-compatible
    /// manifest). Duplicate run ids are refused — a registry with two runs
    /// claiming one identity cannot be rolled up meaningfully.
    pub fn add_run_dir(&mut self, dir: &Path, now_ms: u64) -> Result<&RunManifest, AggError> {
        let manifest = RunManifest::load(dir)?;
        let id = manifest.run_id.clone();
        if self.runs.contains_key(&id) {
            return Err(AggError::Manifest(format!(
                "duplicate run_id {id:?} (second manifest in {})",
                dir.display()
            )));
        }
        let metrics_path = dir.join(&manifest.metrics);
        self.seen_dirs.insert(dir.to_path_buf());
        let ingest = RunIngest::new(manifest, metrics_path, now_ms);
        Ok(&self.runs.entry(id).or_insert(ingest).manifest)
    }

    /// Scan a farm directory for run subdirectories (those holding a
    /// manifest), registering any not yet seen. Directories are visited in
    /// sorted name order; already-registered ones are skipped, so repeated
    /// scans of a growing farm are cheap and deterministic. Returns how
    /// many new runs were registered.
    pub fn scan_farm(&mut self, farm: &Path, now_ms: u64) -> Result<usize, AggError> {
        let mut dirs: Vec<PathBuf> = fs::read_dir(farm)
            .map_err(|e| AggError::io(farm, e))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_dir() && p.join(MANIFEST_FILE).is_file())
            .collect();
        dirs.sort();
        let mut added = 0;
        for dir in dirs {
            if self.seen_dirs.contains(&dir) {
                continue;
            }
            self.add_run_dir(&dir, now_ms)?;
            added += 1;
        }
        Ok(added)
    }

    /// Poll every run's stream once; returns the health events that fired
    /// during this poll (they are also retained — see [`events`](Self::events)).
    /// `now_ms` is the monitor clock, supplied by the caller so replays and
    /// tests are deterministic.
    pub fn poll(&mut self, now_ms: u64) -> Result<Vec<HealthEvent>, AggError> {
        let mut fresh = Vec::new();
        for ingest in self.runs.values_mut() {
            ingest.poll(&self.policy, now_ms, &mut fresh)?;
        }
        self.events.extend(fresh.iter().cloned());
        Ok(fresh)
    }

    /// Registered runs, keyed by run id (sorted).
    pub fn runs(&self) -> impl Iterator<Item = (&str, &RunIngest)> {
        self.runs.iter().map(|(id, run)| (id.as_str(), run))
    }

    /// Number of registered runs.
    pub fn n_runs(&self) -> usize {
        self.runs.len()
    }

    /// True once every registered run reached a terminal state (and at
    /// least one run is registered).
    pub fn all_done(&self) -> bool {
        !self.runs.is_empty() && self.runs.values().all(|r| r.state().is_terminal())
    }

    /// All health events so far, in firing order.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Health events as JSONL, sorted by `(run, seq)` — a canonical order
    /// independent of poll interleaving across runs.
    pub fn health_jsonl(&self) -> String {
        let mut sorted: Vec<&HealthEvent> = self.events.iter().collect();
        sorted.sort_by(|a, b| (&a.run, a.seq).cmp(&(&b.run, b.seq)));
        let mut out = String::new();
        for ev in sorted {
            out.push_str(&ev.json());
            out.push('\n');
        }
        out
    }

    /// The fleet rollup: per-run rollups (sorted by run id) plus fleet
    /// totals. Byte-deterministic for a fixed set of input streams
    /// regardless of ingestion interleaving.
    pub fn rollup_json(&self) -> String {
        let mut by_state = [0u64; 4];
        let mut committed = 0u64;
        let mut processed = 0u64;
        let mut rolled_back = 0u64;
        let mut rough_max = 0u64;
        for run in self.runs.values() {
            by_state[run.state() as usize] += 1;
            committed += run.committed_wall().0;
            processed += run.sum_latest(|s| s.events_processed);
            rolled_back += run.sum_latest(|s| s.events_rolled_back);
            rough_max = rough_max.max(run.rough_max);
        }
        let rollback_ratio = if processed > 0 {
            rolled_back as f64 / processed as f64
        } else {
            0.0
        };
        let runs: Vec<String> = self.runs.values().map(RunIngest::rollup_json).collect();
        format!(
            concat!(
                "{{\"rollup_version\":1,\"runs\":{},\"waiting\":{},",
                "\"running\":{},\"ended\":{},\"failed\":{},",
                "\"committed\":{},\"processed\":{},\"rolled_back\":{},",
                "\"rollback_ratio\":{:.6},\"roughness_max\":{},",
                "\"health_events\":{},\"fleet\":[{}]}}"
            ),
            self.runs.len(),
            by_state[RunState::Waiting as usize],
            by_state[RunState::Running as usize],
            by_state[RunState::Ended as usize],
            by_state[RunState::Failed as usize],
            committed,
            processed,
            rolled_back,
            rollback_ratio,
            rough_max,
            self.events.len(),
            runs.join(","),
        )
    }

    /// One-line TTY fleet status (for a `\r`-refreshed live display).
    pub fn status_line(&self) -> String {
        let mut by_state = [0u64; 4];
        let mut committed = 0u64;
        let mut max_round = 0u64;
        for run in self.runs.values() {
            by_state[run.state() as usize] += 1;
            committed += run.committed_wall().0;
            max_round = max_round.max(run.max_round);
        }
        format!(
            "fleet: {} runs [{} wait / {} run / {} end / {} fail] round<={} committed={} health={}",
            self.runs.len(),
            by_state[RunState::Waiting as usize],
            by_state[RunState::Running as usize],
            by_state[RunState::Ended as usize],
            by_state[RunState::Failed as usize],
            max_round,
            committed,
            self.events.len(),
        )
    }
}

// ---------------------------------------------------------------------------
// Kernel-side instrumentation hook
// ---------------------------------------------------------------------------

/// If `config.obs.metrics_path` is set, prepare the run's registry entry:
/// create the directory, write the [`RunManifest`], and install a
/// [`JsonlSink`](super::JsonlSink) at that path (unless a sink is already
/// configured — an explicit sink wins, but the manifest is still written).
/// Returns the config the kernel should run with: the caller's own when the
/// run is not instrumented, otherwise an adjusted copy (metrics_path
/// consumed, sink installed). IO failures surface as [`RunError::Obs`] — an
/// instrumented run that cannot register is an error, not a silent gap in
/// the registry.
pub(crate) fn instrument<'a>(
    config: &'a EngineConfig,
    n_lps: u64,
    kernel: &'static str,
) -> Result<Cow<'a, EngineConfig>, RunError> {
    let Some(path) = config.obs.metrics_path.clone() else {
        return Ok(Cow::Borrowed(config));
    };
    let mut cfg = config.clone();
    cfg.obs.metrics_path = None;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    fs::create_dir_all(&dir)
        .map_err(|e| RunError::obs(format!("create run dir {}: {e}", dir.display())))?;
    let manifest = RunManifest::for_run(config, n_lps, kernel, &path);
    manifest
        .write(&dir)
        .map_err(|e| RunError::obs(format!("write manifest: {e}")))?;
    if cfg.obs.sink.is_none() {
        let sink = super::JsonlSink::create(&path)
            .map_err(|e| RunError::obs(format!("create metrics stream {}: {e}", path.display())))?;
        cfg.obs.sink = Some(std::sync::Arc::new(sink));
    }
    Ok(Cow::Owned(cfg))
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Aggregator-side failures (registry, tailing, manifest schema).
#[derive(Debug)]
pub enum AggError {
    /// Filesystem failure on a named path.
    Io {
        /// The path concerned.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A manifest that is unreadable, invalid, or of an unsupported version.
    Manifest(String),
}

impl AggError {
    fn io(path: &Path, source: std::io::Error) -> AggError {
        AggError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            AggError::Manifest(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for AggError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AggError::Io { source, .. } => Some(source),
            AggError::Manifest(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualTime;

    fn test_config() -> EngineConfig {
        EngineConfig::new(VirtualTime::from_steps(64))
            .with_seed(7)
            .with_pes(2)
            .with_kps(8)
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let mut config = test_config();
        config.obs.run_id = Some("run-07".to_string());
        config.obs.model_label = Some("hotpotato/torus".to_string());
        config.obs.heartbeat_every = 16;
        let m = RunManifest::for_run(&config, 256, "parallel", Path::new("farm/run-07/m.jsonl"));
        assert_eq!(m.run_id, "run-07");
        assert_eq!(m.metrics, "m.jsonl");
        assert_eq!(m.scheduler, scheduler_name(SchedulerKind::default()));
        assert_eq!(m.n_lps, 256);
        assert_eq!(m.config_digest.len(), 16);
        let text = m.to_json();
        json::validate(&text).expect("manifest json is well-formed");
        let back = RunManifest::parse(&text).expect("manifest parses");
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_refuses_unknown_versions_and_garbage() {
        let mut config = test_config();
        config.obs.run_id = Some("x".to_string());
        let m = RunManifest::for_run(&config, 4, "sequential", Path::new("x/m.jsonl"));
        let future = m
            .to_json()
            .replace("\"manifest_version\":1", "\"manifest_version\":999");
        let err = RunManifest::parse(&future).unwrap_err();
        assert!(err.to_string().contains("manifest_version 999"), "{err}");
        assert!(RunManifest::parse("not json").is_err());
        assert!(RunManifest::parse("{\"manifest_version\":1}").is_err());
    }

    #[test]
    fn config_digest_tracks_engine_not_obs() {
        let a = test_config();
        let mut b = test_config();
        b.obs.heartbeat_every = 99;
        b.obs.run_id = Some("other".to_string());
        assert_eq!(
            config_digest(&a, 16),
            config_digest(&b, 16),
            "obs knobs must not change run identity"
        );
        let c = test_config().with_seed(8);
        assert_ne!(config_digest(&a, 16), config_digest(&c, 16));
        assert_ne!(config_digest(&a, 16), config_digest(&a, 17));
    }

    #[test]
    fn default_run_id_prefers_parent_dir() {
        assert_eq!(
            default_run_id(Path::new("farm/run-03/metrics.jsonl")),
            "run-03"
        );
        assert_eq!(default_run_id(Path::new("metrics.jsonl")), "metrics");
    }

    #[test]
    fn heartbeat_and_snapshot_lines_classify() {
        let hb = Heartbeat {
            pe: 0,
            wall_us: 1234,
            round: 7,
            gvt: 99,
            committed: 500,
            phase: RunPhase::Run,
        };
        let line = hb.json();
        json::validate(&line).expect("heartbeat json well-formed");
        assert_eq!(parse_metric_line(&line), MetricLine::Heartbeat(hb));

        let snap = RoundSnapshot {
            round: 3,
            pe: 1,
            gvt: 10,
            lvt: u64::MAX,
            events_committed: 42,
            ..Default::default()
        };
        match parse_metric_line(&json::snapshot_json(&snap)) {
            MetricLine::Snapshot(back) => assert_eq!(back, snap),
            other => panic!("expected snapshot, got {other:?}"),
        }

        assert_eq!(parse_metric_line("{\"hb\":1}"), MetricLine::Malformed);
        assert_eq!(parse_metric_line("{\"round\":1}"), MetricLine::Malformed);
        assert_eq!(parse_metric_line("not json"), MetricLine::Malformed);
    }

    #[test]
    fn rough_buckets_partition_u64() {
        assert_eq!(rough_bucket(0), 0);
        assert_eq!(rough_bucket(1), 1);
        assert_eq!(rough_bucket(2), 2);
        assert_eq!(rough_bucket(3), 2);
        assert_eq!(rough_bucket(4), 3);
        assert_eq!(rough_bucket(u64::MAX), 64);
        for b in 1..64 {
            let hi = rough_bucket_upper(b);
            assert_eq!(rough_bucket(hi), b);
            assert_eq!(rough_bucket(hi + 1), b + 1);
        }
        assert_eq!(rough_bucket_upper(64), u64::MAX);
    }

    fn manifest_for(id: &str, arena_slots: u64) -> RunManifest {
        let mut config = test_config();
        config.obs.run_id = Some(id.to_string());
        let mut m = RunManifest::for_run(&config, 4, "parallel", Path::new("m.jsonl"));
        m.arena_slots = arena_slots;
        m
    }

    fn snap_line(round: u64, pe: usize, gvt: u64, lvt: u64) -> String {
        json::snapshot_json(&RoundSnapshot {
            round,
            pe,
            gvt,
            lvt,
            events_processed: round * 100,
            events_committed: round * 90,
            ..Default::default()
        })
    }

    #[test]
    fn gvt_stall_fires_once_and_rearms() {
        let policy = HealthPolicy {
            gvt_stall_rounds: 4,
            ..Default::default()
        };
        let mut run = RunIngest::new(manifest_for("r", 0), PathBuf::from("/nonexistent"), 0);
        let mut events = Vec::new();
        // GVT advances at round 1, then freezes.
        run.absorb_line(&snap_line(1, 0, 10, 20), &policy, 0, &mut events);
        for round in 2..=10 {
            run.absorb_line(&snap_line(round, 0, 10, 20), &policy, 0, &mut events);
        }
        let stalls: Vec<&HealthEvent> = events
            .iter()
            .filter(|e| e.detector == HealthDetector::GvtStall)
            .collect();
        assert_eq!(stalls.len(), 1, "latch fires once: {events:?}");
        assert_eq!(stalls[0].threshold, 4);
        assert!(stalls[0].value >= 4);
        // An advance clears the latch; a second stall fires again.
        run.absorb_line(&snap_line(11, 0, 11, 20), &policy, 0, &mut events);
        for round in 12..=20 {
            run.absorb_line(&snap_line(round, 0, 11, 20), &policy, 0, &mut events);
        }
        let stalls = events
            .iter()
            .filter(|e| e.detector == HealthDetector::GvtStall)
            .count();
        assert_eq!(stalls, 2, "re-armed after the advance: {events:?}");
    }

    #[test]
    fn rollback_spike_and_roughness_detectors() {
        let policy = HealthPolicy {
            rollback_spike_permille: 500,
            rollback_window_min: 10,
            roughness_limit: 1000,
            ..Default::default()
        };
        let mut run = RunIngest::new(manifest_for("r", 0), PathBuf::from("/nonexistent"), 0);
        let mut events = Vec::new();
        let line = |round: u64, proc: u64, rb: u64, lvt: u64| {
            json::snapshot_json(&RoundSnapshot {
                round,
                pe: 0,
                gvt: round,
                lvt,
                events_processed: proc,
                events_rolled_back: rb,
                ..Default::default()
            })
        };
        run.absorb_line(&line(1, 100, 0, 50), &policy, 0, &mut events);
        // Window of 100 processed, 80 rolled back → 800‰ > 500‰.
        run.absorb_line(&line(2, 200, 80, 50), &policy, 0, &mut events);
        assert!(
            events
                .iter()
                .any(|e| e.detector == HealthDetector::RollbackSpike),
            "{events:?}"
        );
        // Roughness: lvt leads gvt by > 1000.
        run.absorb_line(&line(3, 300, 80, 3 + 5000), &policy, 0, &mut events);
        let rough: Vec<&HealthEvent> = events
            .iter()
            .filter(|e| e.detector == HealthDetector::RoughnessDivergence)
            .collect();
        assert_eq!(rough.len(), 1);
        assert_eq!(rough[0].severity, ObsSeverity::Info);
        assert_eq!(rough[0].value, 5000);
    }

    #[test]
    fn arena_high_water_uses_manifest_capacity() {
        let policy = HealthPolicy {
            arena_pct: 80,
            ..Default::default()
        };
        let mut run = RunIngest::new(manifest_for("r", 1000), PathBuf::from("/nonexistent"), 0);
        let mut events = Vec::new();
        let line = |round: u64, queue: u64, uncommitted: u64| {
            json::snapshot_json(&RoundSnapshot {
                round,
                pe: 0,
                gvt: round,
                lvt: round + 1,
                queue_depth: queue,
                uncommitted,
                ..Default::default()
            })
        };
        run.absorb_line(&line(1, 100, 100), &policy, 0, &mut events);
        assert!(events.is_empty(), "20% is calm: {events:?}");
        run.absorb_line(&line(2, 500, 300), &policy, 0, &mut events);
        let ev = events
            .iter()
            .find(|e| e.detector == HealthDetector::ArenaHighWater)
            .expect("80% fires");
        assert_eq!(ev.value, 800);
        assert_eq!(ev.threshold, 800);
    }

    #[test]
    fn out_of_order_and_malformed_are_counted_not_fatal() {
        let policy = HealthPolicy::default();
        let mut run = RunIngest::new(manifest_for("r", 0), PathBuf::from("/nonexistent"), 0);
        let mut events = Vec::new();
        run.absorb_line(&snap_line(5, 0, 5, 6), &policy, 0, &mut events);
        run.absorb_line(&snap_line(3, 0, 3, 4), &policy, 0, &mut events);
        run.absorb_line("{{{", &policy, 0, &mut events);
        assert_eq!(run.out_of_order(), 1);
        assert_eq!(run.malformed(), 1);
        assert_eq!(run.lines(), 3);
        assert_eq!(run.state(), RunState::Running);
        json::validate(&run.rollup_json()).expect("rollup well-formed");
    }

    #[test]
    fn heartbeats_drive_run_state() {
        let policy = HealthPolicy::default();
        let mut run = RunIngest::new(manifest_for("r", 0), PathBuf::from("/nonexistent"), 0);
        let mut events = Vec::new();
        assert_eq!(run.state(), RunState::Waiting);
        let hb = |phase: RunPhase| {
            Heartbeat {
                pe: 0,
                wall_us: 1,
                round: 1,
                gvt: 1,
                committed: 10,
                phase,
            }
            .json()
        };
        run.absorb_line(&hb(RunPhase::Run), &policy, 0, &mut events);
        assert_eq!(run.state(), RunState::Running);
        run.absorb_line(&hb(RunPhase::End), &policy, 0, &mut events);
        assert_eq!(run.state(), RunState::Ended);
        assert!(run.state().is_terminal());
        assert!(events.is_empty());
        run.absorb_line(&hb(RunPhase::Fail), &policy, 0, &mut events);
        assert_eq!(run.state(), RunState::Failed);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].detector, HealthDetector::RunFailed);
        json::validate(&events[0].json()).expect("health event well-formed");
    }

    #[test]
    fn roughness_percentiles_are_order_independent() {
        let policy = HealthPolicy::default();
        let leads: Vec<u64> = (0..100).map(|i| i * 37 % 1000).collect();
        let ingest = |order: &[u64]| {
            let mut run = RunIngest::new(manifest_for("r", 0), PathBuf::from("/nonexistent"), 0);
            let mut events = Vec::new();
            for (i, &lead) in order.iter().enumerate() {
                // Distinct PEs so no sample is shadowed by "latest round wins".
                let line = json::snapshot_json(&RoundSnapshot {
                    round: 1,
                    pe: i,
                    gvt: 1000,
                    lvt: 1000 + lead,
                    ..Default::default()
                });
                run.absorb_line(&line, &policy, 0, &mut events);
            }
            (
                run.roughness_percentile(50),
                run.roughness_percentile(99),
                run.roughness_percentile(100),
            )
        };
        let forward = ingest(&leads);
        let mut reversed = leads.clone();
        reversed.reverse();
        assert_eq!(forward, ingest(&reversed));
        assert_eq!(forward.2, 999, "p100 is the exact max");
    }
}
