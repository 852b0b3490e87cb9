//! What an instrumented run writes about itself: its registry entry and its
//! liveness pulses.
//!
//! A run whose [`ObsConfig::metrics_path`](super::ObsConfig::metrics_path)
//! is set is *registered*:
//!
//! * **Run manifest** — before the first event executes, the run writes a
//!   versioned [`RunManifest`] (`run-manifest.json`) next to its metrics
//!   stream: config digest, seed, topology, scheduler, GVT mode, build tag,
//!   and the stream's file name. A reader that finds the manifest can
//!   interpret the stream without out-of-band knowledge.
//! * **Heartbeats** — PE 0 interleaves [`Heartbeat`] lines
//!   (`{"hb":1,...,"state":"run|end|fail"}`) into the JSONL snapshot stream:
//!   one at start, one every [`DEFAULT_HEARTBEAT_EVERY`] GVT rounds, and a
//!   closing `end` (run totals) or `fail` (the round the run died in).
//!
//! Both files are read back with the in-tree [`json`](super::json) parser.

use std::borrow::Cow;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use super::json;
use super::DEFAULT_HEARTBEAT_EVERY;
use crate::audit::AuditHasher;
use crate::config::EngineConfig;
use crate::error::RunError;
use crate::scheduler::SchedulerKind;

// ---------------------------------------------------------------------------
// Run manifest (the registry entry)
// ---------------------------------------------------------------------------

/// Manifest schema version this build writes. Bump on any incompatible
/// change, so a reader can refuse a schema it does not know.
pub const MANIFEST_VERSION: u64 = 1;

/// File name of the manifest, written next to the metrics stream.
pub const MANIFEST_FILE: &str = "run-manifest.json";

/// One run's registry entry: everything a reader needs to interpret the
/// metrics stream sitting next to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunManifest {
    /// Schema version (see [`MANIFEST_VERSION`]).
    pub manifest_version: u64,
    /// Run identifier: the run directory's name.
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
    /// Heartbeat cadence in GVT rounds ([`DEFAULT_HEARTBEAT_EVERY`] for
    /// every run this build writes).
    pub heartbeat_every: u64,
    /// FNV-1a digest (hex) over the canonical engine-config fields, so two
    /// manifests with equal digests ran the same engine configuration.
    pub config_digest: String,
    /// Build identity: `pdes-<crate version>`.
    pub build_tag: String,
    /// Metrics stream file name, relative to the manifest's directory.
    pub metrics: String,
}

impl RunManifest {
    /// Build the manifest for an instrumented run. `metrics_path` is where
    /// the JSONL stream will be written; the manifest records its file name
    /// and derives the run id from the parent directory.
    pub fn for_run(
        config: &EngineConfig,
        n_lps: u64,
        kernel: &str,
        metrics_path: &Path,
    ) -> RunManifest {
        let metrics = metrics_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "metrics.jsonl".to_string());
        RunManifest {
            manifest_version: MANIFEST_VERSION,
            run_id: run_id(metrics_path),
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
            heartbeat_every: DEFAULT_HEARTBEAT_EVERY,
            config_digest: format!("{:016x}", config_digest(config, n_lps)),
            build_tag: concat!("pdes-", env!("CARGO_PKG_VERSION")).to_string(),
            metrics,
        }
    }

    /// Render as one JSON object (single line).
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
            json::quote(&self.run_id),
            json::quote(&self.model),
            json::quote(&self.kernel),
            self.seed,
            self.n_pes,
            self.n_kps,
            self.n_lps,
            json::quote(&self.scheduler),
            json::quote(&self.gvt_mode),
            self.gvt_interval,
            self.batch,
            json_opt(self.max_lookahead),
            self.arena_slots,
            json_opt(self.checkpoint_every),
            self.heartbeat_every,
            json::quote(&self.config_digest),
            json::quote(&self.build_tag),
            json::quote(&self.metrics),
        )
    }

    /// Write the manifest into `dir` as [`MANIFEST_FILE`].
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        fs::write(dir.join(MANIFEST_FILE), self.to_json() + "\n")
    }
}

fn run_id(metrics_path: &Path) -> String {
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
}

/// One liveness pulse, interleaved into the metrics JSONL stream (`"hb":1`
/// distinguishes it from snapshot lines). PE 0 emits one at run start,
/// every [`DEFAULT_HEARTBEAT_EVERY`] GVT rounds, and once at termination
/// with the run's final totals — so a reader can tell "healthy but quiet"
/// from "wedged" without parsing the full snapshot stream.
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
/// its output.
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
    manifest.write(&dir).map_err(|e| {
        RunError::obs(format!(
            "write manifest: {}: {e}",
            dir.join(MANIFEST_FILE).display()
        ))
    })?;
    if cfg.obs.sink.is_none() {
        let sink = super::JsonlSink::create(&path)
            .map_err(|e| RunError::obs(format!("create metrics stream {}: {e}", path.display())))?;
        cfg.obs.sink = Some(std::sync::Arc::new(sink));
    }
    Ok(Cow::Owned(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{ObsConfig, RoundSnapshot};
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
        config.obs.model_label = Some("hotpotato/torus".to_string());
        let m = RunManifest::for_run(&config, 256, "parallel", Path::new("farm/run-07/m.jsonl"));
        assert_eq!(m.run_id, "run-07");
        assert_eq!(m.metrics, "m.jsonl");
        assert_eq!(m.heartbeat_every, DEFAULT_HEARTBEAT_EVERY);
        assert_eq!(m.build_tag, concat!("pdes-", env!("CARGO_PKG_VERSION")));
        assert_eq!(m.scheduler, scheduler_name(SchedulerKind::default()));
        assert_eq!(m.n_lps, 256);
        assert_eq!(m.config_digest.len(), 16);
        // Every field reads back through the in-tree parser.
        let v = json::parse(&m.to_json()).expect("manifest json is well-formed");
        assert_eq!(v.u64_field("manifest_version"), Some(MANIFEST_VERSION));
        for (key, want) in [
            ("run_id", &m.run_id),
            ("model", &m.model),
            ("kernel", &m.kernel),
            ("scheduler", &m.scheduler),
            ("gvt_mode", &m.gvt_mode),
            ("config_digest", &m.config_digest),
            ("build_tag", &m.build_tag),
            ("metrics", &m.metrics),
        ] {
            assert_eq!(v.str_field(key), Some(want.as_str()), "{key}");
        }
        for (key, want) in [
            ("seed", m.seed),
            ("n_pes", m.n_pes),
            ("n_kps", m.n_kps),
            ("n_lps", m.n_lps),
            ("gvt_interval", m.gvt_interval),
            ("batch", m.batch),
            ("arena_slots", m.arena_slots),
            ("heartbeat_every", m.heartbeat_every),
        ] {
            assert_eq!(v.u64_field(key), Some(want), "{key}");
        }
        assert_eq!(v.get("max_lookahead"), Some(&json::JsonValue::Null));
        assert_eq!(v.get("checkpoint_every"), Some(&json::JsonValue::Null));
    }

    #[test]
    fn config_digest_tracks_engine_not_obs() {
        let a = test_config();
        let mut b = test_config();
        b.obs = ObsConfig::verbose()
            .with_metrics_path("farm/other/metrics.jsonl")
            .with_model_label("other");
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
        assert_eq!(run_id(Path::new("farm/run-03/metrics.jsonl")), "run-03");
        assert_eq!(run_id(Path::new("metrics.jsonl")), "metrics");
    }

    /// A heartbeat line carries `"hb":1` and its fields; a snapshot line
    /// carries no `hb` key, which is how a reader tells the two apart.
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
        let v = json::parse(&hb.json()).expect("heartbeat json well-formed");
        assert_eq!(v.u64_field("hb"), Some(1));
        assert_eq!(v.u64_field("wall_us"), Some(1234));
        assert_eq!(v.u64_field("round"), Some(7));
        assert_eq!(v.u64_field("gvt"), Some(99));
        assert_eq!(v.u64_field("committed"), Some(500));
        assert_eq!(v.str_field("state"), Some("run"));

        let snap = RoundSnapshot {
            round: 3,
            pe: 1,
            gvt: 10,
            lvt: u64::MAX,
            events_committed: 42,
            ..Default::default()
        };
        let v = json::parse(&json::snapshot_json(&snap)).expect("snapshot json well-formed");
        assert_eq!(v.get("hb"), None);
        assert_eq!(v.u64_field("lvt"), Some(u64::MAX));
    }
}
