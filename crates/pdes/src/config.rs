//! Engine configuration.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use crate::error::RunError;
use crate::fault::FaultPlan;
use crate::obs::{ObsConfig, DEFAULT_RECORDER_CAPACITY};
use crate::scheduler::SchedulerKind;
use crate::time::VirtualTime;

/// Whether a parallel run may take the windowed arm. Time Warp always
/// computes GVT by the Fujimoto-style barriered round: all PEs rendezvous,
/// settle in-flight messages to quiescence, and publish their minima.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GvtMode {
    /// The windowed arm when the epoch allows it, else Time Warp: when the
    /// model declares an epoch ([`Model::epoch`](crate::model::Model::epoch)),
    /// [`max_lookahead`](EngineConfig::max_lookahead) is at most that epoch
    /// and the run does not checkpoint, the PEs run rollback-free and agree
    /// on one minimum per window. Checkpointing runs take Time Warp, whose
    /// quiescent rounds the snapshot frames need. This is the default.
    #[default]
    Auto,
    /// Never take the windowed arm: every parallel run is Time Warp.
    Barrier,
}

/// Tunables shared by both kernels. Construct with [`EngineConfig::new`] and
/// chain the `with_*` builders.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Virtual time horizon; events at `t >= end_time` are never executed
    /// (ROSS's `g_tw_ts_end`).
    pub end_time: VirtualTime,
    /// Global seed from which every LP's RNG stream is derived.
    pub seed: u64,
    /// Number of worker threads for the optimistic kernel.
    pub n_pes: usize,
    /// Number of kernel processes (rollback granules). Must be ≥ `n_pes`.
    pub n_kps: u32,
    /// Pending-set implementation.
    pub scheduler: SchedulerKind,
    /// Events each PE processes between GVT reductions (ROSS's
    /// `gvt-interval` × batch). Smaller = tighter memory, more sync.
    pub gvt_interval: u64,
    /// Maximum events a PE forward-executes per loop iteration before
    /// polling its inbox again (ROSS's `batch`).
    pub batch: usize,
    /// Sender-side batching threshold for the inter-PE comm fabric: a
    /// per-destination send buffer is flushed into the destination's SPSC
    /// ring as soon as it holds this many messages. `None` disables eager
    /// flushing — buffers then flush only at the main-loop / GVT-round
    /// boundaries ("unbounded" batches). Smaller batches deliver stragglers
    /// sooner (fewer rollbacks); larger batches amortize ring traffic.
    /// Committed output is identical at every setting.
    pub comm_batch: Option<usize>,
    /// Optimism throttle, as a *ceiling*: if set, a PE never executes events
    /// more than this many ticks past the last computed GVT, and the kernel
    /// narrows each PE's own window below it — toward one
    /// [`VirtualTime::STEP`] — while that PE's rollbacks stay above a few
    /// percent of what it processes, then widens it again slowly over calm
    /// rounds. Bounds rollback depth (and memory) at the cost of more
    /// frequent GVT rounds. A ceiling of one step or less is never narrowed.
    /// `None` = unbounded optimism (classic Time Warp), never throttled.
    /// A ceiling at or below the model's declared epoch
    /// ([`Model::epoch`](crate::model::Model::epoch)) allows no speculation
    /// the epoch does not make safe, so such a run takes the rollback-free
    /// windowed arm unless it checkpoints or sets [`GvtMode::Barrier`].
    /// Committed output is identical at every setting.
    pub max_lookahead: Option<u64>,
    /// Deterministic fault injection at the inter-PE inbox boundary (see
    /// [`fault`](crate::fault)). `None` = no chaos. Ignored by the
    /// sequential kernel, which has no inter-PE boundary.
    pub fault_plan: Option<FaultPlan>,
    /// GVT liveness watchdog: abort with
    /// [`RunError::GvtStalled`](crate::error::RunError::GvtStalled) if GVT
    /// fails to advance across this many consecutive reduction rounds while
    /// work remains. `None` disables the watchdog. The default (1 million
    /// rounds) is far beyond anything a healthy run produces, yet catches a
    /// genuinely wedged machine (e.g. a zero-delay livelock) in seconds.
    pub gvt_stall_rounds: Option<u64>,
    /// Wall-clock deadline for the whole parallel run, checked at every GVT
    /// round; exceeded → [`RunError::GvtStalled`]. Note a handler that never
    /// returns can still hang the run — the kernel only regains control
    /// between events.
    pub deadline: Option<Duration>,
    /// Observability: flight recorder, GVT-round snapshot series, metrics
    /// sink, progress line (see [`ObsConfig`]). [`EngineConfig::new`] starts
    /// from [`ObsConfig::default`], with the flight recorder on under
    /// `PDES_TRACE=1` and the metrics path from `PDES_OBS_METRICS`; override
    /// with [`with_obs`](Self::with_obs).
    pub obs: ObsConfig,
    /// Runtime reversibility auditor (see [`audit`](crate::audit)): probe
    /// `reverse` right after every `handle`, hash-check real rollbacks,
    /// track anti-message conservation, and verify scheduler structure every
    /// GVT round. On by default in debug builds, off in release;
    /// `PDES_AUDIT=1`/`0` overrides the default, and
    /// [`with_audit`](Self::with_audit) overrides both.
    pub audit: bool,
    /// Whether the auditor's *reverse-replay probe* (scratch-execute
    /// `handle` + `reverse` after every event and compare state
    /// fingerprints) runs. `PDES_AUDIT=fast` turns the auditor on with the
    /// probe off — the hash/conservation/scheduler checks remain, at a
    /// fraction of the overhead. Ignored when [`audit`](Self::audit) is
    /// off. Default true.
    pub audit_probe: bool,
    /// Test-only audit fault injection: swallow the nth (0-based)
    /// child-cancellation instead of dispatching it, per PE, to prove the
    /// conservation check detects a dropped anti-message. `Some(_)` requires
    /// `audit` and is rejected by [`validate`](Self::validate) otherwise.
    #[doc(hidden)]
    pub audit_drop_anti: Option<u64>,
    /// Checkpointing (see [`ckpt`](crate::ckpt)): write a snapshot of the
    /// committed machine state every N GVT rounds (sequential kernel: every
    /// N telemetry rounds). `None` disables checkpointing. Requires the
    /// model to implement the `Model::save_state`/`load_state` hooks. Set
    /// with [`with_checkpoint_every`](Self::with_checkpoint_every).
    pub checkpoint_every: Option<u64>,
    /// Directory snapshots are written to (created on first write; the
    /// newest two are kept). Default `pdes-ckpt`; set with
    /// [`with_checkpoint_dir`](Self::with_checkpoint_dir).
    pub checkpoint_dir: PathBuf,
    /// Whether a parallel run may take the windowed arm (see [`GvtMode`]);
    /// set with [`with_gvt_mode`](Self::with_gvt_mode).
    pub gvt_mode: GvtMode,
    /// Per-PE event-arena capacity in slots (`None` =
    /// [`EventArena::DEFAULT_SLOTS`](crate::arena::EventArena::DEFAULT_SLOTS)).
    /// Exhaustion surfaces as
    /// [`RunError::ArenaExhausted`](crate::error::RunError::ArenaExhausted).
    pub arena_slots: Option<u32>,
}

impl EngineConfig {
    /// A configuration with the given horizon and the defaults used
    /// throughout the paper's experiments: 1 PE, 64 KPs, ladder scheduler,
    /// GVT every 1024 events, batch of 16. Three process variables, read
    /// once per process, seed it: `PDES_TRACE=1` turns the flight recorder
    /// on, `PDES_AUDIT=0|1|fast` sets [`audit`](Self::audit) and
    /// [`audit_probe`](Self::audit_probe), and `PDES_OBS_METRICS=<path>`
    /// sets [`ObsConfig::metrics_path`]. Any other `PDES_*` variable, and a
    /// malformed value, is ignored with one warning on stderr.
    pub fn new(end_time: VirtualTime) -> Self {
        static ENV: OnceLock<EnvDefaults> = OnceLock::new();
        let env = ENV.get_or_init(|| {
            let env = env_defaults(
                std::env::vars_os()
                    .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?))),
            );
            for warning in &env.warnings {
                eprintln!("{warning}");
            }
            env
        });
        let (audit, audit_probe) = env.audit.unwrap_or((cfg!(debug_assertions), true));
        EngineConfig {
            end_time,
            seed: 0x5EED0F0DD5,
            n_pes: 1,
            n_kps: 64,
            scheduler: SchedulerKind::default(),
            gvt_interval: 1024,
            batch: 16,
            comm_batch: Some(8),
            max_lookahead: None,
            fault_plan: None,
            gvt_stall_rounds: Some(1_000_000),
            deadline: None,
            obs: ObsConfig {
                recorder_capacity: if env.trace {
                    DEFAULT_RECORDER_CAPACITY
                } else {
                    0
                },
                metrics_path: env.metrics_path.clone(),
                ..ObsConfig::default()
            },
            audit,
            audit_probe,
            audit_drop_anti: None,
            checkpoint_every: None,
            checkpoint_dir: PathBuf::from("pdes-ckpt"),
            gvt_mode: GvtMode::Auto,
            arena_slots: None,
        }
    }

    /// Throttle optimism to at most `ticks` past GVT — a ceiling; the kernel
    /// narrows toward one step under sustained rollback (see
    /// [`max_lookahead`](Self::max_lookahead)).
    pub fn with_lookahead(mut self, ticks: u64) -> Self {
        self.max_lookahead = Some(ticks);
        self
    }

    /// Set the global RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of PEs (worker threads).
    pub fn with_pes(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one PE");
        self.n_pes = n;
        self
    }

    /// Set the number of KPs (rollback granules).
    pub fn with_kps(mut self, n: u32) -> Self {
        assert!(n >= 1, "need at least one KP");
        self.n_kps = n;
        self
    }

    /// Choose the pending-set implementation.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Set the GVT interval (events between reductions).
    pub fn with_gvt_interval(mut self, interval: u64) -> Self {
        assert!(interval >= 1);
        self.gvt_interval = interval;
        self
    }

    /// Set the per-iteration batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1);
        self.batch = batch;
        self
    }

    /// Set the comm-fabric flush threshold (`None` = flush only at loop /
    /// GVT boundaries; see [`comm_batch`](Self::comm_batch)).
    pub fn with_comm_batch(mut self, batch: Option<usize>) -> Self {
        self.comm_batch = batch;
        self
    }

    /// Inject deterministic faults at the inter-PE boundary (see
    /// [`fault_plan`](Self::fault_plan)).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Tune (or with `None` disable) the GVT stall watchdog (see
    /// [`gvt_stall_rounds`](Self::gvt_stall_rounds)).
    pub fn with_gvt_stall_rounds(mut self, rounds: Option<u64>) -> Self {
        self.gvt_stall_rounds = rounds;
        self
    }

    /// Abort the run if it exceeds this wall-clock budget (see
    /// [`deadline`](Self::deadline)).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replace the observability configuration (see [`obs`](Self::obs)).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Force the runtime auditor on or off (see [`audit`](Self::audit)),
    /// overriding both the build-profile default and `PDES_AUDIT`.
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Enable or disable the auditor's reverse-replay probe (see
    /// [`audit_probe`](Self::audit_probe)), overriding `PDES_AUDIT=fast`.
    pub fn with_audit_probe(mut self, on: bool) -> Self {
        self.audit_probe = on;
        self
    }

    /// Allow or forbid the windowed arm (see [`gvt_mode`](Self::gvt_mode)).
    pub fn with_gvt_mode(mut self, mode: GvtMode) -> Self {
        self.gvt_mode = mode;
        self
    }

    /// Cap each PE's event arena at `slots` payloads (see
    /// [`arena_slots`](Self::arena_slots)).
    pub fn with_arena_slots(mut self, slots: u32) -> Self {
        assert!(slots >= 1, "arena needs at least one slot");
        self.arena_slots = Some(slots);
        self
    }

    /// Test-only: swallow the nth child-cancellation on each PE (see
    /// [`audit_drop_anti`](Self::audit_drop_anti)).
    #[doc(hidden)]
    pub fn with_audit_drop_anti(mut self, nth: u64) -> Self {
        self.audit_drop_anti = Some(nth);
        self
    }

    /// Checkpoint every `n` GVT rounds (see
    /// [`checkpoint_every`](Self::checkpoint_every)).
    pub fn with_checkpoint_every(mut self, n: u64) -> Self {
        assert!(n >= 1, "checkpoint interval must be >= 1 round");
        self.checkpoint_every = Some(n);
        self
    }

    /// Disable checkpointing.
    pub fn without_checkpoints(mut self) -> Self {
        self.checkpoint_every = None;
        self
    }

    /// Set the snapshot directory (see
    /// [`checkpoint_dir`](Self::checkpoint_dir)).
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = dir.into();
        self
    }

    /// Check the configuration is self-consistent; both kernels call this
    /// before touching the model.
    pub fn validate(&self) -> Result<(), RunError> {
        if self.n_pes == 0 {
            return Err(RunError::config("need at least one PE"));
        }
        if self.n_pes >= crate::event::EventId::PE_LIMIT {
            // EventId packs the origin PE into 16 bits (one slot past the
            // real PEs is reserved for init events); beyond that, ids would
            // alias and anti-messages could annihilate the wrong event.
            return Err(RunError::config(format!(
                "PE count {} exceeds the EventId space (max {})",
                self.n_pes,
                crate::event::EventId::PE_LIMIT - 1
            )));
        }
        if self.n_kps == 0 {
            return Err(RunError::config("need at least one KP"));
        }
        if (self.n_kps as usize) < self.n_pes {
            return Err(RunError::config(format!(
                "need at least one KP per PE ({} KPs < {} PEs)",
                self.n_kps, self.n_pes
            )));
        }
        if self.gvt_interval == 0 {
            return Err(RunError::config("gvt_interval must be >= 1"));
        }
        if self.batch == 0 {
            return Err(RunError::config("batch must be >= 1"));
        }
        if self.comm_batch == Some(0) {
            return Err(RunError::config(
                "comm_batch must be >= 1 (or None for unbounded)",
            ));
        }
        if self.gvt_stall_rounds == Some(0) {
            return Err(RunError::config("gvt_stall_rounds must be >= 1 (or None)"));
        }
        if self.obs.progress_every == Some(0) {
            return Err(RunError::config(
                "obs.progress_every must be >= 1 (or None)",
            ));
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate().map_err(RunError::config)?;
        }
        if self.audit_drop_anti.is_some() && !self.audit {
            return Err(RunError::config(
                "audit_drop_anti is an auditor fault injection; it requires audit = true",
            ));
        }
        if self.checkpoint_every == Some(0) {
            return Err(RunError::config(
                "checkpoint_every must be >= 1 (or None to disable)",
            ));
        }
        if self.arena_slots == Some(0) {
            return Err(RunError::config(
                "arena_slots must be >= 1 (or None for the default)",
            ));
        }
        Ok(())
    }

    /// Whether a parallel run is barriered — Time Warp even where the
    /// windowed arm applies: it checkpoints, or sets [`GvtMode::Barrier`].
    pub(crate) fn barriered_gvt(&self) -> bool {
        match self.gvt_mode {
            GvtMode::Barrier => true,
            GvtMode::Auto => self.checkpoint_every.is_some(),
        }
    }
}

/// What the process environment contributes to [`EngineConfig::new`].
#[derive(Debug, Default, PartialEq)]
struct EnvDefaults {
    /// `PDES_TRACE`: flight recorder on.
    trace: bool,
    /// `PDES_AUDIT`: `(audit, audit_probe)`; `None` = the build's default.
    audit: Option<(bool, bool)>,
    /// `PDES_OBS_METRICS`: register the run (manifest + metrics stream).
    metrics_path: Option<PathBuf>,
    /// One stderr line per ignored variable.
    warnings: Vec<String>,
}

/// Map the process variables onto [`EnvDefaults`]. `vars` are all of the
/// process's `(name, value)` pairs rather than a lookup by name, because a
/// `PDES_*` name this engine does not read must be found to be reported: a
/// script still setting a variable that used to switch something would
/// otherwise get the default in silence. A malformed value warns the same
/// way and leaves its setting at the default.
fn env_defaults(vars: impl IntoIterator<Item = (String, String)>) -> EnvDefaults {
    let mut env = EnvDefaults::default();
    for (name, val) in vars {
        let on = match val.as_str() {
            "1" | "true" => Some(true),
            "0" | "false" => Some(false),
            _ => None,
        };
        let problem = match name.as_str() {
            "PDES_TRACE" => match on {
                Some(on) => {
                    env.trace = on;
                    None
                }
                None => Some("expected 1/true/0/false"),
            },
            "PDES_AUDIT" => match (on, val.as_str()) {
                (Some(on), _) => {
                    env.audit = Some((on, true));
                    None
                }
                (None, "fast") => {
                    env.audit = Some((true, false));
                    None
                }
                _ => Some("expected 1/true/0/false/fast"),
            },
            // An empty path is almost certainly a broken shell expansion.
            "PDES_OBS_METRICS" if val.is_empty() => Some("expected a file path"),
            "PDES_OBS_METRICS" => {
                env.metrics_path = Some(PathBuf::from(&val));
                None
            }
            _ if name.starts_with("PDES_") => {
                Some("not a variable this engine reads; configure the run in code")
            }
            _ => None,
        };
        if let Some(problem) = problem {
            env.warnings.push(format!(
                "pdes: warning: ignoring {name}={val:?} ({problem}); using the default"
            ));
        }
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = EngineConfig::new(VirtualTime::from_steps(100))
            .with_seed(7)
            .with_pes(4)
            .with_kps(32)
            .with_scheduler(SchedulerKind::Splay)
            .with_gvt_interval(256)
            .with_batch(8);
        assert_eq!(c.seed, 7);
        assert_eq!(c.n_pes, 4);
        assert_eq!(c.n_kps, 32);
        assert_eq!(c.scheduler, SchedulerKind::Splay);
        assert_eq!(c.gvt_interval, 256);
        assert_eq!(c.batch, 8);
        assert_eq!(c.end_time, VirtualTime::from_steps(100));
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        EngineConfig::new(VirtualTime::from_steps(1)).with_pes(0);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_inconsistency() {
        let c = EngineConfig::new(VirtualTime::from_steps(1));
        assert!(c.validate().is_ok());

        let mut fewer_kps_than_pes = c.clone().with_pes(8);
        fewer_kps_than_pes.n_kps = 4;
        assert!(fewer_kps_than_pes.validate().is_err());

        let bad_plan = c.clone().with_faults(FaultPlan::new(0).with_delay(2.0));
        assert!(bad_plan.validate().is_err());

        let good_plan = c.clone().with_faults(FaultPlan::new(0).with_delay(0.5));
        assert!(good_plan.validate().is_ok());

        assert!(c.clone().with_gvt_stall_rounds(Some(0)).validate().is_err());
        assert!(c.with_gvt_stall_rounds(None).validate().is_ok());
    }

    #[test]
    fn validate_rejects_event_id_overflow_and_bad_comm_batch() {
        let c = EngineConfig::new(VirtualTime::from_steps(1));
        let mut too_many_pes = c.clone();
        too_many_pes.n_pes = 1 << 16;
        too_many_pes.n_kps = u32::MAX;
        let err = too_many_pes.validate().unwrap_err();
        assert!(err.to_string().contains("EventId"), "got: {err}");

        assert!(c.clone().with_comm_batch(Some(0)).validate().is_err());
        assert!(c.clone().with_comm_batch(Some(1)).validate().is_ok());
        assert!(c.with_comm_batch(None).validate().is_ok());
    }

    #[test]
    fn checkpoint_builders_and_validation() {
        let c = EngineConfig::new(VirtualTime::from_steps(1))
            .with_checkpoint_every(4)
            .with_checkpoint_dir("/tmp/snaps");
        assert_eq!(c.checkpoint_every, Some(4));
        assert_eq!(c.checkpoint_dir, PathBuf::from("/tmp/snaps"));
        assert!(c.validate().is_ok());
        assert!(c.clone().without_checkpoints().checkpoint_every.is_none());
        let mut bad = c;
        bad.checkpoint_every = Some(0);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn gvt_mode_resolution_and_validation() {
        let c = EngineConfig::new(VirtualTime::from_steps(1)).with_gvt_mode(GvtMode::Auto);
        assert!(!c.clone().without_checkpoints().barriered_gvt());
        assert!(c.clone().with_checkpoint_every(4).barriered_gvt());
        assert!(c
            .clone()
            .with_gvt_mode(GvtMode::Barrier)
            .without_checkpoints()
            .barriered_gvt());
        assert!(c.with_checkpoint_every(4).validate().is_ok());
    }

    #[test]
    fn arena_slots_builder_and_validation() {
        let c = EngineConfig::new(VirtualTime::from_steps(1)).with_arena_slots(128);
        assert_eq!(c.arena_slots, Some(128));
        assert!(c.validate().is_ok());
        let mut bad = c;
        bad.arena_slots = Some(0);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_progress_interval() {
        let c = EngineConfig::new(VirtualTime::from_steps(1));
        let mut bad = c.clone();
        bad.obs.progress_every = Some(0);
        assert!(bad.validate().is_err());
        let good = c.with_obs(ObsConfig::verbose().with_progress_every(8));
        assert!(good.validate().is_ok());
        assert_eq!(good.obs.progress_every, Some(8));
    }

    /// A fake environment written the way `env` prints one: `NAME=value`
    /// pairs, whitespace-separated.
    fn env(vars: &str) -> EnvDefaults {
        env_defaults(vars.split_whitespace().map(|pair| {
            let (name, val) = pair.split_once('=').expect("NAME=value");
            (name.to_string(), val.to_string())
        }))
    }

    #[test]
    fn each_environment_variable_takes_effect() {
        assert_eq!(env("HOME=/home/user PATH=/bin"), EnvDefaults::default());
        let all = env("PDES_TRACE=1 PDES_AUDIT=fast PDES_OBS_METRICS=farm/a/metrics.jsonl");
        assert_eq!(
            all,
            EnvDefaults {
                trace: true,
                audit: Some((true, false)),
                metrics_path: Some(PathBuf::from("farm/a/metrics.jsonl")),
                warnings: Vec::new(),
            }
        );
        assert!(env("PDES_TRACE=true").trace);
        assert!(!env("PDES_TRACE=0").trace);
        assert_eq!(env("PDES_AUDIT=1").audit, Some((true, true)));
        assert_eq!(env("PDES_AUDIT=true").audit, Some((true, true)));
        assert_eq!(env("PDES_AUDIT=0").audit, Some((false, true)));
        assert_eq!(env("PDES_AUDIT=false").audit, Some((false, true)));
    }

    #[test]
    fn malformed_environment_values_warn_and_fall_back() {
        let bad = env("PDES_TRACE=yes PDES_AUDIT=quick PDES_OBS_METRICS=");
        assert_eq!(
            EnvDefaults {
                warnings: Vec::new(),
                ..bad
            },
            EnvDefaults::default()
        );
        assert_eq!(
            bad.warnings,
            [
                "pdes: warning: ignoring PDES_TRACE=\"yes\" (expected 1/true/0/false); using the default",
                "pdes: warning: ignoring PDES_AUDIT=\"quick\" (expected 1/true/0/false/fast); using the default",
                "pdes: warning: ignoring PDES_OBS_METRICS=\"\" (expected a file path); using the default",
            ]
        );
    }

    #[test]
    fn unread_environment_variables_warn_and_change_nothing() {
        let old = env("PDES_GVT=barrier PDES_CKPT=4 PDES_OBS_BLAME=0 PDESK=1");
        assert_eq!(old.warnings.len(), 3, "{:?}", old.warnings);
        for (warning, name) in
            old.warnings
                .iter()
                .zip(["PDES_GVT=", "PDES_CKPT=", "PDES_OBS_BLAME="])
        {
            assert!(warning.starts_with("pdes: warning: ignoring "), "{warning}");
            assert!(warning.contains(name), "{warning}");
            assert!(warning.contains("configure the run in code"), "{warning}");
        }
        assert_eq!(
            EnvDefaults {
                warnings: Vec::new(),
                ..old
            },
            EnvDefaults::default()
        );
    }

    /// The README's environment table is the user-facing list of what
    /// [`env_defaults`] reads: it must name exactly the variables this file
    /// matches on, and each of them must be accepted without a warning.
    #[test]
    fn readme_environment_table_matches_the_variables_read() {
        let is_name = |s: &str| {
            s.strip_prefix("PDES_").is_some_and(|rest| {
                !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_uppercase() || b == b'_')
            })
        };
        let listed: std::collections::BTreeSet<&str> = include_str!("../../../README.md")
            .lines()
            .filter_map(|line| line.strip_prefix("| `"))
            .map(|cell| cell.split(['=', '`']).next().unwrap_or(""))
            .filter(|name| is_name(name))
            .collect();
        // Every string literal in this file that is a whole variable name.
        let read: std::collections::BTreeSet<&str> = include_str!("config.rs")
            .split('"')
            .filter(|s| is_name(s))
            .collect();
        assert_eq!(listed, read, "README.md's environment table has drifted");
        for name in listed {
            let one = env(&format!("{name}=1"));
            assert!(one.warnings.is_empty(), "{name}: {:?}", one.warnings);
            assert_ne!(one, EnvDefaults::default(), "{name} changed nothing");
        }
    }
}
