//! [`Run`]: the one way to start a run, on either kernel.

use crate::ckpt::{self, Snapshot, SupervisorPolicy};
use crate::config::EngineConfig;
use crate::error::RunError;
use crate::mapping::{LinearMapping, Mapping};
use crate::model::Model;
use crate::parallel::{self, window, SnapshotFn};
use crate::sequential;
use crate::stats::RunResult;

/// A run of a model under a config. Every other choice is an optional
/// builder step — the kernel (`.sequential()`), the LP→KP→PE layout
/// (`.mapping(..)`), the rollback mechanism (`.state_saving()`), the frame
/// to start from (`.resume(..)`), crash recovery (`.supervised(..)`) — in
/// any combination; [`go`](Run::go) starts it.
#[must_use = "a Run does nothing until `.go()`"]
pub struct Run<'a, M: Model> {
    model: &'a M,
    config: EngineConfig,
    /// `None` = contiguous [`LinearMapping`] from the config's counts.
    mapping: Option<Box<dyn Mapping + 'a>>,
    snapshot_fn: SnapshotFn<M>,
    resume: Option<&'a Snapshot>,
    supervisor: Option<SupervisorPolicy>,
    sequential: bool,
}

impl<'a, M: Model> Run<'a, M> {
    /// A run of `model` under (a copy of) `config`: by default on the
    /// optimistic kernel, with reverse computation, from time zero, over a
    /// contiguous [`LinearMapping`] of the config's PE and KP counts.
    pub fn new(model: &'a M, config: &EngineConfig) -> Self {
        Run {
            model,
            config: config.clone(),
            mapping: None,
            snapshot_fn: None,
            resume: None,
            supervisor: None,
            sequential: false,
        }
    }

    /// Lay the LPs out over KPs and PEs with `mapping` (e.g. the torus block
    /// mapping from the `topo` crate) instead of the linear default. The
    /// mapping is validated when the run starts, after the config; the
    /// sequential kernel ignores it.
    pub fn mapping(mut self, mapping: impl Mapping + 'a) -> Self {
        self.mapping = Some(Box::new(mapping));
        self
    }

    /// Continue from a checkpoint [`Snapshot`] instead of time zero. The
    /// snapshot is checked against the model and config (seed, horizon, LP
    /// count, every LP's audit fingerprint) before anything runs, and the
    /// committed suffix is bit-identical to an uninterrupted run's on either
    /// kernel and any PE count (see [`ckpt`](crate::ckpt)).
    pub fn resume(mut self, snap: &'a Snapshot) -> Self {
        self.resume = Some(snap);
        self
    }

    /// Recover from crashes: on a [`PePanic`](RunError::PePanic) or
    /// [`GvtStalled`](RunError::GvtStalled), resume from the newest intact
    /// snapshot in [`EngineConfig::checkpoint_dir`] — or restart cold — up
    /// to `policy.max_retries` times. The recovery lands in the result's
    /// `recovery_retries` / `restores_*` stats and
    /// [`Telemetry::resumed_rounds`](crate::obs::Telemetry::resumed_rounds).
    pub fn supervised(mut self, policy: SupervisorPolicy) -> Self {
        self.supervisor = Some(policy);
        self
    }

    /// Run on the sequential reference kernel (the determinism oracle).
    pub fn sequential(mut self) -> Self {
        self.sequential = true;
        self
    }

    /// Start the run and wait for it. The config is validated once, an
    /// unset optimism bound becomes the model's epoch once (see
    /// [`max_lookahead`](EngineConfig::max_lookahead)), a
    /// [`resume`](Run::resume) snapshot is restored once, and an instrumented
    /// run is registered once, however many attempts supervision takes.
    pub fn go(mut self) -> Result<RunResult<M::Output>, RunError> {
        self.config.validate()?;
        let n_lps = self.model.n_lps();
        if n_lps == 0 {
            return Err(RunError::config("model has no LPs"));
        }
        if self.config.max_lookahead.is_none() {
            self.config.max_lookahead = self.model.epoch().filter(|&e| e > 0);
        }
        if self.snapshot_fn.is_some()
            && (self.sequential || window::window_epoch(self.model, &self.config).is_some())
        {
            return Err(RunError::config(
                "state saving is a rollback mechanism; this run never rolls back \
                 (sequential kernel, or a bound within the model's epoch)",
            ));
        }
        let frame = self
            .resume
            .map(|snap| ckpt::restore(self.model, &self.config, snap))
            .transpose()?;
        let kernel = if self.sequential {
            "sequential"
        } else {
            "parallel"
        };
        let config = crate::obs::agg::instrument(&self.config, n_lps as u64, kernel)?;
        // `None` exactly when the kernel is sequential: it has no PEs.
        let mapping = (!self.sequential).then(|| {
            self.mapping
                .unwrap_or_else(|| Box::new(LinearMapping::new(n_lps, config.n_kps, config.n_pes)))
        });
        let attempt = |config: &EngineConfig, frame| match &mapping {
            None => sequential::run_sequential_inner(self.model, config, frame),
            Some(mapping) => parallel::run_parallel_inner(
                self.model,
                config,
                mapping.as_ref(),
                self.snapshot_fn,
                frame,
            ),
        };
        match self.supervisor {
            None => attempt(&config, frame),
            Some(policy) => ckpt::supervise(self.model, &config, &policy, frame, attempt),
        }
    }
}

impl<M: Model> Run<'_, M>
where
    M::State: Clone,
{
    /// Roll back by **state saving** instead of reverse computation: the
    /// kernel copies `(state, RNG)` before every event and restores the copy
    /// on rollback, never calling [`Model::reverse`]. This is the Georgia
    /// Tech Time Warp approach that ROSS's reverse computation replaced
    /// (paper Section 3.2.1), kept as the ablation baseline (experiment
    /// E12). Time Warp only: with [`sequential`](Run::sequential), or on a
    /// run that takes the rollback-free windowed arm (an optimism bound
    /// within the model's epoch, which is the default for a model that
    /// declares one), [`go`](Run::go) returns [`RunError::ConfigInvalid`].
    pub fn state_saving(mut self) -> Self {
        self.snapshot_fn = Some(|state, rng| (state.clone(), *rng));
        self
    }
}
