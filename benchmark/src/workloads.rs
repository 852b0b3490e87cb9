//! The five workloads and the one function that runs a repetition of any
//! of them.
//!
//! Every parameter that shapes a run is written down here, in the
//! [`WORKLOADS`] table and in [`engine_config`]; nothing is read from the
//! environment.

use std::fmt::Debug;
use std::time::{Duration, Instant};

use hotpotato::{HotPotatoConfig, HotPotatoModel, NetStats};
use pdes::audit::AuditHasher;
use pdes::{
    EngineConfig, EngineStats, FaultPlan, GvtMode, LinearMapping, Mapping, Model, ObsConfig,
    RunResult, SchedulerKind, VirtualTime,
};
use topo::BlockMapping;

use crate::checker::CheckerMapping;
use crate::phold::{Phold, PholdOutput};
use crate::spans::Spans;

/// Seed used when `--seed` is not given; the golden digests are pinned for
/// this seed only.
pub const DEFAULT_SEED: u64 = 2001;

/// The model a workload simulates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ModelKind {
    /// `HotPotatoModel::torus`, BHW policy, `n × n` routers, a fraction
    /// `load` of them injecting.
    Torus { n: u32, load: f64 },
    /// The benchmark's own synthetic model.
    Phold(Phold),
}

/// How LPs are placed on PEs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapKind {
    /// `topo::BlockMapping`: rectangular tiles, few hops cross PEs.
    Block,
    /// [`CheckerMapping`]: every hop crosses PEs.
    Checker,
    /// `pdes::LinearMapping`: contiguous runs of LP ids.
    Linear,
}

/// The kernel a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kernel {
    /// `pdes::sequential`.
    Sequential,
    /// `pdes::parallel`.
    TimeWarp {
        pes: usize,
        kps: u32,
        map: MapKind,
        /// Optimism bound in steps past GVT (`EngineConfig::max_lookahead`).
        lookahead_steps: u64,
        /// `(delay, reorder)` probabilities of the inter-PE fault plan.
        faults: Option<(f64, f64)>,
    },
}

impl Kernel {
    /// Worker threads the kernel runs.
    pub fn threads(&self) -> usize {
        match self {
            Kernel::Sequential => 1,
            Kernel::TimeWarp { pes, .. } => *pes,
        }
    }
}

/// The plain 2-PE Time Warp configuration: block mapping, natural
/// lookahead, no faults.
pub const TW2: Kernel = Kernel::TimeWarp {
    pes: 2,
    kps: 64,
    map: MapKind::Block,
    lookahead_steps: 1,
    faults: None,
};

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What is simulated.
    pub model: ModelKind,
    /// Horizon in steps; sized so a repetition lasts about half a second here.
    pub steps: u64,
    /// What it runs on.
    pub kernel: Kernel,
    /// FNV-1a of the `Debug` rendering of the committed output at
    /// [`DEFAULT_SEED`].
    pub golden: u64,
}

impl Spec {
    /// The kernel whose committed output this workload's must equal: the
    /// sequential kernel for the parallel workloads, and the plain 2-PE
    /// Time Warp run of the same problem for the sequential one.
    pub fn oracle(&self) -> Kernel {
        match self.kernel {
            Kernel::Sequential => TW2,
            Kernel::TimeWarp { .. } => Kernel::Sequential,
        }
    }

    /// One line of parameters for `env.json`.
    pub fn describe(&self) -> String {
        format!("{:?} steps={} {:?}", self.model, self.steps, self.kernel)
    }
}

const TORUS32: ModelKind = ModelKind::Torus { n: 32, load: 0.4 };

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "torus32_seq",
        model: TORUS32,
        steps: 330,
        kernel: Kernel::Sequential,
        golden: 0x42b4_1765_0cca_d656,
    },
    Spec {
        name: "torus32_tw2",
        model: TORUS32,
        steps: 330,
        kernel: TW2,
        golden: 0x42b4_1765_0cca_d656,
    },
    Spec {
        name: "torus128_tw2",
        model: ModelKind::Torus { n: 128, load: 0.4 },
        steps: 16,
        kernel: TW2,
        golden: 0x8a72_95ef_37dc_d0bc,
    },
    Spec {
        name: "torus32_tw2_adverse",
        model: TORUS32,
        steps: 200,
        kernel: Kernel::TimeWarp {
            pes: 2,
            kps: 64,
            map: MapKind::Checker,
            lookahead_steps: 4,
            faults: Some((0.1, 0.5)),
        },
        golden: 0xd78b_30af_2585_afb8,
    },
    Spec {
        name: "phold_tw2",
        model: ModelKind::Phold(Phold {
            n_lps: 4096,
            tokens_per_lp: 8,
            remote_frac: 0.1,
        }),
        steps: 75,
        kernel: Kernel::TimeWarp {
            pes: 2,
            kps: 64,
            map: MapKind::Linear,
            lookahead_steps: 1,
            faults: None,
        },
        golden: 0xafc5_f2b0_2db6_e321,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// What the kernel's observability layer records during a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Obs {
    /// `ObsConfig::disabled()`: every end-to-end number is taken like this.
    Dark,
    /// The default telemetry with the phase profiler and blame on.
    Traced,
}

/// The engine configuration of one run. Every field is assigned: what
/// `EngineConfig::new` seeds from `PDES_*` variables (obs, audit,
/// checkpointing, GVT mode) is overwritten, and the tunables are pinned to
/// the values the workloads were sized with.
pub fn engine_config(kernel: &Kernel, end: VirtualTime, seed: u64, obs: Obs) -> EngineConfig {
    let mut c = EngineConfig::new(end);
    c.end_time = end;
    c.seed = seed;
    c.scheduler = SchedulerKind::default();
    c.gvt_interval = 1024;
    c.batch = 16;
    c.comm_batch = Some(8);
    c.gvt_stall_rounds = Some(1_000_000);
    // A wedged run becomes a counted failure, not a hung benchmark.
    c.deadline = Some(Duration::from_secs(60));
    c.obs = match obs {
        Obs::Dark => ObsConfig::disabled(),
        Obs::Traced => ObsConfig::default().with_profiler(true).with_blame(true),
    };
    c.audit = false;
    c.audit_probe = false;
    c.audit_drop_anti = None;
    c.checkpoint_every = None;
    c.checkpoint_dir = "benchmark-never-written".into();
    c.gvt_mode = GvtMode::Auto;
    c.arena_slots = None;
    match *kernel {
        Kernel::Sequential => {
            c.n_pes = 1;
            c.n_kps = 64;
            c.max_lookahead = None;
            c.fault_plan = None;
        }
        Kernel::TimeWarp {
            pes,
            kps,
            lookahead_steps,
            faults,
            ..
        } => {
            c.n_pes = pes;
            c.n_kps = kps;
            c.max_lookahead = Some(lookahead_steps * VirtualTime::STEP);
            c.fault_plan = faults.map(|(delay, reorder)| {
                FaultPlan::new(seed).with_delay(delay).with_reorder(reorder)
            });
        }
    }
    c
}

/// Simulated results a model reports; they must repeat exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sim {
    pub delivered: f64,
    pub avg_delivery_steps: f64,
    pub avg_inject_wait_steps: f64,
    pub deflection_rate: f64,
}

/// Model outputs the benchmark knows how to summarise.
pub trait SimOutput: Debug {
    fn sim(&self) -> Sim;
}

impl SimOutput for NetStats {
    fn sim(&self) -> Sim {
        Sim {
            delivered: self.totals.delivered as f64,
            avg_delivery_steps: self.avg_delivery_steps(),
            avg_inject_wait_steps: self.avg_inject_wait_steps(),
            deflection_rate: self.deflection_rate(),
        }
    }
}

impl SimOutput for PholdOutput {
    /// PHOLD routes no packets; its `sim.*` rows read 0.
    fn sim(&self) -> Sim {
        Sim::default()
    }
}

/// What one repetition produced.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Time to solution: model build, mapping build, kernel call, and drop
    /// of the result.
    pub wall_s: f64,
    /// FNV-1a of the `Debug` rendering of the committed output.
    pub digest: u64,
    /// Simulated results.
    pub sim: Sim,
    /// Engine counters (and the phase profile, when traced).
    pub stats: EngineStats,
}

/// FNV-1a over the `Debug` rendering — how `bench_pr7` digests outputs.
pub fn digest(output: &impl Debug) -> u64 {
    let mut h = AuditHasher::new();
    h.write_bytes(format!("{output:?}").as_bytes());
    h.finish()
}

/// How far a repetition simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Horizon {
    /// The workload's `steps`.
    Full,
    /// The *null run* that measures set-up: the identical model, mapping
    /// and engine configuration with a horizon of one tick, before the first
    /// event is due. What remains is LP init, stream seeding, initial
    /// scheduling, thread spawn and join, the final GVT and teardown. (A
    /// one-step horizon was tried first: four fifths of it is simulation.)
    Null,
}

/// Run one repetition of `spec`'s problem on `kernel`.
pub fn run_once(
    spec: &Spec,
    kernel: &Kernel,
    horizon: Horizon,
    seed: u64,
    obs: Obs,
    spans: &mut Spans,
) -> Result<Rep, String> {
    let t0 = Instant::now();
    let end_or = |full: VirtualTime| match horizon {
        Horizon::Full => full,
        Horizon::Null => VirtualTime(1),
    };
    let mut rep = spans.scope("rep", |spans| match spec.model {
        ModelKind::Torus { n, load } => {
            let model = spans.scope("model_build", |_| {
                HotPotatoModel::torus(HotPotatoConfig::new(n, spec.steps).with_injectors(load))
            });
            run_model(
                &model,
                end_or(model.end_time()),
                n,
                kernel,
                seed,
                obs,
                spans,
            )
        }
        ModelKind::Phold(phold) => {
            let model = spans.scope("model_build", |_| phold);
            let end = end_or(VirtualTime::from_steps(spec.steps));
            // PHOLD has no grid; only the linear mapping applies.
            run_model(&model, end, 0, kernel, seed, obs, spans)
        }
    })?;
    rep.wall_s = t0.elapsed().as_secs_f64();
    Ok(rep)
}

fn run_model<M>(
    model: &M,
    end: VirtualTime,
    grid_n: u32,
    kernel: &Kernel,
    seed: u64,
    obs: Obs,
    spans: &mut Spans,
) -> Result<Rep, String>
where
    M: Model,
    M::Output: SimOutput,
{
    let cfg = engine_config(kernel, end, seed, obs);
    let mut result: RunResult<M::Output> = match *kernel {
        Kernel::Sequential => spans.scope("kernel_run", |_| pdes::run_sequential(model, &cfg)),
        Kernel::TimeWarp { pes, kps, map, .. } => {
            let mapping: Box<dyn Mapping> = spans.scope("mapping_build", |_| match map {
                MapKind::Block => Box::new(BlockMapping::new(grid_n, kps, pes)) as Box<dyn Mapping>,
                MapKind::Checker => Box::new(CheckerMapping::new(grid_n, kps)),
                MapKind::Linear => Box::new(LinearMapping::new(model.n_lps(), kps, pes)),
            });
            spans.scope("kernel_run", |_| {
                pdes::run_parallel_mapped(model, &cfg, mapping.as_ref())
            })
        }
    }
    .map_err(|e| format!("{e}"))?;
    let digest = digest(&result.output);
    let sim = result.output.sim();
    let stats = std::mem::take(&mut result.stats);
    spans.scope("result_drop", |_| drop(result));
    Ok(Rep {
        wall_s: 0.0,
        digest,
        sim,
        stats,
    })
}
