//! # pdes — an optimistic parallel discrete-event simulation engine
//!
//! A from-scratch Rust reimplementation of the ROSS architecture
//! (Rensselaer's Optimistic Simulation System) that the paper *"Routing
//! without Flow Control — Hot-Potato Routing Simulation Analysis"* runs its
//! experiments on:
//!
//! * **Logical processes (LPs)** implement a [`Model`]: a forward event
//!   handler plus a *reverse* handler (reverse computation) instead of state
//!   saving.
//! * **Kernel processes (KPs)** group LPs into rollback granules
//!   ([`kp`]).
//! * **Processing elements (PEs)** are worker threads executing events
//!   optimistically; stragglers and anti-messages trigger rollbacks
//!   ([`parallel`]).
//! * **GVT** (global virtual time) is computed by a Fujimoto-style
//!   barriered reduction, after which events are committed and
//!   fossil-collected. A model that declares an epoch runs rollback-free
//!   instead by default, one window at a time (see [`GvtMode`] and
//!   [`EngineConfig::max_lookahead`]).
//! * **Reversible RNG** streams ([`rng`]) let rollbacks un-step every random
//!   draw exactly (ROSS's `tw_rand_reverse_unif`).
//! * A **sequential kernel** ([`sequential`]) with identical semantics is
//!   the determinism oracle: both kernels commit the same total event order
//!   and produce bit-identical model outputs.
//! * Every run starts through one builder, [`Run`]: `Run::new(&model,
//!   &config)`, optionally `.sequential()`, `.mapping(..)`,
//!   `.state_saving()`, `.resume(&snapshot)` and `.supervised(policy)` in
//!   any combination, then `.go()`.
//!
//! ## Quick example
//!
//! ```
//! use pdes::prelude::*;
//!
//! /// Each LP forwards a token around a ring once per step.
//! struct Ring {
//!     n: u32,
//! }
//!
//! #[derive(Clone, Debug)]
//! struct Token;
//!
//! #[derive(Default)]
//! struct Hops(u64);
//! impl Merge for Hops {
//!     fn merge(&mut self, other: Self) {
//!         self.0 += other.0;
//!     }
//! }
//!
//! impl Model for Ring {
//!     type State = u64;
//!     type Payload = Token;
//!     type Output = Hops;
//!
//!     fn n_lps(&self) -> u32 {
//!         self.n
//!     }
//!     fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, Token>) -> u64 {
//!         if lp == 0 {
//!             ctx.schedule_at(0, VirtualTime::from_steps(1), 0, Token);
//!         }
//!         0
//!     }
//!     fn handle(&self, hops: &mut u64, _t: &mut Token, ctx: &mut EventCtx<'_, Token>) {
//!         *hops += 1;
//!         ctx.schedule((ctx.lp() + 1) % self.n, VirtualTime::STEP, 0, Token);
//!     }
//!     fn reverse(&self, hops: &mut u64, _t: &mut Token, _ctx: &ReverseCtx) {
//!         *hops -= 1;
//!     }
//!     fn finish(&self, _lp: LpId, hops: &u64, out: &mut Hops) {
//!         out.0 += *hops;
//!     }
//! }
//!
//! let model = Ring { n: 4 };
//! let config = EngineConfig::new(VirtualTime::from_steps(10)).with_pes(2);
//! let seq = Run::new(&model, &config).sequential().go().unwrap();
//! let par = Run::new(&model, &config).go().unwrap();
//! assert_eq!(seq.output.0, 9);
//! assert_eq!(par.output.0, 9);
//! ```
//!
//! [`Run::go`] returns `Result<RunResult, RunError>`: an invalid
//! configuration, an audit violation, an exhausted arena or a failed
//! checkpoint is a structured [`RunError`](error::RunError) with per-PE
//! diagnostics on either kernel. Only the parallel kernel contains panics
//! and stalls (every PE runs under `catch_unwind` and a liveness watchdog:
//! `PePanic` / `GvtStalled`, never a deadlock or a process abort); a model
//! panic on the sequential kernel propagates to the caller. The [`fault`]
//! module can inject deterministic message delays, duplicates, and reorders
//! at the inter-PE boundary to prove the rollback machinery absorbs them
//! (committed output stays bit-identical to the sequential run).

// All `unsafe` in this crate lives in `comm` (the lock-free SPSC rings) and
// the `sync` facade's `MCell` accessors they are built on; every block must
// carry a `// SAFETY:` comment, and unsafe operations inside `unsafe fn`
// bodies still need their own explicit blocks. Atomic operations carry an
// analogous `// ORDER:` justification, enforced by `lint_atomics`.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod arena;
pub mod audit;
pub mod ckpt;
mod comm;
pub mod config;
pub mod error;
pub mod event;
pub mod fault;
mod gvt;
mod hash;
pub mod kp;
mod lifecycle;
pub mod mapping;
#[cfg(mcheck)]
pub mod mcheck;
pub mod model;
pub mod obs;
pub mod parallel;
pub mod pool;
pub mod rng;
mod run;
pub mod scheduler;
pub mod sequential;
pub mod stats;
mod sync;
pub mod time;

/// One-stop imports for writing and running models.
pub mod prelude {
    pub use crate::arena::{EventArena, SlotRef};
    pub use crate::audit::{AuditCheck, AuditHasher, AuditViolation};
    pub use crate::ckpt::{
        list_snapshots, read_snapshot, CkptError, CkptReader, CkptWriter, Snapshot,
        SupervisorPolicy,
    };
    pub use crate::config::{EngineConfig, GvtMode};
    pub use crate::error::{PeDiagnostics, RunDiagnostics, RunError};
    pub use crate::event::{Bitfield, KpId, LpId, PeId};
    pub use crate::fault::FaultPlan;
    pub use crate::mapping::{LinearMapping, Mapping};
    pub use crate::model::{EventCtx, InitCtx, Merge, Model, ReverseCtx};
    pub use crate::obs::agg::{Heartbeat, RunManifest, RunPhase};
    pub use crate::obs::blame::{BlameCell, BlameReport, CascadeCause, CascadeRec, CascadeTag};
    pub use crate::obs::prof::{Phase, PhaseProfile, PhaseStats};
    pub use crate::obs::trace::{HopEmit, HopRecord, PacketTrace, TRACE_UNBOUNDED};
    pub use crate::obs::{
        JsonlSink, MemorySink, MetricsSink, NullSink, ObsConfig, RecorderSummary, RoundSnapshot,
        Telemetry,
    };
    pub use crate::parallel::run_parallel_mapped;
    pub use crate::rng::ReversibleRng;
    pub use crate::run::Run;
    pub use crate::scheduler::SchedulerKind;
    pub use crate::sequential::run_sequential;
    pub use crate::stats::{EngineStats, RunResult};
    pub use crate::time::VirtualTime;
}

pub use prelude::*;
