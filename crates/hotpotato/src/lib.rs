//! # hotpotato — routing without flow control
//!
//! A faithful implementation of the Busch–Herlihy–Wattenhofer dynamic
//! hot-potato (deflection) routing algorithm (SPAA 2001) and of the
//! discrete-event simulation study built around it (*"Routing without Flow
//! Control — Hot-Potato Routing Simulation Analysis"*).
//!
//! Hot-potato routing targets buffer-less networks (e.g. optical label
//! switching): a router cannot store packets, so every packet that arrives
//! at the start of a synchronous step must leave on *some* link by the end
//! of it — preferably a **good link** (closer to its destination), otherwise
//! it is **deflected**. The BHW algorithm adds four packet priority states
//! (Sleeping → Active → Excited → Running) with probabilistic promotions;
//! Excited/Running packets commit to their one-bend **home-run path**, which
//! yields expected O(N) delivery and injection times on an N×N grid without
//! any flow-control mechanism.
//!
//! The crate provides:
//!
//! * [`HotPotatoModel`] — the router model, implementing
//!   [`pdes::Model`](pdes::model::Model) with full reverse computation so it
//!   runs on both pdes kernels (sequential and optimistic Time Warp);
//! * [`PolicyKind`] — the BHW algorithm plus greedy / oldest-first /
//!   dimension-order baselines;
//! * [`NetStats`] — delivery-time, injection-wait and deflection statistics
//!   (the paper's Figures 3 and 4);
//! * [`HotPotatoModel::run`] — a [`pdes::Run`] with the model's horizon and
//!   the paper's block mapping already set.
//!
//! ## Quick example
//!
//! ```
//! use hotpotato::{HotPotatoConfig, HotPotatoModel};
//! use pdes::EngineConfig;
//!
//! // An 8×8 torus, everything injecting, 200 steps.
//! let cfg = HotPotatoConfig::new(8, 200);
//! let model = HotPotatoModel::torus(cfg);
//! let engine = EngineConfig::new(model.end_time()).with_seed(42);
//! // Runs return `Result<RunResult, RunError>`; a healthy config succeeds.
//! let result = model.run(&engine).sequential().go().unwrap();
//! let net = result.output;
//! assert!(net.totals.delivered > 0);
//! // O(N) delivery: the average is a small multiple of the ~N/2 distance.
//! assert!(net.avg_delivery_steps() < 8.0 * 8.0);
//! ```

pub mod config;
pub mod model;
pub mod msg;
pub mod packet;
pub mod policy;
pub mod router;
pub mod stats;
pub mod timing;

pub use config::HotPotatoConfig;
pub use model::HotPotatoModel;
pub use msg::Msg;
pub use packet::{Packet, PacketId, Priority};
pub use policy::{PolicyKind, RouteDecision};
pub use router::RouterState;
pub use stats::{NetStats, RouterStats};
