//! The repo benchmark: five multi-second workloads over the
//! `pdes` / `topo` / `hotpotato` stack, measured end to end (committed
//! events per second, time to solution, set-up time) with observability
//! dark, and layer by layer by outside probes and one traced pass.
//!
//! See `README.md` for the metric glossary and the protocol; `main.rs` is
//! the command line.

pub mod checker;
pub mod envrec;
pub mod metrics;
pub mod phold;
pub mod probes;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;
