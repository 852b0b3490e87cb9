//! # mcheck — in-tree concurrency model checker (compiled under `--cfg mcheck`)
//!
//! A dependency-free loom/CHESS-style stateless model checker for the
//! crate's lock-free protocols. The `sync` facade types ([`crate::sync`])
//! route every atomic load/store/RMW, `MCell` access, and mutex/condvar
//! operation through [`rt`] when a model context is active; the explorer
//! then enumerates thread interleavings **and** weak-memory read-from
//! choices exhaustively (up to configurable bounds), replaying each
//! schedule deterministically from a DFS decision stack.
//!
//! What the checker models:
//!
//! * **Scheduling** — cooperative virtual threads over real OS threads.
//!   Exactly one virtual thread runs between decision points; every facade
//!   operation is a decision point. Pruning: sleep sets (a DPOR-lite) and a
//!   CHESS-style preemption bound (switches at explicit `yield_now` calls
//!   and at blocking operations are free).
//! * **Weak memory** — per-location store histories. A load may read any
//!   sufficiently-recent store permitted by coherence (the thread's
//!   per-location view), bounded by `max_read_depth`. Release stores
//!   capture the writer's view + vector clock; acquire loads that read
//!   them join both, which is what makes message-passing publication
//!   (`SpscRing`) come out racy under `Relaxed` and clean under
//!   `Release`/`Acquire`. RMWs always read the latest store and continue
//!   release sequences. `SeqCst` is approximated as acquire-release plus a
//!   per-location floor (no global S order across locations — see
//!   DESIGN.md for the gap list).
//! * **Races** — a vector-clock happens-before detector over `MCell`
//!   accesses (the ring slots). Unsynchronised write/write or read/write
//!   pairs abort the schedule with the full interleaving.
//! * **Deadlocks** — schedules where unfinished virtual threads exist but
//!   none is enabled (e.g. a condvar waiter nobody will notify) are
//!   reported with every thread's pending operation.
//!
//! [`models`] holds the protocol scenarios (ring transfer, spill/drain
//! conservation, Time Warp's GVT quiescence check, abortable barrier, the
//! windowed arm's hand-off) with their ground-truth invariants, and
//! [`mutation`] the seeded bugs the `mcheck --self-test` runner proves the
//! checker catches.
//!
//! Run it via the bench crate's `mcheck` binary:
//!
//! ```text
//! RUSTFLAGS="--cfg mcheck" CARGO_TARGET_DIR=target/mcheck \
//!     cargo run --release -p bench --bin mcheck -- --out artifacts/mcheck.json
//! ```

pub mod models;
pub mod mutation;
pub mod rt;
