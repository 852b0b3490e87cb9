//! Seeded mutations for the checker's self-test.
//!
//! Each [`Mutation`] re-introduces a realistic concurrency bug at an
//! existing facade call site (the production code consults this module only
//! under `cfg(mcheck)`; native builds compile the correct code with zero
//! overhead). `mcheck --self-test` activates them one at a time and asserts
//! the model suite reports a violation for every single one — proving the
//! checker would have caught these bugs had they been written for real.

use std::sync::atomic::{AtomicU8, Ordering};

/// A deliberately re-introduced concurrency bug.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// `SpscRing::try_push` publishes the head with `Relaxed` instead of
    /// `Release`: the consumer can observe the new head before the slot
    /// write — a data race on the slot cell.
    RingPublishRelaxed,
    /// `GvtRound::agree` samples the counters before B2 instead of after
    /// it: a PE that finished settling reads them while its peer still
    /// flushes or drains, and the two PEs disagree on `quiet`.
    QuiesceSampledBeforeB2,
    /// `Channel` drain drops the first spilled batch on the floor instead
    /// of re-queuing it: `in_flight` conservation breaks (a message is
    /// lost).
    SwallowSpill,
    /// `AbortableBarrier::abort` sets the flag but skips `notify_all`:
    /// a waiter already parked on the condvar is stranded forever.
    BarrierAbortNoNotify,
    /// The windowed arm's `hand_off` marks the window done before flushing
    /// its send buffers: a peer can pass the boundary before the last batch
    /// of the window lands in its ring.
    WindowDoneBeforeFlush,
    /// `WindowSync::publish` stores the done counter with `Relaxed` instead
    /// of `Release`: a peer that sees the window done can still read a
    /// stale report, or an empty ring.
    WindowDoneRelaxed,
    /// `WindowSync` keeps one report slot per PE instead of two: a PE that
    /// runs a window ahead overwrites the report a slower peer has yet to
    /// read, and the two agree on different minima.
    WindowOneSlot,
}

const ALL: [Mutation; 7] = [
    Mutation::RingPublishRelaxed,
    Mutation::QuiesceSampledBeforeB2,
    Mutation::SwallowSpill,
    Mutation::BarrierAbortNoNotify,
    Mutation::WindowDoneBeforeFlush,
    Mutation::WindowDoneRelaxed,
    Mutation::WindowOneSlot,
];

/// All known mutations, in self-test order.
pub fn all() -> &'static [Mutation] {
    &ALL
}

fn encode(m: Option<Mutation>) -> u8 {
    match m {
        None => 0,
        Some(Mutation::RingPublishRelaxed) => 1,
        Some(Mutation::QuiesceSampledBeforeB2) => 2,
        Some(Mutation::SwallowSpill) => 3,
        Some(Mutation::BarrierAbortNoNotify) => 4,
        Some(Mutation::WindowDoneBeforeFlush) => 5,
        Some(Mutation::WindowDoneRelaxed) => 6,
        Some(Mutation::WindowOneSlot) => 7,
    }
}

/// Currently active mutation, if any. Only the driver thread writes this,
/// between explorations; virtual threads only read it.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Activate `m` (or deactivate all with `None`) for subsequent explorations.
pub fn set(m: Option<Mutation>) {
    // ORDER: SeqCst — test-harness toggle on a quiescent checker; cost is
    // irrelevant and the strongest order keeps reasoning trivial.
    ACTIVE.store(encode(m), Ordering::SeqCst);
}

/// Is mutation `m` currently active?
pub fn active(m: Mutation) -> bool {
    // ORDER: SeqCst — pairs with the `set` store above.
    ACTIVE.load(Ordering::SeqCst) == encode(Some(m))
}

/// The ordering a mutated site should use: `Relaxed` when `m` is active,
/// otherwise the `natural` (correct) ordering written at the call site.
pub fn order_or_relaxed(m: Mutation, natural: Ordering) -> Ordering {
    if active(m) {
        Ordering::Relaxed
    } else {
        natural
    }
}

/// [`Mutation::SwallowSpill`] hook: drop the first re-queued spill batch.
pub fn maybe_swallow_spill<T>(spilled: &mut Vec<T>) {
    if active(Mutation::SwallowSpill) && !spilled.is_empty() {
        spilled.remove(0);
    }
}
