//! Event envelopes, identities, and ordering keys.
//!
//! The kernel wraps every model message in an [`Event`] carrying the fields
//! Time Warp needs: a globally unique [`EventId`] (for anti-message
//! annihilation), source/destination LPs, send/receive timestamps, and a
//! model-supplied *tie-break* value. The total processing order is defined by
//! [`EventKey`] — **logical fields only**, never kernel-assigned ids — which
//! is what makes sequential and optimistic-parallel executions commit the
//! exact same order (the paper's repeatability result, Section 4.2.1).

use crate::arena::SlotRef;
use crate::obs::blame::CascadeTag;
use crate::time::VirtualTime;

/// Global logical-process number, `0 .. n_lps`.
pub type LpId = u32;

/// Kernel-process index within the whole simulation.
pub type KpId = u32;

/// Processing-element (worker thread) index.
pub type PeId = usize;

/// Globally unique event identity: origin PE in the high 16 bits, a per-PE
/// sequence number in the low 48. Re-sent events (after a rollback
/// re-executes their parent) get **fresh** ids, so an anti-message can never
/// cancel the wrong incarnation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub u64);

impl EventId {
    /// Exclusive upper bound on the PE index an id can encode (16 bits).
    /// Note the parallel kernel reserves one extra slot past the real PEs
    /// for init events, so configurations must keep
    /// `n_pes < PE_LIMIT` — enforced by
    /// [`EngineConfig::validate`](crate::config::EngineConfig::validate).
    pub const PE_LIMIT: PeId = 1 << 16;

    /// Exclusive upper bound on the per-PE sequence number (48 bits).
    pub const SEQ_LIMIT: u64 = 1 << 48;

    /// Compose an id from an origin PE and its local sequence counter.
    #[inline]
    pub fn new(pe: PeId, seq: u64) -> Self {
        debug_assert!(pe < Self::PE_LIMIT);
        debug_assert!(seq < Self::SEQ_LIMIT);
        EventId(((pe as u64) << 48) | seq)
    }

    /// Like [`new`](Self::new), but returns `None` instead of silently
    /// wrapping when either field exceeds its packed width. The kernel uses
    /// this on the allocation path so exhaustion surfaces as a contained
    /// failure instead of id aliasing in release builds.
    #[inline]
    pub fn try_new(pe: PeId, seq: u64) -> Option<Self> {
        (pe < Self::PE_LIMIT && seq < Self::SEQ_LIMIT).then_some(EventId(((pe as u64) << 48) | seq))
    }

    /// The PE that allocated this id.
    #[inline]
    pub fn origin_pe(self) -> PeId {
        (self.0 >> 48) as PeId
    }

    /// The per-PE sequence number.
    #[inline]
    pub fn seq(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }
}

/// Total ordering key for event processing.
///
/// Field order matters: receive time first, then destination LP, then the
/// model's tie-break, then provenance. All fields are *logical* — identical
/// across sequential and parallel runs — so every kernel commits the same
/// order. Models must ensure no two events in a *causally consistent*
/// execution share an identical key (the hot-potato model uses unique
/// per-packet ids as `tie`); the sequential kernel asserts this in debug
/// builds. The optimistic kernel additionally tolerates *transient*
/// duplicates from not-yet-cancelled stale branches, ordering them by
/// [`EventId`] (see the parallel-kernel module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    /// When the event is to be executed.
    pub recv_time: VirtualTime,
    /// The LP it executes at.
    pub dst: LpId,
    /// Model-supplied disambiguator (e.g. a packet id).
    pub tie: u64,
    /// The LP that scheduled it.
    pub src: LpId,
    /// When it was scheduled.
    pub send_time: VirtualTime,
}

/// A scheduled event: ordering key + unique id + model payload.
#[derive(Clone, Debug)]
pub struct Event<P> {
    /// Kernel identity (anti-message target).
    pub id: EventId,
    /// Processing-order key.
    pub key: EventKey,
    /// Model message content. The forward handler may mutate it to stash
    /// saved state for reverse computation (like ROSS's `M->Saved_*`).
    pub payload: P,
}

impl<P> Event<P> {
    /// Receive (execution) time.
    #[inline]
    pub fn recv_time(&self) -> VirtualTime {
        self.key.recv_time
    }

    /// Destination LP.
    #[inline]
    pub fn dst(&self) -> LpId {
        self.key.dst
    }
}

/// What actually travels through a scheduler: the frozen ordering data of
/// one pending event plus the arena slot holding its payload.
///
/// The key and id are *copies*, deliberately frozen at push time rather than
/// read through the arena on every comparison. The heap scheduler's lazy
/// deletion keeps tombstoned entries in its storage long after annihilation
/// has freed (and possibly reused) their slots; comparing through the arena
/// would then order a tombstone by some *other* event's key and corrupt the
/// heap. The default ladder queue deletes exactly and keeps no id maps, but
/// it sorts and bucket-scans these same frozen copies, which keeps those
/// passes off the arena's memory. Forty bytes of key and id ride along (the
/// entry is 48 with its slot); the payload itself never moves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueueEntry {
    /// Processing-order key (frozen copy).
    pub key: EventKey,
    /// Kernel identity (frozen copy; annihilation target).
    pub id: EventId,
    /// Where the payload lives until commit or annihilation.
    pub slot: SlotRef,
}

/// What the windowed arm's per-LP inboxes hold: a pending event's key and
/// its payload inline, with no id and no arena slot (a rollback-free run
/// never cancels, so nothing needs either; its keys are unique).
#[derive(Debug)]
pub(crate) struct InlineEntry<P> {
    /// Processing-order key.
    pub(crate) key: EventKey,
    /// Model message content, mutated in place by the forward handler.
    pub(crate) payload: P,
}

/// Reference to a child event sent by a processed event — everything a
/// rollback needs to dispatch an anti-message without holding the child.
#[derive(Clone, Copy, Debug)]
pub struct ChildRef {
    /// Child's unique id.
    pub id: EventId,
    /// Child's ordering key (locates it at the destination).
    pub key: EventKey,
}

/// ROSS-style per-event bitfield (`tw_bf`): 32 one-bit flags the forward
/// handler sets to record which branches it took, consulted by the reverse
/// handler. Cleared by the kernel before every forward execution.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Bitfield(pub u32);

impl Bitfield {
    /// Read flag `i` (0-based, `i < 32`).
    #[inline]
    pub fn get(self, i: u32) -> bool {
        debug_assert!(i < 32);
        self.0 & (1 << i) != 0
    }

    /// Set flag `i` to `v`.
    #[inline]
    pub fn set(&mut self, i: u32, v: bool) {
        debug_assert!(i < 32);
        if v {
            self.0 |= 1 << i;
        } else {
            self.0 &= !(1 << i);
        }
    }

    /// Clear all flags (kernel use).
    #[inline]
    pub fn clear(&mut self) {
        self.0 = 0;
    }
}

/// A message between PEs: either a freshly scheduled event or an
/// anti-message cancelling one.
#[derive(Clone, Debug)]
pub enum Remote<P> {
    /// A positive event to enqueue (and possibly roll back for, if it is a
    /// straggler).
    Positive(Event<P>),
    /// Cancel the event with this id/key (annihilate it, rolling back if it
    /// was already processed). The [`CascadeTag`] links any secondary
    /// rollback this triggers into the sender's blame cascade
    /// ([`CascadeTag::NONE`] when forensics are off) — antis only exist on
    /// rollback paths, so the positive-event wire cost is unchanged.
    Anti(ChildRef, CascadeTag),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_id_packs_and_unpacks() {
        let id = EventId::new(3, 0xABCDEF);
        assert_eq!(id.origin_pe(), 3);
        assert_eq!(id.seq(), 0xABCDEF);
    }

    #[test]
    fn try_new_rejects_out_of_range_fields() {
        assert!(EventId::try_new(EventId::PE_LIMIT - 1, EventId::SEQ_LIMIT - 1).is_some());
        assert!(EventId::try_new(EventId::PE_LIMIT, 0).is_none());
        assert!(EventId::try_new(0, EventId::SEQ_LIMIT).is_none());
    }

    /// The sizes the scheduler and KP docs quote.
    #[test]
    fn handle_sizes_are_as_documented() {
        assert_eq!(std::mem::size_of::<EventKey>(), 32);
        assert_eq!(std::mem::size_of::<QueueEntry>(), 48);
        assert_eq!(std::mem::size_of::<ChildRef>(), 40);
    }

    #[test]
    fn key_orders_by_time_first() {
        let k = |t: u64, dst: u32, tie: u64| EventKey {
            recv_time: VirtualTime(t),
            dst,
            tie,
            src: 0,
            send_time: VirtualTime::ZERO,
        };
        assert!(k(1, 9, 9) < k(2, 0, 0));
        assert!(k(1, 1, 5) < k(1, 2, 0));
        assert!(k(1, 1, 5) < k(1, 1, 6));
    }

    #[test]
    fn bitfield_flags_are_independent() {
        let mut bf = Bitfield::default();
        bf.set(0, true);
        bf.set(17, true);
        assert!(bf.get(0));
        assert!(bf.get(17));
        assert!(!bf.get(1));
        bf.set(0, false);
        assert!(!bf.get(0) && bf.get(17));
        bf.clear();
        assert_eq!(bf, Bitfield::default());
    }
}
