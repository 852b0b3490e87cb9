//! Rollback forensics: cascade attribution, the blame matrix, and the
//! wasted-work ledger.
//!
//! [`EngineStats`](crate::stats::EngineStats) counts *that* the optimistic
//! kernel rolled back; this module records *why*. Every rollback links into
//! exactly one **cascade**:
//!
//! * A **straggler** positive message arriving in a KP's past opens a root
//!   cascade record attributed to the LP that sent it (cause
//!   [`CascadeCause::Straggler`]).
//! * The pre-checkpoint capture unwind opens a root per KP it rewinds
//!   (cause [`CascadeCause::Capture`], origin LP = the
//!   [`CAPTURE_LP`] sentinel — kernel-initiated, no model LP to blame).
//! * Every **secondary** rollback (an anti-message landing on an already
//!   executed event) links into the cascade whose rollback sent that anti.
//!   Locally the link rides the tracker's rollback stack; across PEs it
//!   rides a [`CascadeTag`] on the anti-message wire format, so a cascade
//!   that hops PEs keeps one identity. A receiving PE materialises the
//!   remote cascade as a *fragment* record ([`CascadeCause::Fragment`])
//!   under the root's id; the end-of-run merge folds fragments into their
//!   roots (widths sum — victim KPs are PE-partitioned and therefore
//!   disjoint; depth takes the max).
//!
//! Three outputs, all on [`BlameReport`]:
//!
//! * **Cascade records** — per cascade: cause, origin LP/KP, link depth,
//!   width (distinct victim KPs), events undone, re-executed events, remote
//!   antis sent, and the virtual-time span (for the Chrome flow export).
//! * **Blame matrix** — per (origin LP → victim KP): rollback count, events
//!   undone, and a log₂ histogram of the straggler's send-time lag behind
//!   the victim's LVT (how *stale* the message that hurt us was).
//! * **Wasted-work ledger** — cascades priced in nanoseconds by reusing the
//!   phase profiler's per-phase mean costs: `undone × mean(Reverse) +
//!   remote antis × mean(AntiSend)`, plus re-execution at `mean(Execute)`.
//!   Since every undone event runs exactly one `Reverse` scope and every
//!   remote anti exactly one `AntiSend` scope, the ledger total equals the
//!   profiler's `est_total_ns` for those phases up to one integer-division
//!   rounding per event (≤ 1 ns each — the documented sampling error).
//!
//! The scalar totals (`events_undone`, `secondary_links`, …) are exact and
//! reconcile 1:1 with the legacy `EngineStats` counters; the bounded
//! per-cascade record store degrades by *dropping detail records* (counted
//! in `records_dropped`), never by miscounting totals.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{EventId, KpId, LpId, PeId};
use crate::hash::FastMap;

use super::prof::{Phase, PhaseProfile};

/// Origin-LP sentinel for kernel-initiated (checkpoint capture) cascades:
/// there is no model LP to blame, and the blame matrix excludes them.
pub const CAPTURE_LP: LpId = LpId::MAX;

/// Upper bound on per-PE cascade detail records. A pathological rollback
/// storm past this keeps exact scalar totals but drops per-cascade detail
/// (counted in [`BlameReport::records_dropped`]).
pub const MAX_RECORDS: usize = 65_536;

/// Histogram buckets (log₂): bucket `i` counts values in `[2^i, 2^(i+1))`,
/// bucket 0 additionally holds zero, the last bucket is open-ended.
pub const N_BUCKETS: usize = 8;

/// Log₂ bucket index shared by every blame histogram (same shape as
/// [`EngineStats::rollback_lengths`](crate::stats::EngineStats)).
#[inline]
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (63 - v.leading_zeros() as usize).min(N_BUCKETS - 1)
    }
}

/// Cascade identity + linkage carried by every anti-message: the id of the
/// root cascade, the LP blamed for it, and the link depth of the rollback
/// that sent this anti (the receiver's secondary rollback links one deeper).
///
/// Sixteen bytes riding a message type that only exists during rollback —
/// the positive-event path is untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CascadeTag {
    /// Root cascade id (`origin PE << 48 | per-PE sequence`, sequences start
    /// at 1 so `0` is reserved for [`NONE`](Self::NONE)).
    pub root: u64,
    /// LP blamed for the root ([`CAPTURE_LP`] for capture cascades).
    pub origin_lp: LpId,
    /// Link depth of the sending rollback (root = 0).
    pub depth: u32,
}

impl CascadeTag {
    /// The untagged sentinel (blame layer disabled).
    pub const NONE: CascadeTag = CascadeTag {
        root: 0,
        origin_lp: CAPTURE_LP,
        depth: 0,
    };

    /// Whether this is the [`NONE`](Self::NONE) sentinel.
    #[inline]
    pub fn is_none(&self) -> bool {
        self.root == 0
    }
}

/// Why a cascade record exists.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum CascadeCause {
    /// Receiver-side fragment of a cascade rooted on another PE (folded
    /// into its root at merge; survives only if the root record was
    /// dropped by the [`MAX_RECORDS`] bound).
    #[default]
    Fragment,
    /// A straggler positive message arrived in a KP's past.
    Straggler,
    /// The pre-checkpoint capture unwind to the snapshot horizon.
    Capture,
}

impl CascadeCause {
    /// Stable lowercase name (JSON / report tables).
    pub fn name(self) -> &'static str {
        match self {
            CascadeCause::Fragment => "fragment",
            CascadeCause::Straggler => "straggler",
            CascadeCause::Capture => "capture",
        }
    }
}

/// One cascade's merged accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CascadeRec {
    /// Why it opened (root cause; `Fragment` only if the root was dropped).
    pub cause: CascadeCause,
    /// LP blamed ([`CAPTURE_LP`] for capture cascades).
    pub origin_lp: LpId,
    /// Victim KP of the root rollback.
    pub origin_kp: KpId,
    /// Virtual time (ticks) of the root rollback's bound.
    pub root_vt: u64,
    /// Maximum link depth reached (root = 0).
    pub depth: u32,
    /// Rollbacks linked in (root + secondaries).
    pub rollbacks: u64,
    /// Distinct victim KPs hit (PE-disjoint, so merge sums).
    pub width: u64,
    /// Events reverse-executed across all linked rollbacks.
    pub events_undone: u64,
    /// Undone events later forward-executed again.
    pub events_reexec: u64,
    /// Anti-messages this cascade pushed across a PE boundary.
    pub antis_remote: u64,
    /// Victim KP of the deepest link (Chrome flow endpoint).
    pub last_kp: KpId,
    /// Virtual time (ticks) of the deepest link's bound.
    pub last_vt: u64,
}

impl CascadeRec {
    /// Fold another PE's record for the *same cascade id* into this one.
    fn fold(&mut self, other: &CascadeRec) {
        // The root record carries the authoritative cause/origin; a
        // fragment yields them regardless of merge order.
        if self.cause == CascadeCause::Fragment && other.cause != CascadeCause::Fragment {
            self.cause = other.cause;
            self.origin_lp = other.origin_lp;
            self.origin_kp = other.origin_kp;
            self.root_vt = other.root_vt;
        }
        // Deepest link wins the flow endpoint; the (depth, vt, kp) ordering
        // makes the choice associative and commutative.
        if (other.depth, other.last_vt, other.last_kp) > (self.depth, self.last_vt, self.last_kp) {
            self.last_kp = other.last_kp;
            self.last_vt = other.last_vt;
        }
        self.depth = self.depth.max(other.depth);
        self.rollbacks += other.rollbacks;
        self.width += other.width;
        self.events_undone += other.events_undone;
        self.events_reexec += other.events_reexec;
        self.antis_remote += other.antis_remote;
    }

    /// Wasted nanoseconds this cascade cost, priced at the profiler's mean
    /// per-scope costs (zero when the profiler was off).
    pub fn wasted_ns(&self, prof: &PhaseProfile) -> u64 {
        self.events_undone
            .saturating_mul(prof.phases[Phase::Reverse as usize].mean_ns())
            .saturating_add(
                self.antis_remote
                    .saturating_mul(prof.phases[Phase::AntiSend as usize].mean_ns()),
            )
    }

    /// Re-execution nanoseconds (forward work repeated because of this
    /// cascade), priced at the mean `Execute` scope cost.
    pub fn reexec_ns(&self, prof: &PhaseProfile) -> u64 {
        self.events_reexec
            .saturating_mul(prof.phases[Phase::Execute as usize].mean_ns())
    }
}

/// One (origin LP → victim KP) cell of the blame matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlameCell {
    /// Rollbacks this origin LP inflicted on this KP.
    pub rollbacks: u64,
    /// Events those rollbacks undid.
    pub events_undone: u64,
    /// Log₂ histogram of the triggering message's send-time lag behind the
    /// victim KP's LVT (ticks) — how stale the damage was.
    pub lag_hist: [u64; N_BUCKETS],
}

impl BlameCell {
    fn fold(&mut self, other: &BlameCell) {
        self.rollbacks += other.rollbacks;
        self.events_undone += other.events_undone;
        for (a, b) in self.lag_hist.iter_mut().zip(&other.lag_hist) {
            *a += b;
        }
    }
}

/// Sealed rollback forensics for one PE — or, after
/// [`merge`](Self::merge), the whole run. Lives on
/// [`EngineStats::blame`](crate::stats::EngineStats::blame); structurally
/// empty under the sequential kernel and when
/// [`ObsConfig::blame_enabled`](crate::obs::ObsConfig::blame_enabled) is off.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlameReport {
    /// Straggler-rooted cascades opened.
    pub cascades_straggler: u64,
    /// Capture-rooted cascades opened (pre-checkpoint unwinds).
    pub cascades_capture: u64,
    /// Secondary rollbacks linked into a cascade (== the legacy
    /// `secondary_rollbacks` counter).
    pub secondary_links: u64,
    /// Events reverse-executed under attribution (== `events_rolled_back`).
    pub events_undone: u64,
    /// Undone events that were forward-executed again.
    pub events_reexecuted: u64,
    /// Anti-messages sent across a PE boundary by attributed rollbacks
    /// (== the profiler's `AntiSend` scope count).
    pub antis_remote: u64,
    /// Cascade detail records dropped by the [`MAX_RECORDS`] bound (scalar
    /// totals above remain exact).
    pub records_dropped: u64,
    /// The blame matrix, canonically ordered by (origin LP, victim KP).
    /// Capture cascades are excluded (no model LP to blame).
    pub matrix: BTreeMap<(LpId, KpId), BlameCell>,
    /// Per-cascade records, canonically ordered by cascade id.
    pub cascades: BTreeMap<u64, CascadeRec>,
}

impl BlameReport {
    /// Whether nothing was ever attributed (the sequential kernel's
    /// structural guarantee, and a blame-off run's).
    pub fn is_empty(&self) -> bool {
        self.cascades_straggler == 0
            && self.cascades_capture == 0
            && self.secondary_links == 0
            && self.events_undone == 0
            && self.events_reexecuted == 0
            && self.antis_remote == 0
            && self.records_dropped == 0
            && self.matrix.is_empty()
            && self.cascades.is_empty()
    }

    /// Fold another PE's report into this one. Fragments meet their roots
    /// here: records under the same cascade id fold, and the result is
    /// independent of merge order.
    pub fn merge(&mut self, other: &BlameReport) {
        self.cascades_straggler += other.cascades_straggler;
        self.cascades_capture += other.cascades_capture;
        self.secondary_links += other.secondary_links;
        self.events_undone += other.events_undone;
        self.events_reexecuted += other.events_reexecuted;
        self.antis_remote += other.antis_remote;
        self.records_dropped += other.records_dropped;
        for (key, cell) in &other.matrix {
            self.matrix.entry(*key).or_default().fold(cell);
        }
        for (id, rec) in &other.cascades {
            match self.cascades.entry(*id) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(*rec);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().fold(rec),
            }
        }
    }

    /// Total cascades (roots only; fragments fold away at merge).
    pub fn total_cascades(&self) -> u64 {
        self.cascades_straggler + self.cascades_capture
    }

    /// Log₂ histogram of cascade link depths over the record store.
    pub fn depth_hist(&self) -> [u64; N_BUCKETS] {
        let mut h = [0u64; N_BUCKETS];
        for rec in self.cascades.values() {
            h[log2_bucket(rec.depth as u64)] += 1;
        }
        h
    }

    /// Log₂ histogram of cascade widths (distinct KPs hit).
    pub fn width_hist(&self) -> [u64; N_BUCKETS] {
        let mut h = [0u64; N_BUCKETS];
        for rec in self.cascades.values() {
            h[log2_bucket(rec.width)] += 1;
        }
        h
    }

    /// Log₂ histogram of events undone per cascade.
    pub fn undone_hist(&self) -> [u64; N_BUCKETS] {
        let mut h = [0u64; N_BUCKETS];
        for rec in self.cascades.values() {
            h[log2_bucket(rec.events_undone)] += 1;
        }
        h
    }

    /// Deepest cascade on record.
    pub fn worst_depth(&self) -> u32 {
        self.cascades.values().map(|r| r.depth).max().unwrap_or(0)
    }

    /// Top-`k` offender LPs by events undone across the blame matrix
    /// (capture cascades carry no LP and never appear). Ties break toward
    /// the lower LP id, so the ranking is deterministic.
    pub fn top_offenders(&self, k: usize) -> Vec<(LpId, BlameCell)> {
        let mut per_lp: BTreeMap<LpId, BlameCell> = BTreeMap::new();
        for (&(lp, _kp), cell) in &self.matrix {
            per_lp.entry(lp).or_default().fold(cell);
        }
        let mut rows: Vec<(LpId, BlameCell)> = per_lp.into_iter().collect();
        rows.sort_by(|a, b| {
            (b.1.events_undone, b.1.rollbacks)
                .cmp(&(a.1.events_undone, a.1.rollbacks))
                .then(a.0.cmp(&b.0))
        });
        rows.truncate(k);
        rows
    }

    /// Ledger total: wasted nanoseconds priced at the profiler's mean
    /// `Reverse` / `AntiSend` scope costs. Zero when the profiler was off.
    pub fn wasted_ns(&self, prof: &PhaseProfile) -> u64 {
        self.events_undone
            .saturating_mul(prof.phases[Phase::Reverse as usize].mean_ns())
            .saturating_add(
                self.antis_remote
                    .saturating_mul(prof.phases[Phase::AntiSend as usize].mean_ns()),
            )
    }

    /// Canonical single-line JSON rendering. Byte-identical for equal
    /// reports regardless of the order per-PE parts were merged in
    /// (`BTreeMap` iteration is the canonical order; no floats, no
    /// pointers, no wall-clock). The determinism suite pins this.
    pub fn to_json(&self) -> String {
        let hist = |h: [u64; N_BUCKETS]| {
            let mut s = String::from("[");
            for (i, v) in h.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{v}");
            }
            s.push(']');
            s
        };
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"cascades_straggler\":{},\"cascades_capture\":{},\
             \"secondary_links\":{},\"events_undone\":{},\
             \"events_reexecuted\":{},\"antis_remote\":{},\
             \"records_dropped\":{},\"depth_hist\":{},\"width_hist\":{},\
             \"undone_hist\":{}",
            self.cascades_straggler,
            self.cascades_capture,
            self.secondary_links,
            self.events_undone,
            self.events_reexecuted,
            self.antis_remote,
            self.records_dropped,
            hist(self.depth_hist()),
            hist(self.width_hist()),
            hist(self.undone_hist()),
        );
        out.push_str(",\"matrix\":[");
        for (i, (&(lp, kp), cell)) in self.matrix.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"lp\":{lp},\"kp\":{kp},\"rollbacks\":{},\"undone\":{},\"lag_hist\":{}}}",
                cell.rollbacks,
                cell.events_undone,
                hist(cell.lag_hist),
            );
        }
        out.push_str("],\"cascades\":[");
        for (i, (id, rec)) in self.cascades.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{id},\"cause\":\"{}\",\"origin_lp\":{},\"origin_kp\":{},\
                 \"root_vt\":{},\"depth\":{},\"rollbacks\":{},\"width\":{},\
                 \"undone\":{},\"reexec\":{},\"antis_remote\":{},\
                 \"last_kp\":{},\"last_vt\":{}}}",
                rec.cause.name(),
                rec.origin_lp,
                rec.origin_kp,
                rec.root_vt,
                rec.depth,
                rec.rollbacks,
                rec.width,
                rec.events_undone,
                rec.events_reexec,
                rec.antis_remote,
                rec.last_kp,
                rec.last_vt,
            );
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------
// Per-PE runtime tracker
// ---------------------------------------------------------------------------

/// One link of the active-rollback stack (rollbacks nest: a rollback's
/// cancellations can trigger local secondary rollbacks before it returns).
struct ActiveLink {
    /// Record index, or `u32::MAX` when the record store overflowed (scalar
    /// totals still accumulate).
    rec: u32,
    /// Cascade id this link belongs to.
    id: u64,
    /// Origin LP carried into child tags.
    origin_lp: LpId,
    /// Link depth (root = 0).
    depth: u32,
    /// Victim KP of this link's rollback.
    victim_kp: KpId,
    /// Virtual time (ticks) of this link's rollback bound.
    vt: u64,
    /// Lag (ticks) of the triggering message behind the victim's LVT.
    lag: u64,
    /// Events undone by this link so far.
    undone: u64,
}

/// Record store entry: the cascade id, the accounting, and the distinct-KP
/// set backing `width` (sorted vec — cascades touch few KPs).
struct TrackRec {
    id: u64,
    rec: CascadeRec,
    kps: Vec<KpId>,
}

/// Per-PE rollback-forensics tracker. All methods are no-ops when disabled;
/// the only hot-path touch points are [`on_execute`](Self::on_execute) (one
/// emptiness check per forward execution) — everything else runs only on
/// rollback/cancellation paths, which are already the slow path.
pub struct BlameTracker {
    enabled: bool,
    pe: PeId,
    /// Next cascade sequence (starts at 1; id 0 is the NONE sentinel).
    next_seq: u64,
    records: Vec<TrackRec>,
    /// Cascade id → record index (roots and fragments alike).
    by_id: FastMap<u64, u32>,
    /// Nested rollbacks currently unwinding.
    stack: Vec<ActiveLink>,
    /// Undone-and-requeued events awaiting re-execution, keyed by id;
    /// value = owning record index (or `u32::MAX`).
    requeued: FastMap<EventId, u32>,
    /// Scalar totals (exact even past the record bound).
    totals: BlameReport,
    /// Matrix cells are folded from links at `end()`, so the per-event path
    /// never touches the map.
    _priv: (),
}

impl BlameTracker {
    /// A tracker for PE `pe`; `enabled = false` makes every hook a no-op.
    pub fn new(enabled: bool, pe: PeId) -> BlameTracker {
        BlameTracker {
            enabled,
            pe,
            next_seq: 1,
            records: Vec::new(),
            by_id: FastMap::default(),
            stack: Vec::new(),
            requeued: FastMap::default(),
            totals: BlameReport::default(),
            _priv: (),
        }
    }

    /// Whether the blame layer is recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Allocate a cascade id from this PE's sequence space.
    fn alloc_id(&mut self) -> u64 {
        let id = ((self.pe as u64) << 48) | self.next_seq;
        self.next_seq += 1;
        id
    }

    /// Create a record (or drop it past the bound), returning its index.
    fn insert_record(&mut self, id: u64, rec: CascadeRec) -> u32 {
        if self.records.len() >= MAX_RECORDS {
            self.totals.records_dropped += 1;
            return u32::MAX;
        }
        let idx = self.records.len() as u32;
        self.records.push(TrackRec {
            id,
            rec,
            kps: Vec::new(),
        });
        self.by_id.insert(id, idx);
        idx
    }

    /// A straggler positive for `victim_kp` (sent by `origin_lp`, lagging
    /// `lag` ticks behind the victim's LVT) is about to trigger a primary
    /// rollback bounded at virtual time `vt`.
    pub fn begin_straggler(&mut self, origin_lp: LpId, victim_kp: KpId, lag: u64, vt: u64) {
        if !self.enabled {
            return;
        }
        self.totals.cascades_straggler += 1;
        self.begin_root(CascadeCause::Straggler, origin_lp, victim_kp, lag, vt);
    }

    /// The pre-checkpoint capture unwind is about to rewind `victim_kp` to
    /// the snapshot horizon at virtual time `vt`.
    pub fn begin_capture(&mut self, victim_kp: KpId, vt: u64) {
        if !self.enabled {
            return;
        }
        self.totals.cascades_capture += 1;
        self.begin_root(CascadeCause::Capture, CAPTURE_LP, victim_kp, 0, vt);
    }

    fn begin_root(
        &mut self,
        cause: CascadeCause,
        origin_lp: LpId,
        victim_kp: KpId,
        lag: u64,
        vt: u64,
    ) {
        let id = self.alloc_id();
        let rec = self.insert_record(
            id,
            CascadeRec {
                cause,
                origin_lp,
                origin_kp: victim_kp,
                root_vt: vt,
                last_kp: victim_kp,
                last_vt: vt,
                ..CascadeRec::default()
            },
        );
        self.stack.push(ActiveLink {
            rec,
            id,
            origin_lp,
            depth: 0,
            victim_kp,
            vt,
            lag,
            undone: 0,
        });
    }

    /// An anti-message carrying `tag` (depth = the *sender's* link depth)
    /// is about to trigger a secondary rollback of `victim_kp` bounded at
    /// virtual time `vt`, with the cancelled event `lag` ticks behind the
    /// victim's LVT.
    pub fn begin_secondary(&mut self, tag: CascadeTag, victim_kp: KpId, lag: u64, vt: u64) {
        if !self.enabled {
            return;
        }
        self.totals.secondary_links += 1;
        let depth = tag.depth;
        let (id, origin_lp) = if tag.is_none() {
            // Sender ran blame-off (or a pre-tag stream): attribute to a
            // local fragment so the totals still reconcile.
            (self.alloc_id(), CAPTURE_LP)
        } else {
            (tag.root, tag.origin_lp)
        };
        let rec = match self.by_id.get(&id) {
            Some(&idx) => idx,
            None => self.insert_record(
                id,
                CascadeRec {
                    cause: CascadeCause::Fragment,
                    origin_lp,
                    origin_kp: victim_kp,
                    root_vt: vt,
                    last_kp: victim_kp,
                    last_vt: vt,
                    ..CascadeRec::default()
                },
            ),
        };
        self.stack.push(ActiveLink {
            rec,
            id,
            origin_lp,
            depth,
            victim_kp,
            vt,
            lag,
            undone: 0,
        });
    }

    /// One event was reverse-executed by the active rollback.
    #[inline]
    pub fn on_undone(&mut self) {
        if !self.enabled {
            return;
        }
        self.totals.events_undone += 1;
        if let Some(link) = self.stack.last_mut() {
            link.undone += 1;
        }
    }

    /// An undone event was re-enqueued for re-execution.
    #[inline]
    pub fn on_requeue(&mut self, id: EventId) {
        if !self.enabled {
            return;
        }
        let rec = self.stack.last().map_or(u32::MAX, |l| l.rec);
        self.requeued.insert(id, rec);
    }

    /// An event was annihilated without rolling back (cancelled while
    /// pending) — if it was awaiting re-execution, it never will.
    #[inline]
    pub fn on_annihilate(&mut self, id: EventId) {
        if !self.enabled || self.requeued.is_empty() {
            return;
        }
        self.requeued.remove(&id);
    }

    /// A forward execution of `id` — counts a re-execution if a cascade
    /// previously undid it. The emptiness check keeps the rollback-free hot
    /// path at one branch.
    #[inline]
    pub fn on_execute(&mut self, id: EventId) {
        if !self.enabled || self.requeued.is_empty() {
            return;
        }
        if let Some(rec) = self.requeued.remove(&id) {
            self.totals.events_reexecuted += 1;
            if let Some(tr) = self.records.get_mut(rec as usize) {
                tr.rec.events_reexec += 1;
            }
        }
    }

    /// The cascade tag for anti-messages sent by the active rollback (its
    /// children link one deeper). [`CascadeTag::NONE`] when disabled.
    #[inline]
    pub fn child_tag(&self) -> CascadeTag {
        if !self.enabled {
            return CascadeTag::NONE;
        }
        match self.stack.last() {
            Some(link) => CascadeTag {
                root: link.id,
                origin_lp: link.origin_lp,
                depth: link.depth + 1,
            },
            // `cancel` only runs inside a rollback, but stay safe.
            None => CascadeTag::NONE,
        }
    }

    /// The active rollback pushed an anti-message across a PE boundary.
    #[inline]
    pub fn on_remote_anti(&mut self) {
        if !self.enabled {
            return;
        }
        self.totals.antis_remote += 1;
        if let Some(link) = self.stack.last() {
            if let Some(tr) = self.records.get_mut(link.rec as usize) {
                tr.rec.antis_remote += 1;
            }
        }
    }

    /// Close the active rollback link: fold its accumulators into the
    /// cascade record and the blame matrix.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let Some(link) = self.stack.pop() else {
            debug_assert!(false, "BlameTracker::end without a matching begin");
            return;
        };
        if let Some(tr) = self.records.get_mut(link.rec as usize) {
            tr.rec.rollbacks += 1;
            tr.rec.events_undone += link.undone;
            // Same (depth, vt, kp) ordering as `CascadeRec::fold`, so the
            // flow endpoint is independent of link arrival order.
            if (link.depth, link.vt, link.victim_kp)
                >= (tr.rec.depth, tr.rec.last_vt, tr.rec.last_kp)
            {
                tr.rec.last_kp = link.victim_kp;
                tr.rec.last_vt = link.vt;
            }
            if link.depth > tr.rec.depth {
                tr.rec.depth = link.depth;
            }
            if let Err(pos) = tr.kps.binary_search(&link.victim_kp) {
                tr.kps.insert(pos, link.victim_kp);
                tr.rec.width = tr.kps.len() as u64;
            }
        }
        if link.origin_lp != CAPTURE_LP {
            let cell = self
                .totals
                .matrix
                .entry((link.origin_lp, link.victim_kp))
                .or_default();
            cell.rollbacks += 1;
            cell.events_undone += link.undone;
            cell.lag_hist[log2_bucket(link.lag)] += 1;
        }
    }

    /// Cumulative per-round counters for [`RoundSnapshot`](super::RoundSnapshot):
    /// `(cascades opened, events undone under attribution, re-executions)`.
    #[inline]
    pub fn round_counters(&self) -> (u64, u64, u64) {
        (
            self.totals.cascades_straggler + self.totals.cascades_capture,
            self.totals.events_undone,
            self.totals.events_reexecuted,
        )
    }

    /// Seal into a [`BlameReport`]. Any link still open (a panic unwound
    /// mid-rollback) is closed first so its counts are not lost.
    pub fn seal(&mut self) -> BlameReport {
        while !self.stack.is_empty() {
            self.end();
        }
        let mut report = std::mem::take(&mut self.totals);
        for tr in self.records.drain(..) {
            report.cascades.insert(tr.id, tr.rec);
        }
        self.by_id = FastMap::default();
        self.requeued = FastMap::default();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(root: u64, lp: LpId, depth: u32) -> CascadeTag {
        CascadeTag {
            root,
            origin_lp: lp,
            depth,
        }
    }

    #[test]
    fn disabled_tracker_records_nothing() {
        let mut t = BlameTracker::new(false, 0);
        t.begin_straggler(1, 2, 10, 100);
        t.on_undone();
        t.end();
        assert!(t.seal().is_empty());
        assert_eq!(t.child_tag(), CascadeTag::NONE);
    }

    #[test]
    fn straggler_cascade_accumulates_and_seals() {
        let mut t = BlameTracker::new(true, 0);
        t.begin_straggler(7, 3, 12, 500);
        t.on_undone();
        t.on_undone();
        t.on_requeue(EventId::new(0, 1));
        t.on_remote_anti();
        t.end();
        t.on_execute(EventId::new(0, 1));
        let r = t.seal();
        assert_eq!(r.cascades_straggler, 1);
        assert_eq!(r.events_undone, 2);
        assert_eq!(r.events_reexecuted, 1);
        assert_eq!(r.antis_remote, 1);
        assert_eq!(r.cascades.len(), 1);
        let rec = r.cascades.values().next().unwrap();
        assert_eq!(rec.cause, CascadeCause::Straggler);
        assert_eq!(rec.origin_lp, 7);
        assert_eq!(rec.origin_kp, 3);
        assert_eq!(rec.events_undone, 2);
        assert_eq!(rec.events_reexec, 1);
        assert_eq!(rec.width, 1);
        assert_eq!(rec.rollbacks, 1);
        let cell = r.matrix.get(&(7, 3)).unwrap();
        assert_eq!(cell.rollbacks, 1);
        assert_eq!(cell.events_undone, 2);
        assert_eq!(cell.lag_hist[log2_bucket(12)], 1);
    }

    #[test]
    fn nested_secondary_links_same_cascade() {
        let mut t = BlameTracker::new(true, 0);
        t.begin_straggler(7, 3, 12, 500);
        t.on_undone();
        let child = t.child_tag();
        assert_eq!(child.depth, 1);
        // Local recursion: a cancellation hits KP 4 before the root ends.
        t.begin_secondary(child, 4, 3, 450);
        t.on_undone();
        t.on_undone();
        t.end();
        t.end();
        let r = t.seal();
        assert_eq!(r.cascades.len(), 1, "secondary folded into the root");
        let rec = r.cascades.values().next().unwrap();
        assert_eq!(rec.depth, 1);
        assert_eq!(rec.width, 2);
        assert_eq!(rec.rollbacks, 2);
        assert_eq!(rec.events_undone, 3);
        assert_eq!(r.secondary_links, 1);
    }

    #[test]
    fn remote_fragment_folds_into_root_at_merge() {
        // PE 0 roots the cascade and sends a tagged anti.
        let mut a = BlameTracker::new(true, 0);
        a.begin_straggler(7, 3, 12, 500);
        a.on_undone();
        let wire = a.child_tag();
        a.on_remote_anti();
        a.end();
        let ra = a.seal();
        // PE 1 receives it and rolls KP 9 back.
        let mut b = BlameTracker::new(true, 1);
        b.begin_secondary(wire, 9, 2, 480);
        b.on_undone();
        b.end();
        let rb = b.seal();
        // Merge either way round: one cascade, width 2, depth 1, same bytes.
        let mut ab = ra.clone();
        ab.merge(&rb);
        let mut ba = rb.clone();
        ba.merge(&ra);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.cascades.len(), 1);
        let rec = ab.cascades.values().next().unwrap();
        assert_eq!(rec.cause, CascadeCause::Straggler);
        assert_eq!(rec.width, 2);
        assert_eq!(rec.depth, 1);
        assert_eq!(rec.events_undone, 2);
        assert_eq!(ab.secondary_links, 1);
        assert_eq!(ab.antis_remote, 1);
    }

    #[test]
    fn capture_cascades_stay_out_of_the_matrix() {
        let mut t = BlameTracker::new(true, 0);
        t.begin_capture(5, 900);
        t.on_undone();
        t.end();
        let r = t.seal();
        assert_eq!(r.cascades_capture, 1);
        assert_eq!(r.events_undone, 1);
        assert!(r.matrix.is_empty());
        let rec = r.cascades.values().next().unwrap();
        assert_eq!(rec.cause, CascadeCause::Capture);
        assert_eq!(rec.origin_lp, CAPTURE_LP);
    }

    #[test]
    fn annihilated_requeue_never_counts_as_reexec() {
        let mut t = BlameTracker::new(true, 0);
        t.begin_straggler(1, 1, 1, 10);
        t.on_undone();
        t.on_requeue(EventId::new(0, 42));
        t.end();
        t.on_annihilate(EventId::new(0, 42));
        t.on_execute(EventId::new(0, 42)); // fresh incarnation, not a re-exec
        assert_eq!(t.seal().events_reexecuted, 0);
    }

    #[test]
    fn record_bound_drops_detail_not_totals() {
        let mut t = BlameTracker::new(true, 0);
        for _ in 0..(MAX_RECORDS + 5) {
            t.begin_straggler(1, 1, 1, 10);
            t.on_undone();
            t.end();
        }
        let r = t.seal();
        assert_eq!(r.records_dropped, 5);
        assert_eq!(r.cascades.len(), MAX_RECORDS);
        assert_eq!(r.cascades_straggler, (MAX_RECORDS + 5) as u64);
        assert_eq!(r.events_undone, (MAX_RECORDS + 5) as u64);
    }

    #[test]
    fn json_is_valid_and_canonical() {
        let mut t = BlameTracker::new(true, 2);
        t.begin_straggler(3, 1, 100, 50);
        t.on_undone();
        t.end();
        t.begin_secondary(tag(((2u64) << 48) | 1, 3, 1), 2, 7, 40);
        t.on_undone();
        t.end();
        let r = t.seal();
        let j = r.to_json();
        super::super::json::validate(&j).expect("blame JSON must validate");
        assert_eq!(j, r.to_json(), "serialization is a pure function");
        assert_eq!(r.clone().to_json(), j);
    }

    #[test]
    fn log2_bucket_shape() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(255), 7);
        assert_eq!(log2_bucket(u64::MAX), 7);
    }

    #[test]
    fn top_offenders_rank_deterministically() {
        let mut t = BlameTracker::new(true, 0);
        for (lp, n) in [(5u32, 3), (2, 3), (9, 1)] {
            for _ in 0..n {
                t.begin_straggler(lp, 0, 1, 10);
                t.on_undone();
                t.end();
            }
        }
        let r = t.seal();
        let top = r.top_offenders(2);
        assert_eq!(top.len(), 2);
        // Equal damage: lower LP id first.
        assert_eq!(top[0].0, 2);
        assert_eq!(top[1].0, 5);
    }
}
