//! Phase-level wall-clock profiler for the Time Warp kernel.
//!
//! [`EngineStats`](crate::stats::EngineStats) counts *how many* events were
//! executed, rolled back or cancelled; this module measures *where the wall
//! clock went* while doing it. Every kernel phase — scheduler pop/push,
//! forward execution, reverse computation, anti-message dispatch, comm
//! flush/drain, GVT barrier waits, fossil collection — is wrapped in a cheap
//! [`Instant`]-pair scope and accumulated into a per-phase log2-bucketed
//! histogram ([`PhaseHist`]).
//!
//! Keeping the overhead inside the 5 % CI budget (the `overhead` bench's
//! `default` row against `dark`) means *not* timing every
//! scope: the hot phases (per-event, micro-second scale) are stride-sampled —
//! the scope *count* always increments, but only one scope in
//! `2^sample_shift` pays for the two `Instant::now()` calls. Totals are then
//! estimated as `sampled_ns × count / sampled`, which is unbiased for the
//! steady-state phases the kernel has (the stride is deterministic, the
//! phase durations are not correlated with the stride position). The cold
//! phases (per-GVT-round scale: barrier waits, fossil collection, GVT
//! reductions) are always timed, so their totals are exact.
//!
//! Because the phases are *leaves* — no scope ever encloses another — their
//! estimated totals tile the kernel's busy time, and the share table in
//! [`PhaseProfile`] sums to 100% of the measured busy time by construction.
//! The one documented exception: a threshold-triggered comm flush can fire
//! inside an anti-message send scope, so a rare sampled `AntiSend` scope may
//! include one `CommFlush`; the overlap is bounded by the comm batch size
//! and invisible at the stride defaults.

use std::fmt;
use std::time::Instant;

/// One leaf-level kernel phase. The discriminants index
/// [`PhaseProfile::phases`] and [`RoundSnapshot::phase_ns`](super::RoundSnapshot::phase_ns).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Popping the next executable event off the pending queue; on the
    /// windowed arm, opening an LP's visit (partitioning and sorting its
    /// due events), once per LP with events due.
    SchedPop = 0,
    /// Forward event execution (`Model::handle` only).
    Execute,
    /// Pushing one event into the pending queue (enqueue or requeue); on
    /// the windowed arm, filing it in an LP's inbox or the open run.
    SchedPush,
    /// Undoing one processed event: snapshot restore, or reverse handler +
    /// RNG rewind.
    Reverse,
    /// Routing one anti-message toward a remote PE.
    AntiSend,
    /// Flushing one sender-side batch into a comm ring (includes any
    /// ring-full overflow spill).
    CommFlush,
    /// Draining one inbox pass from the comm fabric.
    CommDrain,
    /// One blocking wait at a GVT reduction barrier.
    GvtWait,
    /// One fossil-collection sweep (commit + reclaim below GVT).
    Fossil,
    /// One GVT reduction after the round's quiescence check: the minimum
    /// over the PEs' reports, and on PE 0 its publication and the watchdog.
    GvtReduce,
}

/// Number of [`Phase`] variants.
pub const N_PHASES: usize = Phase::GvtReduce as usize + 1;

/// Log2 duration buckets per histogram; bucket 39 holds everything at or
/// above `2^39` ns (~9 minutes).
pub const N_BUCKETS: usize = 40;

impl Phase {
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::SchedPop,
        Phase::Execute,
        Phase::SchedPush,
        Phase::Reverse,
        Phase::AntiSend,
        Phase::CommFlush,
        Phase::CommDrain,
        Phase::GvtWait,
        Phase::Fossil,
        Phase::GvtReduce,
    ];

    /// Stable snake_case name (used by the exporters and the JSON summary).
    pub fn name(self) -> &'static str {
        match self {
            Phase::SchedPop => "sched_pop",
            Phase::Execute => "execute",
            Phase::SchedPush => "sched_push",
            Phase::Reverse => "reverse",
            Phase::AntiSend => "anti_send",
            Phase::CommFlush => "comm_flush",
            Phase::CommDrain => "comm_drain",
            Phase::GvtWait => "gvt_wait",
            Phase::Fossil => "fossil",
            Phase::GvtReduce => "gvt_reduce",
        }
    }

    /// Hot phases fire per event (or per message) and are stride-sampled;
    /// cold phases fire per GVT round and are always timed.
    pub fn is_hot(self) -> bool {
        !matches!(self, Phase::GvtWait | Phase::Fossil | Phase::GvtReduce)
    }
}

/// The bucket a duration of `ns` nanoseconds falls in: `floor(log2 ns)`,
/// clamped to `[0, N_BUCKETS)`. Durations of 0–1 ns share bucket 0.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns <= 1 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(N_BUCKETS - 1)
    }
}

/// The representative duration for a bucket: the geometric midpoint of
/// `[2^i, 2^{i+1})`, ≈ `1.5 × 2^i` (1 ns for bucket 0).
#[inline]
pub fn bucket_mid_ns(bucket: usize) -> u64 {
    if bucket == 0 {
        1
    } else {
        3u64 << (bucket - 1)
    }
}

/// A log2-bucketed duration histogram. Fixed size, merge = element-wise add,
/// so per-PE histograms fold into a run-wide one without allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseHist {
    /// `buckets[i]` counts sampled durations in `[2^i, 2^{i+1})` ns.
    pub buckets: [u64; N_BUCKETS],
}

impl Default for PhaseHist {
    fn default() -> Self {
        PhaseHist {
            buckets: [0; N_BUCKETS],
        }
    }
}

impl PhaseHist {
    /// Count one sampled duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
    }

    /// Total sampled durations held.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Element-wise accumulate another histogram.
    pub fn merge(&mut self, other: &PhaseHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// The representative duration at quantile `q ∈ [0, 1]` (bucket-midpoint
    /// resolution), or 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        // rank ∈ [1, total]: the q-th sample in ascending order.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid_ns(i);
            }
        }
        bucket_mid_ns(N_BUCKETS - 1)
    }
}

/// Accumulated accounting for one phase on one PE (mergeable across PEs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Scopes entered (every one, sampled or not).
    pub count: u64,
    /// Scopes actually timed.
    pub sampled: u64,
    /// Total nanoseconds across the timed scopes.
    pub sampled_ns: u64,
    /// Distribution of the timed scope durations.
    pub hist: PhaseHist,
}

impl PhaseStats {
    /// Estimated total nanoseconds spent in this phase:
    /// `sampled_ns × count / sampled` (exact when every scope was timed).
    pub fn est_total_ns(&self) -> u64 {
        if self.sampled == 0 {
            return 0;
        }
        let est = self.sampled_ns as u128 * self.count as u128 / self.sampled as u128;
        est.min(u64::MAX as u128) as u64
    }

    /// Mean timed duration in nanoseconds (0 when nothing was sampled).
    pub fn mean_ns(&self) -> u64 {
        self.sampled_ns.checked_div(self.sampled).unwrap_or(0)
    }

    /// Accumulate another PE's stats for the same phase.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.count += other.count;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
        self.hist.merge(&other.hist);
    }
}

/// The full per-phase wall-clock profile of a run (or one PE of it),
/// surfaced on [`EngineStats::prof`](crate::stats::EngineStats::prof).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Per-phase accounting, indexed by [`Phase`] discriminant.
    pub phases: [PhaseStats; N_PHASES],
}

impl PhaseProfile {
    /// Stats for one phase.
    pub fn phase(&self, ph: Phase) -> &PhaseStats {
        &self.phases[ph as usize]
    }

    /// Estimated total nanoseconds in one phase.
    pub fn est_ns(&self, ph: Phase) -> u64 {
        self.phases[ph as usize].est_total_ns()
    }

    /// Measured busy time: the sum of every phase's estimated total. This is
    /// the share-table denominator, so shares sum to 1 by construction.
    pub fn busy_ns(&self) -> u64 {
        self.phases.iter().map(PhaseStats::est_total_ns).sum()
    }

    /// One phase's share of the measured busy time (0 when nothing ran).
    pub fn share(&self, ph: Phase) -> f64 {
        let busy = self.busy_ns();
        if busy == 0 {
            0.0
        } else {
            self.est_ns(ph) as f64 / busy as f64
        }
    }

    /// True when no scope was ever entered (profiler off or run empty).
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|p| p.count == 0)
    }

    /// Per-phase estimated totals in discriminant order — the shape
    /// [`RoundSnapshot::phase_ns`](super::RoundSnapshot::phase_ns) carries.
    pub fn cumulative_ns(&self) -> [u64; N_PHASES] {
        let mut out = [0u64; N_PHASES];
        for (slot, p) in out.iter_mut().zip(self.phases.iter()) {
            *slot = p.est_total_ns();
        }
        out
    }

    /// Accumulate another profile (per-PE → run-wide merge).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (a, b) in self.phases.iter_mut().zip(other.phases.iter()) {
            a.merge(b);
        }
    }
}

/// Render nanoseconds with a human unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for PhaseProfile {
    /// The phase-share table: one row per phase that ran, share of busy
    /// time, scope count, p50/p99 of the sampled scope durations, and the
    /// estimated total.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let busy = self.busy_ns();
        writeln!(f, "phase profile (busy {}):", fmt_ns(busy))?;
        for ph in Phase::ALL {
            let p = self.phase(ph);
            if p.count == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<10} {:>6.2}%  n={:<12} p50={:<8} p99={:<8} total={}",
                ph.name(),
                self.share(ph) * 100.0,
                p.count,
                fmt_ns(p.hist.quantile(0.50)),
                fmt_ns(p.hist.quantile(0.99)),
                fmt_ns(p.est_total_ns()),
            )?;
        }
        Ok(())
    }
}

/// Default stride shift for hot phases: 1 scope in `2^7 = 128` is timed.
/// Chosen so the default-on profiler stays under the default-observability
/// overhead budget (the `overhead` bench's `default` row) even on one
/// oversubscribed core, where a clock read costs far
/// more than the hot-path work it brackets. Every kernel profiler uses it;
/// [`PhaseProfiler::new`] takes another for finer histograms in tests.
pub const DEFAULT_SAMPLE_SHIFT: u32 = 7;

/// The per-PE runtime profiler: owns a [`PhaseProfile`] and the sampling
/// decision. Scopes are open-coded (`begin` returns the `Instant` to hand
/// back to `end`) so a skipped sample costs one counter increment and one
/// mask test — no closure, no allocation.
#[derive(Debug)]
pub struct PhaseProfiler {
    enabled: bool,
    /// `(1 << sample_shift) - 1`; a hot scope is timed when
    /// `(count - 1) & mask == 0`.
    mask: u64,
    profile: PhaseProfile,
}

impl PhaseProfiler {
    /// A profiler sampling hot phases at 1 in `2^sample_shift` (0 = every
    /// scope timed).
    pub fn new(enabled: bool, sample_shift: u32) -> PhaseProfiler {
        let shift = sample_shift.min(32);
        PhaseProfiler {
            enabled,
            mask: (1u64 << shift) - 1,
            profile: PhaseProfile::default(),
        }
    }

    /// A profiler that records nothing.
    pub fn disabled() -> PhaseProfiler {
        Self::new(false, DEFAULT_SAMPLE_SHIFT)
    }

    /// Is the profiler recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enter a scope: counts it, and returns the start instant iff this
    /// scope is being timed. Pass the result to [`end`](Self::end).
    #[inline]
    pub fn begin(&mut self, ph: Phase) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        let s = &mut self.profile.phases[ph as usize];
        s.count += 1;
        if ph.is_hot() && (s.count - 1) & self.mask != 0 {
            return None;
        }
        Some(Instant::now())
    }

    /// Close a scope opened by [`begin`](Self::begin).
    #[inline]
    pub fn end(&mut self, ph: Phase, t0: Option<Instant>) {
        let Some(t0) = t0 else { return };
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let s = &mut self.profile.phases[ph as usize];
        s.sampled += 1;
        s.sampled_ns = s.sampled_ns.saturating_add(ns);
        s.hist.record(ns);
    }

    /// The profile accumulated so far.
    pub fn profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Per-phase cumulative estimated totals (for [`RoundSnapshot`]s).
    pub fn cumulative_ns(&self) -> [u64; N_PHASES] {
        self.profile.cumulative_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Clcg4, ReversibleRng};

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        for i in 1..(N_BUCKETS - 1) {
            let lo = 1u64 << i;
            assert_eq!(bucket_of(lo), i, "2^{i} must open bucket {i}");
            assert_eq!(
                bucket_of(lo - 1),
                i - 1,
                "2^{i}-1 must close bucket {}",
                i - 1
            );
            assert_eq!(
                bucket_of(2 * lo - 1),
                i,
                "2^{}-1 must still be bucket {i}",
                i + 1
            );
        }
        // The top bucket absorbs everything out of range.
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_of(1u64 << 39), N_BUCKETS - 1);
        assert_eq!(bucket_of(1u64 << 63), N_BUCKETS - 1);
    }

    #[test]
    fn bucket_of_agrees_with_float_log2_on_seeded_sweep() {
        // Property: for CLCG4-driven durations spanning every magnitude,
        // bucket_of(ns) == clamp(floor(log2 ns)).
        let mut rng = Clcg4::new(0x9E37);
        for _ in 0..20_000 {
            let mag = (rng.next_unif() * 62.0) as u32;
            let ns = 1u64 << mag | (rng.next_unif() * (1u64 << mag) as f64) as u64;
            let expect = (63 - ns.leading_zeros()) as usize;
            assert_eq!(bucket_of(ns), expect.min(N_BUCKETS - 1), "ns={ns}");
        }
    }

    #[test]
    fn hist_merge_equals_recording_into_one() {
        // Property: splitting a sample stream across two histograms and
        // merging is identical to recording everything into one.
        let mut rng = Clcg4::new(0xC1C64);
        let mut whole = PhaseHist::default();
        let mut a = PhaseHist::default();
        let mut b = PhaseHist::default();
        for i in 0..10_000u64 {
            let ns = (rng.next_unif() * 1e12) as u64;
            whole.record(ns);
            if i % 3 == 0 {
                a.record(ns)
            } else {
                b.record(ns)
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.total(), 10_000);
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_the_data() {
        let mut rng = Clcg4::new(7);
        let mut h = PhaseHist::default();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for _ in 0..5_000 {
            let ns = 10 + (rng.next_unif() * 1e6) as u64;
            lo = lo.min(ns);
            hi = hi.max(ns);
            h.record(ns);
        }
        let (p0, p50, p99, p100) = (
            h.quantile(0.0),
            h.quantile(0.5),
            h.quantile(0.99),
            h.quantile(1.0),
        );
        assert!(
            p0 <= p50 && p50 <= p99 && p99 <= p100,
            "{p0} {p50} {p99} {p100}"
        );
        // Bucket-midpoint resolution: within one power of two of the truth.
        assert!(
            p0 >= lo / 2 && p100 <= hi * 2,
            "p0={p0} lo={lo} p100={p100} hi={hi}"
        );
        assert_eq!(PhaseHist::default().quantile(0.5), 0, "empty histogram");
    }

    #[test]
    fn estimate_scales_sampled_time_by_stride() {
        let s = PhaseStats {
            count: 1000,
            sampled: 10,
            sampled_ns: 500,
            ..Default::default()
        };
        assert_eq!(s.est_total_ns(), 50_000);
        assert_eq!(s.mean_ns(), 50);
        // Intermediate products overflow u64 but the u128 math keeps the
        // (representable) quotient exact...
        let wide = PhaseStats {
            count: 1 << 40,
            sampled: 1 << 20,
            sampled_ns: 1 << 40,
            ..Default::default()
        };
        assert_eq!(wide.est_total_ns(), 1 << 60);
        // ...and an unrepresentable estimate saturates instead of wrapping.
        let big = PhaseStats {
            count: u64::MAX / 2,
            sampled: 1,
            sampled_ns: 4,
            ..Default::default()
        };
        assert_eq!(big.est_total_ns(), u64::MAX);
        assert_eq!(PhaseStats::default().est_total_ns(), 0);
    }

    #[test]
    fn profile_merge_matches_elementwise_and_shares_sum_to_one() {
        let mut rng = Clcg4::new(0xABCD);
        let mut a = PhaseProfile::default();
        let mut b = PhaseProfile::default();
        for _ in 0..2_000 {
            let ph = Phase::ALL[(rng.next_unif() * N_PHASES as f64) as usize % N_PHASES];
            let ns = (rng.next_unif() * 1e7) as u64;
            let target = if rng.next_unif() < 0.5 {
                &mut a
            } else {
                &mut b
            };
            let s = &mut target.phases[ph as usize];
            s.count += 2; // half the scopes "skipped" by sampling
            s.sampled += 1;
            s.sampled_ns += ns;
            s.hist.record(ns);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        for ph in Phase::ALL {
            let (ma, mb, mm) = (a.phase(ph), b.phase(ph), merged.phase(ph));
            assert_eq!(mm.count, ma.count + mb.count);
            assert_eq!(mm.sampled_ns, ma.sampled_ns + mb.sampled_ns);
        }
        let total: f64 = Phase::ALL.iter().map(|&ph| merged.share(ph)).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        assert!(!merged.is_empty());
        assert!(PhaseProfile::default().is_empty());
        assert_eq!(PhaseProfile::default().share(Phase::Execute), 0.0);
    }

    #[test]
    fn profiler_samples_hot_phases_at_the_stride() {
        let mut p = PhaseProfiler::new(true, 3); // 1 in 8
        for _ in 0..64 {
            let t = p.begin(Phase::Execute);
            p.end(Phase::Execute, t);
        }
        let s = p.profile().phase(Phase::Execute);
        assert_eq!(s.count, 64);
        assert_eq!(s.sampled, 8, "1-in-8 stride over 64 scopes");
        assert_eq!(s.hist.total(), 8);
        // Cold phases are timed every single time.
        for _ in 0..5 {
            let t = p.begin(Phase::GvtWait);
            p.end(Phase::GvtWait, t);
        }
        let g = p.profile().phase(Phase::GvtWait);
        assert_eq!((g.count, g.sampled), (5, 5));
        // Disabled profiler records nothing at all.
        let mut off = PhaseProfiler::disabled();
        let t = off.begin(Phase::Execute);
        assert!(t.is_none());
        off.end(Phase::Execute, t);
        assert!(off.profile().is_empty());
        assert!(!off.enabled());
    }

    #[test]
    fn display_lists_only_phases_that_ran() {
        let mut p = PhaseProfiler::new(true, 0);
        let t = p.begin(Phase::Execute);
        p.end(Phase::Execute, t);
        let text = p.profile().to_string();
        assert!(text.contains("execute"), "got: {text}");
        assert!(!text.contains("fossil"), "got: {text}");
        assert!(text.contains('%'));
    }
}
