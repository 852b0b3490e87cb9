//! Rollback-forensics (blame) contracts: the attribution layer must agree
//! exactly with the legacy rollback counters under a chaos storm on every
//! scheduler and PE count, report structural zeros wherever rollbacks are
//! impossible, serialize canonically, and price wasted work within the
//! profiler's documented sampling error.

use pdes::obs::json;
use pdes::prelude::*;

/// Token storm with genuine rollback-sensitive state (the kernel-equivalence
/// workload): every hop draws from the reversible RNG and hops to a random
/// LP, so optimism produces real cross-PE stragglers.
struct TokenStorm {
    n_lps: u32,
    tokens_per_lp: u32,
}

#[derive(Default, Clone)]
struct LpState {
    hops: u64,
    weight: u64,
}

#[derive(Clone, Debug)]
struct Token {
    id: u64,
    saved_draw: u64,
}

#[derive(Default, Debug, PartialEq, Eq)]
struct Out {
    hops: u64,
    weight: u64,
}

impl Merge for Out {
    fn merge(&mut self, other: Self) {
        self.hops += other.hops;
        self.weight += other.weight;
    }
}

impl Model for TokenStorm {
    type State = LpState;
    type Payload = Token;
    type Output = Out;

    fn n_lps(&self) -> u32 {
        self.n_lps
    }

    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, Token>) -> LpState {
        for t in 0..self.tokens_per_lp {
            let id = lp as u64 * self.tokens_per_lp as u64 + t as u64;
            let offset = ctx.rng().integer(0, VirtualTime::STEP / 2 - 1);
            ctx.schedule_at(
                lp,
                VirtualTime::from_parts(1, offset + 1),
                id,
                Token { id, saved_draw: 0 },
            );
        }
        LpState::default()
    }

    fn handle(&self, state: &mut LpState, token: &mut Token, ctx: &mut EventCtx<'_, Token>) {
        let draw = ctx.rng().integer(0, 999);
        token.saved_draw = draw;
        state.hops += 1;
        state.weight += draw;
        let next = ((ctx.lp() as u64 + 1 + draw) % self.n_lps as u64) as u32;
        let delay = VirtualTime::STEP + draw * 1000;
        ctx.schedule(next, delay, token.id, token.clone());
    }

    fn reverse(&self, state: &mut LpState, token: &mut Token, _ctx: &ReverseCtx) {
        state.hops -= 1;
        state.weight -= token.saved_draw;
    }

    fn finish(&self, _lp: LpId, state: &LpState, out: &mut Out) {
        out.hops += state.hops;
        out.weight += state.weight;
    }
}

fn storm() -> TokenStorm {
    TokenStorm {
        n_lps: 16,
        tokens_per_lp: 4,
    }
}

fn config() -> EngineConfig {
    EngineConfig::new(VirtualTime::from_steps(60)).with_seed(0xB1A3E)
}

/// Delay/duplicate/reorder chaos at the inter-PE boundary — the storm that
/// forces stragglers and anti-message cascades.
fn chaos() -> FaultPlan {
    FaultPlan::new(0xCA5CADE)
        .with_delay(0.25)
        .with_duplicate(0.15)
        .with_reorder(0.5)
}

/// The blame ledger and the legacy `EngineStats` counters are independent
/// bookkeeping of the same rollbacks and must agree exactly.
fn assert_reconciled(stats: &EngineStats, label: &str) {
    assert_eq!(
        stats.blame.events_undone, stats.events_rolled_back,
        "{label}: blame events_undone != events_rolled_back"
    );
    assert_eq!(
        stats.blame.cascades_straggler, stats.primary_rollbacks,
        "{label}: cascade roots != primary_rollbacks"
    );
    assert_eq!(
        stats.blame.secondary_links, stats.secondary_rollbacks,
        "{label}: secondary links != secondary_rollbacks"
    );
    assert_eq!(
        stats.blame.antis_remote,
        stats.prof.phase(Phase::AntiSend).count,
        "{label}: remote antis != profiler AntiSend scope count"
    );
}

/// The sequential kernel never speculates, so its blame report is the
/// structural zero — and that zero still serializes as valid JSON.
#[test]
fn sequential_blame_is_structurally_empty() {
    let seq = Run::new(&storm(), &config()).sequential().go().unwrap();
    assert!(seq.stats.blame.is_empty());
    assert_eq!(seq.stats.wasted_ns(), 0);
    json::validate(&seq.stats.blame.to_json()).expect("empty blame JSON invalid");
}

/// One PE cannot receive a message in its own past: blame must report the
/// same structural zero as the sequential oracle.
#[test]
fn one_pe_cannot_be_blamed() {
    let par = Run::new(&storm(), &config().with_pes(1).with_kps(8))
        .go()
        .unwrap();
    assert_eq!(par.stats.events_rolled_back, 0);
    assert!(par.stats.blame.is_empty());
}

/// The chaos-storm matrix: the default scheduler and the heap reference ×
/// every PE count under fault injection must (a) commit the sequential
/// output, (b) reconcile the blame ledger with the legacy counters exactly,
/// and (c) serialize canonically — the same report renders the same bytes
/// every time.
#[test]
fn chaos_storm_matrix_reconciles_on_every_scheduler_and_pe_count() {
    let seq = Run::new(&storm(), &config()).sequential().go().unwrap();
    let mut rollbacks_seen = 0u64;
    for sched in [SchedulerKind::default(), SchedulerKind::Heap] {
        for pes in [1usize, 2, 4] {
            let label = format!("{sched:?}/{pes}pe");
            let cfg = config()
                .with_pes(pes)
                .with_kps(8)
                .with_scheduler(sched)
                .with_faults(chaos());
            let par = Run::new(&storm(), &cfg).go().unwrap();
            assert_eq!(
                par.output, seq.output,
                "{label}: chaos changed committed output"
            );
            assert_reconciled(&par.stats, &label);
            if pes == 1 {
                assert!(par.stats.blame.is_empty(), "{label}: 1 PE blamed someone");
            }
            rollbacks_seen += par.stats.blame.events_undone;

            let json_a = par.stats.blame.to_json();
            assert_eq!(
                json_a,
                par.stats.blame.to_json(),
                "{label}: serialization is not a pure function of the report"
            );
            json::validate(&json_a).unwrap_or_else(|e| panic!("{label}: invalid JSON: {e}"));

            // Detail maps must account for the scalars whenever no record
            // was dropped (the bound never triggers at this scale).
            assert_eq!(par.stats.blame.records_dropped, 0, "{label}");
            let b = &par.stats.blame;
            assert_eq!(
                b.total_cascades(),
                b.cascades_straggler + b.cascades_capture,
                "{label}: cascade records disagree with scalar totals"
            );
            assert_eq!(
                b.cascades.values().map(|c| c.events_undone).sum::<u64>(),
                b.events_undone,
                "{label}: per-cascade undone does not sum to the ledger total"
            );
            assert_eq!(
                b.matrix.values().map(|c| c.rollbacks).sum::<u64>(),
                b.cascades_straggler + b.secondary_links,
                "{label}: matrix rollback cells disagree with cascade links"
            );
        }
    }
    assert!(
        rollbacks_seen > 0,
        "chaos matrix never rolled back — the storm is too tame to test blame"
    );
}

/// The engineered straggler from the kernel-equivalence suite, now with
/// attribution: the cascade must be rooted at the stalling LP (LP 1), land
/// in the matrix against LP 0's KP, and show up in the offender ranking.
struct ForcedStraggler;

#[derive(Clone, Debug)]
struct Probe {
    kind: u8,
    saved: u64,
}

impl Model for ForcedStraggler {
    type State = LpState;
    type Payload = Probe;
    type Output = Out;

    fn n_lps(&self) -> u32 {
        2
    }

    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, Probe>) -> LpState {
        if lp == 0 {
            ctx.schedule_at(0, VirtualTime(10), 1, Probe { kind: 0, saved: 0 });
        } else {
            ctx.schedule_at(1, VirtualTime(5), 2, Probe { kind: 1, saved: 0 });
        }
        LpState::default()
    }

    fn handle(&self, state: &mut LpState, p: &mut Probe, ctx: &mut EventCtx<'_, Probe>) {
        let draw = ctx.rng().integer(0, 9);
        p.saved = draw;
        state.hops += 1;
        state.weight += draw;
        match p.kind {
            0 if ctx.now() < VirtualTime(200_000) => {
                ctx.schedule_self(10, 1, Probe { kind: 0, saved: 0 });
            }
            1 => {
                std::thread::sleep(std::time::Duration::from_millis(30));
                ctx.schedule(0, 10, 3, Probe { kind: 2, saved: 0 });
            }
            _ => {}
        }
    }

    fn reverse(&self, state: &mut LpState, p: &mut Probe, _ctx: &ReverseCtx) {
        state.hops -= 1;
        state.weight -= p.saved;
    }

    fn finish(&self, _lp: LpId, state: &LpState, out: &mut Out) {
        out.hops += state.hops;
        out.weight += state.weight;
    }
}

#[test]
fn forced_straggler_is_attributed_to_the_sending_lp() {
    let cfg = EngineConfig::new(VirtualTime(250_000))
        .with_seed(42)
        .with_gvt_interval(1_000_000)
        .with_batch(100_000);
    let par = Run::new(&ForcedStraggler, &cfg.clone().with_pes(2).with_kps(2))
        .go()
        .unwrap();
    let b = &par.stats.blame;
    assert!(
        b.cascades_straggler >= 1,
        "engineered straggler left no cascade: {b:?}"
    );
    assert_reconciled(&par.stats, "forced straggler");
    // LP 1 is the offender; every matrix row must name it.
    assert!(!b.matrix.is_empty());
    for &(lp, _kp) in b.matrix.keys() {
        assert_eq!(lp, 1, "blamed the victim instead of the straggler");
    }
    let offenders = b.top_offenders(4);
    assert_eq!(offenders[0].0, 1);
    assert!(offenders[0].1.events_undone >= 1);
    // The cascade record carries the same attribution.
    let root = b.cascades.values().next().unwrap();
    assert_eq!(root.origin_lp, 1);
    assert_eq!(root.cause, CascadeCause::Straggler);
    assert!(root.events_undone >= 1);
    // Lag histograms bucket every rollback exactly once.
    let bucketed: u64 = b.matrix.values().flat_map(|c| c.lag_hist.iter()).sum();
    assert_eq!(bucketed, b.cascades_straggler + b.secondary_links);
}

/// The wasted-work ledger prices undone events and remote antis at the
/// profiler's mean scope cost; the profiler estimates phase totals by
/// scaling its sampled time. The two must agree to within one integer-
/// division rounding per priced scope — the ledger's documented error.
#[test]
fn wasted_ns_matches_profiler_estimate_within_sampling_error() {
    // Rollback counts are interleaving-sensitive; scan seeds until the
    // chaos storm actually rolls something back.
    let par = [0xB1A3Eu64, 1, 2, 0xDEAD]
        .iter()
        .map(|&seed| {
            let cfg = config()
                .with_seed(seed)
                .with_pes(4)
                .with_kps(8)
                .with_faults(chaos());
            Run::new(&storm(), &cfg).go().unwrap()
        })
        .find(|r| r.stats.events_rolled_back > 0)
        .expect("no seed produced a rollback to price");
    let s = &par.stats;
    let ledger = s.wasted_ns();
    let est = s.prof.est_ns(Phase::Reverse) + s.prof.est_ns(Phase::AntiSend);
    let tolerance = s.blame.events_undone + s.blame.antis_remote;
    assert!(
        ledger.abs_diff(est) <= tolerance,
        "ledger {ledger} ns vs profiler {est} ns: off by more than one \
         rounding per priced scope ({tolerance} ns)"
    );
    // And the fraction is the ledger over measured busy time.
    let frac = s
        .wasted_frac_of_busy()
        .expect("busy run has a busy fraction");
    assert!((0.0..=1.0).contains(&frac), "frac {frac} out of range");
}

/// Per-round cascade counters in the telemetry series are cumulative: they
/// never decrease within a PE and never exceed the sealed totals.
#[test]
fn round_snapshots_carry_cumulative_cascade_counters() {
    let cfg = config()
        .with_pes(2)
        .with_kps(8)
        .with_faults(chaos())
        .with_obs(ObsConfig::default().with_series_capacity(4096));
    let par = Run::new(&storm(), &cfg).go().unwrap();
    let b = &par.stats.blame;
    assert!(
        !par.telemetry.rounds.is_empty(),
        "series capacity set but no snapshots retained"
    );
    for pe in 0..2 {
        let mut prev = (0u64, 0u64, 0u64);
        for snap in par.telemetry.rounds_for(pe) {
            let cur = (snap.cascades, snap.cascade_undone, snap.cascade_reexec);
            assert!(
                cur >= prev,
                "pe {pe}: cascade counters regressed {prev:?} -> {cur:?}"
            );
            prev = cur;
        }
        // Cumulative per-PE counters are bounded by the sealed run totals.
        assert!(prev.0 <= b.total_cascades());
        assert!(prev.1 <= b.events_undone);
        assert!(prev.2 <= b.events_reexecuted);
    }
}

/// Cross-run aggregation: merging two runs' reports
/// sums every scalar exactly, in either order.
#[test]
fn merged_reports_sum_scalars_in_either_order() {
    let a = Run::new(
        &storm(),
        &config().with_pes(4).with_kps(8).with_faults(chaos()),
    )
    .go()
    .unwrap()
    .stats
    .blame;
    let b = Run::new(
        &storm(),
        &config()
            .with_seed(0x5EED2)
            .with_pes(2)
            .with_kps(8)
            .with_faults(chaos()),
    )
    .go()
    .unwrap()
    .stats
    .blame;

    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    for (merged, label) in [(&ab, "a+b"), (&ba, "b+a")] {
        assert_eq!(
            merged.events_undone,
            a.events_undone + b.events_undone,
            "{label}"
        );
        assert_eq!(
            merged.cascades_straggler,
            a.cascades_straggler + b.cascades_straggler,
            "{label}"
        );
        assert_eq!(
            merged.secondary_links,
            a.secondary_links + b.secondary_links,
            "{label}"
        );
        assert_eq!(
            merged.antis_remote,
            a.antis_remote + b.antis_remote,
            "{label}"
        );
    }
    // The matrix folds cell-wise, so undone mass is conserved too.
    assert_eq!(
        ab.matrix.values().map(|c| c.events_undone).sum::<u64>(),
        ba.matrix.values().map(|c| c.events_undone).sum::<u64>()
    );
}

/// `with_blame(false)` disarms the layer: the report stays empty while the
/// legacy counters keep counting.
#[test]
fn disabled_blame_reports_nothing_but_legacy_counters_survive() {
    let par = [0xB1A3Eu64, 1, 2, 0xDEAD]
        .iter()
        .map(|&seed| {
            let cfg = config()
                .with_seed(seed)
                .with_pes(4)
                .with_kps(8)
                .with_faults(chaos())
                .with_obs(ObsConfig::default().with_blame(false));
            let par = Run::new(&storm(), &cfg).go().unwrap();
            assert!(par.stats.blame.is_empty(), "seed {seed}: dark mode blamed");
            assert_eq!(par.stats.wasted_ns(), 0, "seed {seed}");
            par
        })
        .find(|r| r.stats.events_rolled_back > 0);
    assert!(
        par.is_some(),
        "no chaos seed rolled anything back; the dark-mode contract is untested"
    );
}
