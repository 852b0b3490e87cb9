//! Sequential ≡ parallel equivalence for the pdes engine, using a model with
//! genuine rollback-sensitive state (saved fields, RNG draws, cross-LP
//! traffic). This is the engine-level version of the paper's Attachment 3
//! check; the workspace-level tests repeat it with the hot-potato model.

use pdes::prelude::*;

/// A "token storm": `n` tokens hop between random LPs. Every hop draws from
/// the LP's reversible RNG, mutates integer state, and records the draw in
/// the payload so the reverse handler can undo it.
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
    /// Saved by the forward handler for reverse computation.
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
            // Unique sub-step offsets avoid key collisions at time 1.
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
        // Heterogeneous delays spread LPs across virtual time, provoking
        // stragglers under optimism.
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
    EngineConfig::new(VirtualTime::from_steps(60)).with_seed(0xC0FFEE)
}

#[test]
fn sequential_is_reproducible() {
    let a = Run::new(&storm(), &config()).sequential().go().unwrap();
    let b = Run::new(&storm(), &config()).sequential().go().unwrap();
    assert_eq!(a.output, b.output);
    assert_eq!(a.stats.events_committed, b.stats.events_committed);
    assert!(a.output.hops > 500, "workload too small to be meaningful");
}

#[test]
fn parallel_one_pe_matches_sequential() {
    let seq = Run::new(&storm(), &config()).sequential().go().unwrap();
    let par = Run::new(&storm(), &config().with_pes(1).with_kps(8))
        .go()
        .unwrap();
    assert_eq!(par.output, seq.output);
    assert_eq!(par.stats.events_committed, seq.stats.events_committed);
    // One PE can never roll back.
    assert_eq!(par.stats.events_rolled_back, 0);
}

#[test]
fn parallel_two_pes_matches_sequential() {
    let seq = Run::new(&storm(), &config()).sequential().go().unwrap();
    for kps in [2, 4, 16] {
        let par = Run::new(&storm(), &config().with_pes(2).with_kps(kps))
            .go()
            .unwrap();
        assert_eq!(par.output, seq.output, "kps={kps}");
        assert_eq!(
            par.stats.events_committed, seq.stats.events_committed,
            "kps={kps}"
        );
    }
}

#[test]
fn parallel_four_pes_matches_sequential() {
    let seq = Run::new(&storm(), &config()).sequential().go().unwrap();
    let par = Run::new(&storm(), &config().with_pes(4).with_kps(16))
        .go()
        .unwrap();
    assert_eq!(par.output, seq.output);
    assert_eq!(par.stats.events_committed, seq.stats.events_committed);
}

#[test]
fn parallel_matches_across_seeds_and_schedulers() {
    for seed in [1u64, 2, 3, 0xDEAD] {
        let cfg = config().with_seed(seed);
        let seq = Run::new(&storm(), &cfg).sequential().go().unwrap();
        for sched in [SchedulerKind::default(), SchedulerKind::Heap] {
            let par = Run::new(
                &storm(),
                &cfg.clone().with_pes(2).with_kps(8).with_scheduler(sched),
            )
            .go()
            .unwrap();
            assert_eq!(par.output, seq.output, "seed={seed} sched={sched:?}");
        }
    }
}

/// Force a straggler deterministically: LP 1 (PE 1) stalls in wall-clock
/// time while LP 0 (PE 0) races ahead in virtual time, then LP 1 sends into
/// LP 0's past. Verifies the rollback path actually executes and that the
/// result is still exactly sequential.
struct ForcedStraggler;

#[derive(Clone, Debug)]
struct Probe {
    kind: u8, // 0 = LP0 self-tick, 1 = LP1 delayed send, 2 = the straggler
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
                // LP 0: dense self-ticks far into the future.
                ctx.schedule_self(10, 1, Probe { kind: 0, saved: 0 });
            }
            1 => {
                // LP 1: stall so PE 0 races ahead, then send into its past.
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
fn forced_straggler_rolls_back_and_still_matches() {
    let cfg = EngineConfig::new(VirtualTime(250_000))
        .with_seed(42)
        .with_gvt_interval(1_000_000) // no GVT before the straggler lands
        .with_batch(100_000);
    let seq = Run::new(&ForcedStraggler, &cfg).sequential().go().unwrap();
    let par = Run::new(&ForcedStraggler, &cfg.clone().with_pes(2).with_kps(2))
        .go()
        .unwrap();
    assert_eq!(par.output, seq.output);
    assert_eq!(par.stats.events_committed, seq.stats.events_committed);
    assert!(
        par.stats.primary_rollbacks >= 1,
        "expected the engineered straggler to cause a rollback; stats: {:?}",
        par.stats
    );
    assert!(par.stats.events_rolled_back >= 1);
}

#[test]
fn throttled_optimism_matches_sequential() {
    let seq = Run::new(&storm(), &config()).sequential().go().unwrap();
    for window in [0u64, VirtualTime::STEP, 20 * VirtualTime::STEP] {
        let par = Run::new(
            &storm(),
            &config().with_pes(2).with_kps(8).with_lookahead(window),
        )
        .go()
        .unwrap();
        assert_eq!(par.output, seq.output, "window={window}");
        assert_eq!(par.stats.events_committed, seq.stats.events_committed);
    }
}

#[test]
fn state_saving_matches_reverse_computation() {
    // The GTW-style state-saving rollback and reverse computation must be
    // observationally identical — only the undo machinery differs.
    let seq = Run::new(&storm(), &config()).sequential().go().unwrap();
    for pes in [1usize, 2, 4] {
        let ss = Run::new(&storm(), &config().with_pes(pes).with_kps(8))
            .state_saving()
            .go()
            .unwrap();
        assert_eq!(ss.output, seq.output, "pes={pes}");
        assert_eq!(ss.stats.events_committed, seq.stats.events_committed);
    }
}

#[test]
fn state_saving_survives_forced_straggler() {
    let cfg = EngineConfig::new(VirtualTime(250_000))
        .with_seed(42)
        .with_gvt_interval(1_000_000)
        .with_batch(100_000);
    let seq = Run::new(&ForcedStraggler, &cfg).sequential().go().unwrap();
    let ss = Run::new(&ForcedStraggler, &cfg.clone().with_pes(2).with_kps(2))
        .state_saving()
        .go()
        .unwrap();
    assert_eq!(ss.output, seq.output);
    assert!(ss.stats.primary_rollbacks >= 1, "stats: {:?}", ss.stats);
}

/// Rollback cascades that stay on one PE, forced deterministically.
///
/// Four LPs under the default linear mapping with 4 KPs on 2 PEs: LP 0
/// (KP 0) and LP 1 (KP 1) share PE 0, LP 2 sits on PE 1, LP 3 is idle. LP 1
/// self-ticks far into virtual time and pokes LP 0 on every tick; with
/// `echo`, LP 0 answers every poke with two echoes back to LP 1. LP 2's one
/// event holds its handler (a gate on LP 1's progress, not a sleep) until
/// PE 0 has executed all of that, then sends `Late` into LP 0's past; `Late`
/// in turn sends `Hit` into LP 1's past.
struct LocalCascade {
    echo: bool,
    /// `Some` on the parallel run: LP 1's latest tick time, which LP 2
    /// waits on. `None` for the sequential oracle, which executes LP 2's
    /// event first and must not wait.
    gate: Option<std::sync::atomic::AtomicU64>,
}

const CASCADE_END: u64 = 40_000;

#[derive(Clone, Debug)]
enum Cascade {
    Tick,
    Poke,
    Echo,
    Stall,
    Late,
    Hit,
}

impl Model for LocalCascade {
    type State = LpState;
    type Payload = (Cascade, u64);
    type Output = Out;

    fn n_lps(&self) -> u32 {
        4
    }

    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, Self::Payload>) -> LpState {
        match lp {
            1 => ctx.schedule_at(1, VirtualTime(100), 1, (Cascade::Tick, 0)),
            2 => ctx.schedule_at(2, VirtualTime(5), 2, (Cascade::Stall, 0)),
            _ => {}
        }
        LpState::default()
    }

    fn handle(
        &self,
        state: &mut LpState,
        (kind, saved): &mut Self::Payload,
        ctx: &mut EventCtx<'_, Self::Payload>,
    ) {
        use std::sync::atomic::Ordering::SeqCst;
        let draw = ctx.rng().integer(0, 9);
        *saved = draw;
        state.hops += 1;
        state.weight += draw;
        let now = ctx.now().0;
        match kind {
            Cascade::Tick => {
                if let Some(gate) = &self.gate {
                    gate.fetch_max(now, SeqCst);
                }
                ctx.schedule(0, 5, now, (Cascade::Poke, 0));
                if now < CASCADE_END {
                    ctx.schedule_self(10, 1, (Cascade::Tick, 0));
                }
            }
            Cascade::Poke if self.echo => {
                ctx.schedule(1, 3, 2 * now, (Cascade::Echo, 0));
                ctx.schedule(1, 4, 2 * now + 1, (Cascade::Echo, 0));
            }
            Cascade::Stall => {
                if let Some(gate) = &self.gate {
                    // Released by LP 1's last tick; the bound only keeps a
                    // broken kernel from hanging the suite.
                    let t0 = std::time::Instant::now();
                    while gate.load(SeqCst) < CASCADE_END && t0.elapsed().as_secs() < 20 {
                        std::thread::yield_now();
                    }
                }
                ctx.schedule(0, 500, 3, (Cascade::Late, 0));
            }
            Cascade::Late => ctx.schedule(1, 100, 4, (Cascade::Hit, 0)),
            Cascade::Poke | Cascade::Echo | Cascade::Hit => {}
        }
    }

    fn reverse(&self, state: &mut LpState, (_, saved): &mut Self::Payload, _ctx: &ReverseCtx) {
        state.hops -= 1;
        state.weight -= *saved;
    }

    fn finish(&self, _lp: LpId, state: &LpState, out: &mut Out) {
        out.hops += state.hops;
        out.weight += state.weight;
    }
}

/// The 2-PE run of [`LocalCascade`], already checked against the sequential
/// oracle; auditor on (so fossil collection walks every committed record's
/// slice of the flat child log against the conservation ledger), no GVT
/// round before the straggler lands.
fn run_local_cascade(echo: bool) -> RunResult<Out> {
    let cfg = EngineConfig::new(VirtualTime(CASCADE_END + 1_000))
        .with_seed(7)
        .with_audit(true)
        .with_gvt_interval(1_000_000)
        .with_batch(1_000_000);
    let seq = Run::new(&LocalCascade { echo, gate: None }, &cfg)
        .sequential()
        .go()
        .unwrap();
    let gated = LocalCascade {
        echo,
        gate: Some(std::sync::atomic::AtomicU64::new(0)),
    };
    let par = Run::new(&gated, &cfg.with_pes(2).with_kps(4)).go().unwrap();
    assert_eq!(par.output, seq.output);
    assert_eq!(par.stats.events_committed, seq.stats.events_committed);
    par
}

/// A rollback that re-enters the kernel's rollback path while it is still
/// unwinding. `Late` rolls KP 0 back; every poke it pops cancels two echoes
/// that KP 1 has already processed, so each first echo opens a secondary
/// rollback of KP 1 *inside* KP 0's. The nested frame pops ticks whose
/// pokes are addressed to KP 0, the KP mid-rollback. They are always found
/// pending — a child's timestamp is strictly later than its parent's
/// (`schedule` rejects zero delay), so the outer frame, popping newest
/// first, has already requeued them — which is the only form of re-entry a
/// key-ordered list admits. When the nested frame returns, the outer one
/// must go on to its *second* echo: its children have to survive on the
/// cancel stack beneath the nested frame's.
#[test]
fn nested_rollback_cancels_into_the_kp_that_is_mid_rollback() {
    let par = run_local_cascade(true);
    let s = &par.stats;
    assert_eq!(s.primary_rollbacks, 1, "stats: {s:?}");
    // About one nested frame per undone poke (~4000); far fewer would mean
    // the gate failed to hold the straggler back.
    assert!(s.secondary_rollbacks > 1_000, "stats: {s:?}");
    assert!(s.events_rolled_back > 6_000, "stats: {s:?}");
}

/// A rollback started from inside `execute`. `Late` arrives from PE 1 and
/// rolls KP 0 back (first primary rollback, from the inbox). Executing it
/// then schedules `Hit` into the past of KP 1 *on the same PE*: the second
/// primary rollback can only come from `execute`'s own child loop, while
/// `Late` is not yet on KP 0's list. It pops every tick of KP 1, each
/// cancelling a poke addressed to KP 0 — the executing event's KP, whose
/// record, child-log entries and trace hops must not exist yet.
#[test]
fn rollback_from_inside_execute_reaches_the_executing_events_kp() {
    let par = run_local_cascade(false);
    let s = &par.stats;
    assert_eq!(s.primary_rollbacks, 2, "stats: {s:?}");
    assert_eq!(s.secondary_rollbacks, 0, "stats: {s:?}");
    assert!(s.events_rolled_back > 4_000, "stats: {s:?}");
}

#[test]
fn rollback_histogram_accounts_for_all_rolled_back_events() {
    let par = Run::new(&storm(), &config().with_pes(4).with_kps(16))
        .go()
        .unwrap();
    let s = &par.stats;
    let hist_rollbacks: u64 = s.rollback_lengths.iter().sum();
    assert_eq!(
        hist_rollbacks,
        s.total_rollbacks(),
        "every rollback is bucketed"
    );
    if s.total_rollbacks() > 0 {
        assert!(s.mean_rollback_length() >= 1.0);
    }
}

#[test]
fn engine_stats_are_consistent() {
    let par = Run::new(&storm(), &config().with_pes(2).with_kps(8))
        .go()
        .unwrap();
    let s = &par.stats;
    // processed = committed + rolled back (+ any still-uncommitted, which is
    // zero after termination).
    assert_eq!(
        s.events_processed,
        s.events_committed + s.events_rolled_back
    );
    assert!(s.gvt_rounds >= 1);
    assert_eq!(s.fossils_collected, s.events_committed);
}
