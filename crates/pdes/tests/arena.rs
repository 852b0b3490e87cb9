//! Arena-backed event storage under stress: the {scheduler} × {PE count}
//! determinism matrix drives the zero-copy delivery path through rollbacks
//! and injected comm-layer chaos, and the exhaustion tests prove that an
//! undersized arena surfaces as a structured [`RunError::ArenaExhausted`]
//! (with diagnostics), never a panic or a wedged run.

use pdes::prelude::*;

/// Token storm with rollback-sensitive state (RNG draws saved in the
/// payload) — the same shape the kernel-equivalence suite uses, kept local
/// so this file stands alone.
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
    EngineConfig::new(VirtualTime::from_steps(40))
        .with_seed(0xA1_2E4A)
        .with_kps(16)
        .with_gvt_interval(8)
        .with_batch(4)
}

/// The default scheduler and the heap reference × every PE width, under
/// comm-layer chaos, commit output bit-identical to the sequential oracle.
/// The queues order only small `Copy` handles while payloads stay pinned in
/// the arena; a stale or double-freed slot anywhere in the rollback/fossil
/// path would corrupt a payload and show up here as an output mismatch (or
/// an arena panic).
#[test]
fn scheduler_pe_matrix_is_deterministic_under_chaos() {
    let oracle = Run::new(&storm(), &config()).sequential().go().unwrap();
    assert!(oracle.output.hops > 500, "workload too small to stress");
    let chaos = FaultPlan::new(0xFA11)
        .with_delay(0.25)
        .with_duplicate(0.15)
        .with_reorder(0.5);
    let mut injected_total = 0;
    for sched in [SchedulerKind::default(), SchedulerKind::Heap] {
        for pes in [1, 2, 4] {
            let cfg = config()
                .with_scheduler(sched)
                .with_pes(pes)
                .with_faults(chaos);
            let par = Run::new(&storm(), &cfg)
                .go()
                .unwrap_or_else(|e| panic!("{sched:?} × {pes} PEs failed: {e}"));
            assert_eq!(
                par.output, oracle.output,
                "{sched:?} × {pes} PEs diverged from the sequential oracle"
            );
            assert_eq!(par.stats.events_committed, oracle.stats.events_committed);
            assert!(
                par.stats.arena_peak_slots > 0,
                "arena peak never sampled ({sched:?} × {pes})"
            );
            injected_total += par.stats.total_injected_faults();
        }
    }
    assert!(injected_total > 0, "fault layer never fired");
}

/// An arena too small for the working set must abort with
/// [`RunError::ArenaExhausted`] carrying the configured capacity and per-PE
/// diagnostics — on both kernels.
#[test]
fn exhaustion_is_a_structured_error_on_both_kernels() {
    // The storm seeds 64 events at init; 3 slots cannot even hold those.
    let tiny = config().with_arena_slots(3);

    match Run::new(&storm(), &tiny).sequential().go() {
        Err(RunError::ArenaExhausted {
            pe,
            capacity,
            diagnostics,
        }) => {
            assert_eq!(pe, 0);
            assert_eq!(capacity, 3);
            assert_eq!(diagnostics.pes.len(), 1, "missing diagnostics");
        }
        other => panic!("sequential: expected ArenaExhausted, got {other:?}"),
    }

    match Run::new(&storm(), &tiny.clone().with_pes(2)).go() {
        Err(RunError::ArenaExhausted { capacity, .. }) => {
            assert_eq!(capacity, 3);
        }
        other => panic!("parallel: expected ArenaExhausted, got {other:?}"),
    }
}

/// A right-sized arena (capacity == observed peak) completes; one slot less
/// fails. Pins down that `arena_peak_slots` is the true high-water mark and
/// that capacity is enforced exactly, not approximately.
#[test]
fn reported_peak_is_the_exact_capacity_floor() {
    let baseline = Run::new(&storm(), &config()).sequential().go().unwrap();
    let peak = baseline.stats.arena_peak_slots as u32;
    assert!(peak > 0);

    let exact = Run::new(&storm(), &config().with_arena_slots(peak))
        .sequential()
        .go()
        .unwrap();
    assert_eq!(exact.output, baseline.output);

    assert!(
        matches!(
            Run::new(&storm(), &config().with_arena_slots(peak - 1))
                .sequential()
                .go(),
            Err(RunError::ArenaExhausted { .. })
        ),
        "peak - 1 slots must exhaust"
    );
}
