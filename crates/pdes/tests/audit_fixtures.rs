//! Deliberately broken models: the runtime auditor must catch each seeded
//! defect and name the offending LP/event, while the same models run to
//! completion (garbage in, garbage out) with the auditor off.

use pdes::audit::AuditCheck;
use pdes::prelude::*;

#[derive(Default, Debug, PartialEq, Eq)]
struct Sum(u64);

impl Merge for Sum {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

// ---------------------------------------------------------------------------
// Fixture 1: a model whose reverse handler does NOT undo the forward handler.
// ---------------------------------------------------------------------------

/// Forward adds 3 to the counter; reverse subtracts only 1. The reverse-replay
/// probe (fingerprint → handle → reverse → fingerprint) must flag the very
/// first execution.
struct BadReverse;

#[derive(Default, Clone)]
struct Counter {
    value: u64,
}

#[derive(Clone, Debug)]
struct Bump;

impl Model for BadReverse {
    type State = Counter;
    type Payload = Bump;
    type Output = Sum;

    fn n_lps(&self) -> u32 {
        4
    }

    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, Bump>) -> Counter {
        if lp == 0 {
            // First (and only seeded) event lands on LP 1.
            ctx.schedule_at(1, VirtualTime::from_steps(1), 0, Bump);
        }
        Counter::default()
    }

    fn handle(&self, state: &mut Counter, _p: &mut Bump, ctx: &mut EventCtx<'_, Bump>) {
        state.value += 3;
        if state.value < 30 {
            ctx.schedule((ctx.lp() + 1) % 4, VirtualTime::STEP, 0, Bump);
        }
    }

    fn reverse(&self, state: &mut Counter, _p: &mut Bump, _ctx: &ReverseCtx) {
        state.value -= 1; // wrong inverse: leaks 2 per undo
    }

    fn finish(&self, _lp: LpId, state: &Counter, out: &mut Sum) {
        out.0 += state.value;
    }

    fn audit_state(&self, _lp: LpId, state: &Counter, h: &mut AuditHasher) {
        h.write_u64(state.value);
    }
}

fn bad_cfg() -> EngineConfig {
    EngineConfig::new(VirtualTime::from_steps(20)).with_seed(0xBAD1)
}

#[test]
fn sequential_auditor_catches_bad_reverse() {
    let err = Run::new(&BadReverse, &bad_cfg().with_audit(true))
        .sequential()
        .go()
        .unwrap_err();
    let v = err
        .audit_violation()
        .unwrap_or_else(|| panic!("expected AuditFailed, got {err}"));
    assert_eq!(v.check, AuditCheck::ReverseReplay);
    // The first executed event is the init event targeting LP 1.
    assert_eq!(v.lp, Some(1), "violation must name the executing LP");
    assert!(v.key.is_some(), "violation must carry the event key");
    assert_eq!(v.key.unwrap().dst, 1);
    assert!(err.to_string().contains("reverse-replay"));
}

#[test]
fn parallel_auditor_catches_bad_reverse() {
    let err = Run::new(
        &BadReverse,
        &bad_cfg().with_audit(true).with_pes(2).with_kps(4),
    )
    .go()
    .unwrap_err();
    let v = err
        .audit_violation()
        .unwrap_or_else(|| panic!("expected AuditFailed, got {err}"));
    assert_eq!(v.check, AuditCheck::ReverseReplay);
    assert!(v.lp.is_some() && v.key.is_some());
}

/// The reverse-replay probe is one function shared by both kernels, so the
/// same defect must produce the same violation — check, LP, event key and
/// fingerprint text — whichever kernel (and PE count) executes it. Only the
/// detecting PE and the event id (per-kernel id spaces) may differ.
#[test]
fn both_kernels_report_the_same_bad_reverse_violation() {
    let cfg = bad_cfg().with_audit(true).with_kps(4);
    let runs = [
        ("sequential", Run::new(&BadReverse, &cfg).sequential().go()),
        (
            "parallel/1",
            Run::new(&BadReverse, &cfg.clone().with_pes(1)).go(),
        ),
        (
            "parallel/2",
            Run::new(&BadReverse, &cfg.clone().with_pes(2)).go(),
        ),
    ];
    let violations: Vec<_> = runs
        .iter()
        .map(|(name, run)| {
            let err = run.as_ref().unwrap_err();
            err.audit_violation()
                .unwrap_or_else(|| panic!("{name}: expected AuditFailed, got {err}"))
        })
        .collect();
    let oracle = violations[0];
    assert_eq!(oracle.check, AuditCheck::ReverseReplay);
    assert!(oracle.detail.contains("expected 0x"), "{}", oracle.detail);
    for ((name, _), v) in runs.iter().zip(&violations) {
        assert_eq!(v.check, oracle.check, "{name}");
        assert_eq!(v.lp, oracle.lp, "{name}");
        assert_eq!(v.key, oracle.key, "{name}");
        assert_eq!(v.detail, oracle.detail, "{name}");
    }
}

#[test]
fn bad_reverse_runs_to_completion_with_audit_off() {
    // Audit off: nothing calls reverse in these configurations, so the
    // defect is invisible and the run must complete.
    let seq = Run::new(&BadReverse, &bad_cfg().with_audit(false))
        .sequential()
        .go()
        .unwrap();
    assert!(seq.stats.events_committed >= 10);
    let par = Run::new(
        &BadReverse,
        &bad_cfg().with_audit(false).with_pes(1).with_kps(4),
    )
    .go()
    .unwrap();
    assert_eq!(par.output, seq.output);
}

// ---------------------------------------------------------------------------
// Fixture 2: a correct model under the auditor's anti-message fault injector.
// ---------------------------------------------------------------------------

/// Token storm (correctly reversible): every hop draws from the reversible
/// RNG, saves the draw in the payload, and reverse restores it exactly.
struct Storm;

#[derive(Default, Clone)]
struct HopState {
    hops: u64,
    weight: u64,
}

#[derive(Clone, Debug)]
struct Token {
    saved_draw: u64,
}

impl Model for Storm {
    type State = HopState;
    type Payload = Token;
    type Output = Sum;

    fn n_lps(&self) -> u32 {
        16
    }

    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, Token>) -> HopState {
        for t in 0..4u64 {
            let offset = ctx.rng().integer(0, VirtualTime::STEP / 2 - 1);
            ctx.schedule_at(
                lp,
                VirtualTime::from_parts(1, offset + 1),
                lp as u64 * 4 + t,
                Token { saved_draw: 0 },
            );
        }
        HopState::default()
    }

    fn handle(&self, state: &mut HopState, token: &mut Token, ctx: &mut EventCtx<'_, Token>) {
        let draw = ctx.rng().integer(0, 999);
        token.saved_draw = draw;
        state.hops += 1;
        state.weight += draw;
        let next = ((ctx.lp() as u64 + 1 + draw) % 16) as u32;
        let delay = VirtualTime::STEP + draw * 1000;
        ctx.schedule(next, delay, state.hops, token.clone());
    }

    fn reverse(&self, state: &mut HopState, token: &mut Token, _ctx: &ReverseCtx) {
        state.hops -= 1;
        state.weight -= token.saved_draw;
    }

    fn finish(&self, _lp: LpId, state: &HopState, out: &mut Sum) {
        out.0 += state.weight;
    }
}

fn storm_cfg(seed: u64) -> EngineConfig {
    EngineConfig::new(VirtualTime::from_steps(40))
        .with_seed(seed)
        .with_pes(2)
        .with_kps(8)
}

/// With the auditor on and a correct model, rollback-heavy parallel runs must
/// pass every check (reverse-replay probes, rollback hashes, anti-message
/// conservation, scheduler digests) and still agree with sequential.
#[test]
fn auditor_passes_correct_model_under_rollbacks() {
    let seq = Run::new(&Storm, &storm_cfg(0xA11D).with_audit(true))
        .sequential()
        .go()
        .unwrap();
    let mut saw_rollback = false;
    for seed in [0xA11Du64, 0xA11E, 0xA11F] {
        let par = Run::new(&Storm, &storm_cfg(seed).with_audit(true))
            .go()
            .unwrap();
        saw_rollback |= par.stats.events_rolled_back > 0;
        if seed == 0xA11D {
            assert_eq!(par.output, seq.output);
        }
    }
    assert!(
        saw_rollback,
        "fixture never rolled back; rollback-hash path not exercised"
    );
}

/// Drop the first anti-message cancellation on each PE (auditor fault
/// injection): the conservation ledger must report the orphaned child by
/// event id. Rollback timing is seed-dependent, so scan a few seeds and
/// require the defect to be caught at least once.
#[test]
fn auditor_catches_dropped_anti_message() {
    let mut caught = 0u32;
    let mut exercised = 0u32;
    for seed in 0..8u64 {
        let cfg = storm_cfg(0x0D20_0000 + seed)
            .with_audit(true)
            .with_audit_drop_anti(0);
        match Run::new(&Storm, &cfg).go() {
            Err(err) => {
                let v = err
                    .audit_violation()
                    .unwrap_or_else(|| panic!("expected AuditFailed, got {err}"));
                assert_eq!(v.check, AuditCheck::AntiConservation);
                assert!(
                    v.id.is_some() && v.key.is_some(),
                    "violation must name the orphaned event: {v}"
                );
                caught += 1;
            }
            Ok(r) => {
                // No cancellation happened on this seed (no rollback crossed
                // an emitted child), so there was nothing to drop.
                exercised += r.stats.events_rolled_back.min(1) as u32;
            }
        }
    }
    assert!(
        caught >= 1,
        "no seed produced a dropped-anti violation (caught={caught}, rollback-only runs={exercised})"
    );
}

#[test]
fn audit_drop_anti_without_audit_is_rejected() {
    let mut cfg = storm_cfg(1);
    cfg.audit = false;
    cfg.audit_drop_anti = Some(0);
    let r = Run::new(&Storm, &cfg).go();
    assert!(
        matches!(r, Err(RunError::ConfigInvalid { .. })),
        "got {r:?}"
    );
}
