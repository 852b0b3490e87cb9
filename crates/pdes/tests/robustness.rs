//! Failure-path tests for the hardened Time Warp kernel: panic containment
//! (a poisoned handler must surface as [`RunError::PePanic`], not a deadlock
//! or abort), the GVT liveness watchdog, the wall-clock deadline, and the
//! structured diagnostics attached to each failure.

use std::time::{Duration, Instant};

use pdes::prelude::*;

/// Token ring where one LP's handler panics deterministically after a few
/// events — mid-run, while other PEs are deep in optimistic execution.
struct PanicRing {
    n_lps: u32,
    /// LP whose handler panics...
    victim: u32,
    /// ...once it has received this many events. 0 = never panic.
    after: u64,
}

#[derive(Default, Clone)]
struct RingState {
    received: u64,
}

#[derive(Default, Debug, PartialEq, Eq)]
struct RingOut {
    received: u64,
}

impl Merge for RingOut {
    fn merge(&mut self, other: Self) {
        self.received += other.received;
    }
}

impl Model for PanicRing {
    type State = RingState;
    type Payload = ();
    type Output = RingOut;

    fn n_lps(&self) -> u32 {
        self.n_lps
    }

    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, ()>) -> RingState {
        ctx.schedule_at(lp, VirtualTime::from_steps(1), lp as u64, ());
        RingState::default()
    }

    fn handle(&self, state: &mut RingState, _p: &mut (), ctx: &mut EventCtx<'_, ()>) {
        state.received += 1;
        if self.after > 0 && ctx.lp() == self.victim && state.received >= self.after {
            panic!("injected test panic at lp {}", ctx.lp());
        }
        let next = (ctx.lp() + 1) % self.n_lps;
        ctx.schedule(next, VirtualTime::STEP, ctx.lp() as u64, ());
    }

    fn reverse(&self, state: &mut RingState, _p: &mut (), _ctx: &ReverseCtx) {
        state.received -= 1;
    }

    fn finish(&self, _lp: LpId, state: &RingState, out: &mut RingOut) {
        out.received += state.received;
    }
}

fn ring_config() -> EngineConfig {
    EngineConfig::new(VirtualTime::from_steps(50))
        .with_seed(7)
        .with_pes(2)
        .with_kps(4)
        .with_gvt_interval(8)
        .with_batch(2)
}

/// A panicking handler must produce `RunError::PePanic` — with the decoded
/// payload, the panicking PE's id, and per-PE diagnostics — promptly (all
/// worker threads joined, no deadlocked barrier) under the default scheduler
/// and the heap reference.
#[test]
fn handler_panic_is_contained_on_every_scheduler() {
    for sched in [SchedulerKind::default(), SchedulerKind::Heap] {
        let model = PanicRing {
            n_lps: 8,
            victim: 5,
            after: 3,
        };
        let cfg = ring_config().with_scheduler(sched);

        let t0 = Instant::now();
        let err = Run::new(&model, &cfg)
            .go()
            .expect_err("panic must not be swallowed");
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(10),
            "containment took {elapsed:?} on {sched:?} — barrier not aborted?"
        );

        match &err {
            RunError::PePanic {
                pe,
                payload,
                diagnostics,
            } => {
                assert!(
                    payload.contains("injected test panic at lp 5"),
                    "payload not decoded: {payload:?} ({sched:?})"
                );
                // LP 5 lives on PE 1 under the 8-LP/4-KP/2-PE linear mapping.
                assert_eq!(*pe, 1, "wrong PE blamed ({sched:?})");
                assert_eq!(
                    diagnostics.pes.len(),
                    2,
                    "missing per-PE diagnostics ({sched:?})"
                );
                for pd in &diagnostics.pes {
                    assert_eq!(pd.pe, pd.pe, "diagnostics present for PE {}", pd.pe);
                }
            }
            other => panic!("expected PePanic on {sched:?}, got {other}"),
        }
        // The Display form carries the failure context for logs.
        let msg = err.to_string();
        assert!(msg.contains("panic"), "unhelpful Display: {msg}");
    }
}

/// Same containment holds for the state-saving rollback backend.
#[test]
fn handler_panic_is_contained_under_state_saving() {
    let model = PanicRing {
        n_lps: 8,
        victim: 5,
        after: 3,
    };
    let err = Run::new(&model, &ring_config())
        .state_saving()
        .go()
        .expect_err("panic must not be swallowed");
    assert!(matches!(err, RunError::PePanic { pe: 1, .. }), "got {err}");
}

/// The same model with the panic disarmed runs to completion — the
/// containment machinery must not disturb a healthy run.
#[test]
fn disarmed_panic_model_still_completes_and_matches_sequential() {
    let model = PanicRing {
        n_lps: 8,
        victim: 5,
        after: 0,
    };
    let seq = Run::new(&model, &ring_config()).sequential().go().unwrap();
    let par = Run::new(&model, &ring_config()).go().unwrap();
    assert_eq!(seq.output, par.output);
}

/// Many events at one identical virtual time with a tiny stall budget: GVT
/// cannot advance between consecutive reduction rounds, so the watchdog
/// must abort with `GvtStalled` instead of spinning.
struct SameTimeBurst {
    n_events: u64,
}

impl Model for SameTimeBurst {
    type State = RingState;
    type Payload = ();
    type Output = RingOut;

    fn n_lps(&self) -> u32 {
        2
    }

    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, ()>) -> RingState {
        if lp == 0 {
            for tie in 0..self.n_events {
                // Identical receive time, distinct tie-breakers: every GVT
                // round while these drain reports the same minimum.
                ctx.schedule_at(0, VirtualTime::from_steps(1), tie, ());
            }
        }
        RingState::default()
    }

    fn handle(&self, state: &mut RingState, _p: &mut (), _ctx: &mut EventCtx<'_, ()>) {
        state.received += 1;
    }

    fn reverse(&self, state: &mut RingState, _p: &mut (), _ctx: &ReverseCtx) {
        state.received -= 1;
    }

    fn finish(&self, _lp: LpId, state: &RingState, out: &mut RingOut) {
        out.received += state.received;
    }
}

#[test]
fn gvt_stall_watchdog_aborts_with_diagnostics() {
    let model = SameTimeBurst { n_events: 200 };
    // Pinned to the barriered protocol: its reduction rounds are in lockstep
    // with execution, so the same-time burst holds GVT flat for the 5-round
    // budget. Incremental rounds are decoupled from execution and drain the
    // burst between two reductions — no stall to observe.
    let cfg = EngineConfig::new(VirtualTime::from_steps(5))
        .with_pes(2)
        .with_kps(2)
        .with_gvt_interval(1)
        .with_batch(1)
        .with_gvt_mode(GvtMode::Barrier)
        .with_gvt_stall_rounds(Some(5));

    let err = Run::new(&model, &cfg).go().expect_err("watchdog must trip");
    match &err {
        RunError::GvtStalled {
            gvt,
            rounds,
            diagnostics,
            ..
        } => {
            assert_eq!(
                *gvt,
                VirtualTime::from_steps(1).0,
                "stalled at the burst time"
            );
            assert!(*rounds >= 5, "tripped after only {rounds} rounds");
            assert_eq!(diagnostics.pes.len(), 2);
            // The burst lives on PE 0; its queue depth shows in the dump.
            assert!(
                diagnostics.pes[0].queue_depth > 0,
                "diagnostics missing the stalled queue: {diagnostics}"
            );
        }
        other => panic!("expected GvtStalled, got {other}"),
    }
}

#[test]
fn stall_watchdog_stays_quiet_on_a_healthy_run() {
    // The same burst model with a permissive budget completes normally.
    let model = SameTimeBurst { n_events: 50 };
    let cfg = EngineConfig::new(VirtualTime::from_steps(5))
        .with_pes(2)
        .with_kps(2)
        .with_gvt_interval(1)
        .with_batch(1)
        .with_gvt_stall_rounds(Some(10_000));
    let out = Run::new(&model, &cfg).go().unwrap();
    assert_eq!(out.output.received, 50);
}

#[test]
fn wall_clock_deadline_aborts_the_run() {
    // A zero deadline trips at the first GVT round while work remains —
    // checked in a different place by each protocol (the barriered round's
    // watchdog; the incremental lead while a round is pending or closing).
    let model = PanicRing {
        n_lps: 8,
        victim: 0,
        after: 0,
    };
    for mode in [GvtMode::Auto, GvtMode::Barrier] {
        let cfg = ring_config()
            .with_gvt_mode(mode)
            .with_gvt_interval(1)
            .with_deadline(Duration::ZERO);
        let err = Run::new(&model, &cfg).go().expect_err("deadline must trip");
        match &err {
            RunError::GvtStalled {
                elapsed,
                diagnostics,
                ..
            } => {
                assert!(*elapsed >= Duration::ZERO);
                assert_eq!(diagnostics.pes.len(), 2, "{mode:?}");
            }
            other => panic!("expected GvtStalled (deadline) under {mode:?}, got {other}"),
        }
    }
}

/// Faults injected at the inter-PE boundary are invisible in committed
/// output: any plan, any seed, still bit-identical to sequential — while
/// the stats prove faults were actually injected and absorbed.
#[test]
fn fault_injection_preserves_determinism_on_the_ring() {
    let model = PanicRing {
        n_lps: 8,
        victim: 0,
        after: 0,
    };
    let seq = Run::new(&model, &ring_config()).sequential().go().unwrap();
    let mut injected_total = 0;
    for seed in [1u64, 2, 0xFA17] {
        let plan = FaultPlan::new(seed)
            .with_delay(0.25)
            .with_duplicate(0.15)
            .with_reorder(0.5);
        let par = Run::new(&model, &ring_config().with_faults(plan))
            .go()
            .unwrap();
        assert_eq!(
            par.output, seq.output,
            "chaos seed {seed} changed committed output"
        );
        injected_total += par.stats.total_injected_faults();
    }
    assert!(
        injected_total > 0,
        "fault layer never fired — rates too low or plumbing broken"
    );
}
