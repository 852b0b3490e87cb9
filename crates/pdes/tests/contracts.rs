//! Contract enforcement: the kernels reject model behaviour that would
//! silently break Time Warp semantics (zero-delay self-ties, events to
//! nonexistent LPs, bad configs) rather than corrupting a run.

use pdes::prelude::*;

/// Minimal model scaffold whose behaviour is driven by a closure-selected
/// variant.
struct Misbehaving {
    mode: Mode,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    ZeroDelay,
    InitAtZero,
    BadDestination,
    Fine,
}

#[derive(Clone, Debug)]
struct Tick;

impl Model for Misbehaving {
    type State = ();
    type Payload = Tick;
    type Output = ();

    fn n_lps(&self) -> u32 {
        2
    }

    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, Tick>) {
        if lp == 0 {
            let t = if self.mode == Mode::InitAtZero {
                VirtualTime::ZERO
            } else {
                VirtualTime::from_steps(1)
            };
            ctx.schedule_at(0, t, 0, Tick);
        }
    }

    fn handle(&self, _s: &mut (), _p: &mut Tick, ctx: &mut EventCtx<'_, Tick>) {
        match self.mode {
            Mode::ZeroDelay => ctx.schedule_self(0, 1, Tick),
            Mode::BadDestination => ctx.schedule(99, 10, 1, Tick),
            _ => {}
        }
    }

    fn reverse(&self, _s: &mut (), _p: &mut Tick, _ctx: &ReverseCtx) {}

    fn finish(&self, _lp: LpId, _s: &(), _out: &mut ()) {}
}

fn cfg() -> EngineConfig {
    EngineConfig::new(VirtualTime::from_steps(5))
}

#[test]
#[should_panic(expected = "zero-delay")]
fn zero_delay_events_are_rejected() {
    let _ = Run::new(
        &Misbehaving {
            mode: Mode::ZeroDelay,
        },
        &cfg(),
    )
    .sequential()
    .go();
}

#[test]
#[should_panic(expected = "recv_time > 0")]
fn init_events_at_time_zero_are_rejected() {
    let _ = Run::new(
        &Misbehaving {
            mode: Mode::InitAtZero,
        },
        &cfg(),
    )
    .sequential()
    .go();
}

#[test]
#[should_panic]
fn events_to_nonexistent_lps_are_rejected() {
    let _ = Run::new(
        &Misbehaving {
            mode: Mode::BadDestination,
        },
        &cfg(),
    )
    .sequential()
    .go();
}

#[test]
fn well_behaved_model_runs() {
    let r = Run::new(&Misbehaving { mode: Mode::Fine }, &cfg())
        .sequential()
        .go()
        .unwrap();
    assert_eq!(r.stats.events_committed, 1);
}

#[test]
fn empty_models_are_rejected() {
    struct Empty;
    impl Model for Empty {
        type State = ();
        type Payload = Tick;
        type Output = ();
        fn n_lps(&self) -> u32 {
            0
        }
        fn init(&self, _lp: LpId, _ctx: &mut InitCtx<'_, Tick>) {}
        fn handle(&self, _s: &mut (), _p: &mut Tick, _c: &mut EventCtx<'_, Tick>) {}
        fn reverse(&self, _s: &mut (), _p: &mut Tick, _c: &ReverseCtx) {}
        fn finish(&self, _lp: LpId, _s: &(), _o: &mut ()) {}
    }
    let seq = Run::new(&Empty, &cfg()).sequential().go();
    assert!(
        matches!(seq, Err(RunError::ConfigInvalid { ref reason }) if reason.contains("no LPs")),
        "expected ConfigInvalid, got {seq:?}"
    );
    let par = Run::new(&Empty, &cfg()).go();
    assert!(
        matches!(par, Err(RunError::ConfigInvalid { ref reason }) if reason.contains("no LPs")),
        "expected ConfigInvalid, got {par:?}"
    );
}

#[test]
fn mapping_lp_count_mismatch_is_rejected() {
    let mapping = LinearMapping::new(5, 2, 1);
    let r = Run::new(&Misbehaving { mode: Mode::Fine }, &cfg())
        .mapping(&mapping)
        .go();
    assert!(
        matches!(r, Err(RunError::ConfigInvalid { ref reason }) if reason.contains("mismatch")),
        "expected ConfigInvalid, got {r:?}"
    );
}

#[test]
fn horizon_zero_runs_nothing() {
    let r = Run::new(
        &Misbehaving { mode: Mode::Fine },
        &EngineConfig::new(VirtualTime::ZERO),
    )
    .sequential()
    .go()
    .unwrap();
    assert_eq!(r.stats.events_committed, 0);
}

#[test]
fn parallel_with_more_kps_than_lps_is_clamped_by_mapping() {
    // LinearMapping clamps KPs to the LP count; the engine accepts it.
    let r = Run::new(
        &Misbehaving { mode: Mode::Fine },
        &cfg().with_pes(1).with_kps(64),
    )
    .go()
    .unwrap();
    assert_eq!(r.stats.events_committed, 1);
}

/// Property test for the scheduler audit contract: all four pending-set
/// implementations, driven through identical randomized push/pop/remove
/// scripts, must (a) pop identical `(key, id)` sequences, (b) report sound
/// internal structure via `check_invariants()` after *every* operation, and
/// (c) agree on `audit_digest()` — both with each other and with an
/// incrementally maintained XOR mirror, exactly the cross-check the runtime
/// auditor performs at GVT rounds. Timestamps span several steps (many
/// buckets of the ladder queue), with a far-future tail past its ring,
/// stragglers behind the last pop (rollback requeues), and the checkpoint
/// capture's drain-and-re-push.
#[test]
fn scheduler_audit_contract_under_random_scripts() {
    use pdes::audit::event_fingerprint;
    use pdes::event::{EventId, EventKey, QueueEntry};
    use pdes::prelude::SlotRef;
    use pdes::rng::{stream_seed, Clcg4};
    use pdes::scheduler::{CalendarQueue, EventQueue, HeapQueue, LadderQueue, SplayQueue};

    const STEP: u64 = VirtualTime::STEP;
    const NAMES: [&str; 4] = ["ladder", "heap", "splay", "calendar"];

    fn make(t: u64, dst: u32, tie: u64, seq: u64) -> QueueEntry {
        QueueEntry {
            id: EventId::new(0, seq),
            key: EventKey {
                recv_time: VirtualTime(t),
                dst,
                tie,
                src: 0,
                send_time: VirtualTime::ZERO,
            },
            // Payloads live outside the queues; any unique tag works here.
            slot: SlotRef {
                idx: seq as u32,
                gen: 0,
            },
        }
    }

    fn pop_all(queues: &mut [Box<dyn EventQueue>]) -> Vec<Option<(EventKey, EventId)>> {
        queues
            .iter_mut()
            .map(|q| q.pop().map(|e| (e.key, e.id)))
            .collect()
    }

    fn agree(got: &[Option<(EventKey, EventId)>], case: u64) {
        for (name, g) in NAMES.iter().zip(got).skip(1) {
            assert_eq!(*g, got[0], "case {case}: ladder vs {name} pop diverged");
        }
    }

    for case in 0..48u64 {
        let mut rng = Clcg4::new(stream_seed(0xAD17_C0DE, case));
        let n_ops = rng.integer(20, 400) as usize;
        let mut queues: Vec<Box<dyn EventQueue>> = vec![
            Box::new(LadderQueue::new()),
            Box::new(HeapQueue::new()),
            Box::new(SplayQueue::new()),
            Box::new(CalendarQueue::new()),
        ];
        let mut live: Vec<(EventId, EventKey)> = Vec::new();
        let mut mirror = 0u64; // kernel-style incremental XOR fingerprint
        let mut seq = 0u64;
        let mut at = STEP; // last popped receive time

        for _ in 0..n_ops {
            // push-biased: 0..=4 push, 5..=7 pop, 8 remove, 9 capture
            let op = rng.integer(0, 9);
            let t = match rng.integer(0, 9) {
                0 => at + rng.integer(3 * STEP, 40 * STEP), // far-future tail
                1 | 2 => at - rng.integer(0, at.min(2 * STEP)), // straggler
                _ => at + rng.integer(0, 3 * STEP),
            };
            let dst = rng.integer(0, 4) as u32;
            let tie = rng.integer(0, 500);
            match op {
                0..=4 => {
                    seq += 1;
                    let e = make(t, dst, tie, seq);
                    mirror ^= event_fingerprint(e.id, &e.key);
                    live.push((e.id, e.key));
                    for q in &mut queues {
                        q.push(e);
                    }
                }
                5..=7 => {
                    let got = pop_all(&mut queues);
                    agree(&got, case);
                    if let Some((key, id)) = got[0] {
                        mirror ^= event_fingerprint(id, &key);
                        let pos = live.iter().position(|&(i, _)| i == id).unwrap();
                        live.remove(pos);
                        at = key.recv_time.0;
                    }
                }
                8 => {
                    if live.is_empty() {
                        continue;
                    }
                    let (id, key) = live.remove((tie as usize) % live.len());
                    mirror ^= event_fingerprint(id, &key);
                    for q in &mut queues {
                        assert!(q.remove(id, key).is_some(), "live event missing from queue");
                    }
                }
                _ => {
                    // `ckpt::capture_part`: drain everything, re-push it.
                    let mut drained: Vec<Vec<QueueEntry>> = vec![Vec::new(); queues.len()];
                    for (q, out) in queues.iter_mut().zip(&mut drained) {
                        out.extend(std::iter::from_fn(|| q.pop()));
                    }
                    for (name, d) in NAMES.iter().zip(&drained).skip(1) {
                        assert_eq!(*d, drained[0], "case {case}: ladder vs {name} capture");
                    }
                    for (q, out) in queues.iter_mut().zip(drained) {
                        out.into_iter().for_each(|e| q.push(e));
                    }
                }
            }
            for (name, q) in NAMES.iter().zip(&queues) {
                if let Err(broken) = q.check_invariants() {
                    panic!("case {case}: {name} invariant broken: {broken}");
                }
                assert_eq!(
                    q.audit_digest(),
                    Some(mirror),
                    "case {case}: {name} audit digest diverged from XOR mirror"
                );
                assert_eq!(q.len(), live.len());
            }
        }

        // Drain: queues must agree all the way down and end at digest 0.
        loop {
            let got = pop_all(&mut queues);
            agree(&got, case);
            match got[0] {
                Some((key, id)) => mirror ^= event_fingerprint(id, &key),
                None => break,
            }
        }
        assert_eq!(mirror, 0, "case {case}: drained digest must cancel to zero");
        for q in &queues {
            assert_eq!(q.audit_digest(), Some(0));
            assert!(q.check_invariants().is_ok());
        }
    }
}

#[test]
fn invalid_engine_configs_are_rejected_not_asserted() {
    // Constructed by hand (builders assert); both kernels must reject via
    // validate() instead of executing anything.
    let mut c = cfg().with_pes(2);
    c.n_kps = 1; // fewer KPs than PEs
    let r = Run::new(&Misbehaving { mode: Mode::Fine }, &c).go();
    assert!(
        matches!(r, Err(RunError::ConfigInvalid { .. })),
        "got {r:?}"
    );

    let bad_faults = cfg().with_faults(FaultPlan::new(1).with_delay(7.0));
    let r = Run::new(&Misbehaving { mode: Mode::Fine }, &bad_faults)
        .sequential()
        .go();
    assert!(
        matches!(r, Err(RunError::ConfigInvalid { .. })),
        "got {r:?}"
    );

    // State saving is a rollback mechanism and the oracle never rolls back:
    // asking for both is rejected, not silently ignored.
    let r = Run::new(&Misbehaving { mode: Mode::Fine }, &cfg())
        .sequential()
        .state_saving()
        .go();
    assert!(
        matches!(r, Err(RunError::ConfigInvalid { ref reason }) if reason.contains("state saving")),
        "got {r:?}"
    );
}
