//! Protocol models: the crate's real lock-free code driven by small
//! scripted scenarios, with ground-truth invariants checked against a
//! plain-`Mutex` oracle (safe: virtual threads are serialized by the
//! driver, so the oracle sees the exact global order of events).
//!
//! Every model runs the **production** types — `SpscRing`, `CommFabric`,
//! `IncGvt`, `AbortableBarrier` — not re-implementations; the `sync`
//! facade routes their atomics through the explorer.

use super::mutation::Mutation;
use super::rt::{check, explore, yield_now, ExploreConfig, ModelReport};
use crate::comm::{CommFabric, SpscRing};
use crate::event::{ChildRef, EventId, EventKey, Remote};
use crate::fault::{FaultPlan, FaultState};
use crate::gvt::IncGvt;
use crate::obs::blame::CascadeTag;
use crate::parallel::window::{hand_off, WindowSync};
use crate::pool::VecPool;
use crate::stats::EngineStats;
use crate::sync::AbortableBarrier;
use crate::time::VirtualTime;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// All model names, in the order the runner executes them.
pub const MODEL_NAMES: [&str; 5] = ["ring", "ring_spill", "gvt_inc", "barrier", "window"];

/// Run the named model under `cfg`. Returns `None` for unknown names.
pub fn run_model(name: &str, cfg: &ExploreConfig) -> Option<ModelReport> {
    Some(match name {
        "ring" => ring(cfg),
        "ring_spill" => ring_spill(cfg),
        "gvt_inc" => gvt_inc(cfg),
        "barrier" => barrier(cfg),
        "window" => window(cfg),
        _ => return None,
    })
}

/// Per-model default budgets, tuned so the whole suite explores its full
/// bounded state space in seconds (`complete = true` is asserted by CI).
pub fn default_cfg(name: &str) -> ExploreConfig {
    let mut cfg = ExploreConfig {
        max_schedules: 400_000,
        max_preemptions: 2,
        max_read_depth: 1,
        max_steps: 5_000,
        wall_ms: 120_000,
    };
    match name {
        // The publication race needs a read depth of at least 1 to observe
        // a stale head; 2 also covers wrapped re-use of a slot.
        "ring" => cfg.max_read_depth = 2,
        "ring_spill" => {}
        "gvt_inc" => {}
        "barrier" => {}
        "window" => {}
        _ => {}
    }
    cfg
}

/// Which model kills each seeded mutation (`mcheck --self-test`).
pub fn mutation_target(m: Mutation) -> &'static str {
    match m {
        Mutation::RingPublishRelaxed => "ring",
        Mutation::SwallowSpill => "ring_spill",
        Mutation::GvtSkipEpochBump | Mutation::GvtReportRoundRelaxed => "gvt_inc",
        Mutation::BarrierAbortNoNotify => "barrier",
        Mutation::WindowDoneBeforeFlush | Mutation::WindowDoneRelaxed | Mutation::WindowOneSlot => {
            "window"
        }
    }
}

// ---------------------------------------------------------------------------
// ring: SPSC transfer, including head/tail wraparound
// ---------------------------------------------------------------------------

/// A producer pushes values (retrying past full) while a consumer drains;
/// the ring's indices start at `usize::MAX - 1` so the monotone counters
/// wrap mid-scenario. Invariant: the finale drains the remainder and the
/// received sequence equals the sent sequence exactly — nothing lost,
/// duplicated, or reordered.
pub fn ring(cfg: &ExploreConfig) -> ModelReport {
    explore("ring", cfg, |s| {
        let ring = Arc::new(SpscRing::<u64>::with_start_index(2, usize::MAX - 1));
        let sent = Arc::new(Mutex::new(Vec::new()));
        let got = Arc::new(Mutex::new(Vec::new()));
        {
            let (ring, sent) = (ring.clone(), sent.clone());
            s.thread("producer", move || {
                let mut v = 0u64;
                for _ in 0..4 {
                    // SAFETY: this scenario thread is the unique producer.
                    match unsafe { ring.try_push(v) } {
                        Ok(()) => {
                            sent.lock().unwrap().push(v);
                            v += 1;
                        }
                        Err(_) => yield_now(),
                    }
                }
            });
        }
        {
            let (ring, got) = (ring.clone(), got.clone());
            s.thread("consumer", move || {
                for _ in 0..2 {
                    // SAFETY: unique consumer; the finale only reuses the
                    // ring after this thread finished (join = HB edge).
                    let _ = unsafe { ring.consume(|x| got.lock().unwrap().push(x)) };
                    yield_now();
                }
            });
        }
        s.finale(move || {
            // SAFETY: every scenario thread finished; the finale is the
            // sole remaining accessor.
            let _ = unsafe { ring.consume(|x| got.lock().unwrap().push(x)) };
            let sent = sent.lock().unwrap();
            let got = got.lock().unwrap();
            check(
                *got == *sent,
                &format!("ring lost/duplicated/reordered: sent {sent:?}, got {got:?}"),
            );
        });
    })
}

// ---------------------------------------------------------------------------
// ring_spill: in_flight conservation across push/spill/drain
// ---------------------------------------------------------------------------

fn msg(seq: u64) -> Remote<()> {
    Remote::Anti(
        ChildRef {
            id: EventId::new(0, seq),
            key: EventKey {
                recv_time: VirtualTime(seq + 1),
                dst: 0,
                tie: seq,
                src: 0,
                send_time: VirtualTime::ZERO,
            },
        },
        CascadeTag::NONE,
    )
}

fn seqs(msgs: &[Remote<()>]) -> Vec<u64> {
    msgs.iter()
        .map(|m| match m {
            Remote::Anti(c, _) => c.id.seq(),
            Remote::Positive(e) => e.id.seq(),
        })
        .collect()
}

/// A 1-slot channel forces the overflow path: three batches go in, so at
/// least one spills in every interleaving; concurrent drains race the
/// spill latch. Invariants: all three messages arrive exactly once **in
/// order**, and `in_flight` returns to zero (conservation across
/// flush/drain/spill).
pub fn ring_spill(cfg: &ExploreConfig) -> ModelReport {
    explore("ring_spill", cfg, |s| {
        let fab = Arc::new(CommFabric::<()>::with_ring_slots(2, 1));
        let got = Arc::new(Mutex::new(Vec::new()));
        {
            let fab = fab.clone();
            s.thread("sender", move || {
                for i in 0..3u64 {
                    fab.push_batch(0, 1, vec![msg(i)]);
                    yield_now();
                }
            });
        }
        {
            let (fab, got) = (fab.clone(), got.clone());
            s.thread("receiver", move || {
                let mut pool = VecPool::new();
                let mut inbox = Vec::new();
                for _ in 0..2 {
                    fab.drain_to(1, &mut inbox, &mut pool);
                    yield_now();
                }
                got.lock().unwrap().extend(seqs(&inbox));
            });
        }
        s.finale(move || {
            let mut pool = VecPool::new();
            let mut inbox = Vec::new();
            fab.drain_to(1, &mut inbox, &mut pool);
            let mut all = got.lock().unwrap().clone();
            all.extend(seqs(&inbox));
            check(
                all == [0, 1, 2],
                &format!("spill conservation broke: delivered {all:?}, expected [0, 1, 2]"),
            );
            check(
                fab.inbox_depth(1) == 0,
                "in_flight accounting nonzero after a full drain",
            );
        });
    })
}

// ---------------------------------------------------------------------------
// gvt_inc: the incremental GVT reduction never over-estimates
// ---------------------------------------------------------------------------

/// Exact global state, updated by each virtual thread *before* the
/// corresponding facade operation (the driver serializes them, so the
/// oracle is a linearization of the real protocol).
struct GvtTruth {
    /// Per-PE minimum pending receive time (`u64::MAX` = empty).
    queue: [u64; 2],
    /// Receive times of sends still in flight.
    sends: Vec<u64>,
    /// Epoch → number of PEs that contributed a report to it.
    participated: HashMap<u64, u32>,
    /// Epochs closed so far, in close order.
    closed: Vec<u64>,
}

impl GvtTruth {
    fn true_min(&self) -> u64 {
        self.queue
            .iter()
            .copied()
            .chain(self.sends.iter().copied())
            .min()
            .unwrap()
    }
}

/// Two reduction rounds over two PEs, scripting the Mattern two-cut
/// hand-off that the incremental protocol's orderings must protect. The
/// scenario starts mid-run: lead has just processed its event at 55 and
/// sent a message with receive time 55 toward pe1 — the message is in
/// flight, covered by nothing but lead's `send_min`.
///
/// * **epoch 1** — lead reports `min(queue 90, send_min 55) = 55`; pe1
///   (empty queue) reports `MAX` *before* the message lands (legal: it
///   drained an empty inbox), then receives it. The cover hands off from
///   sender to receiver; GVT closes at 55.
/// * **epoch 2** — lead reports 90 (`send_min` reset after its previous
///   report), pe1 reports the straggler's 55. Only pe1's *fresh* round-2
///   report keeps GVT at 55: a stale read of its round-1 report (`MAX`)
///   yields 90 — which is why the round-slot Release / round-check
///   Acquire pair is load-bearing, and exactly what the
///   `GvtReportRoundRelaxed` mutation breaks.
///
/// Invariants at every successful `try_close`:
///
/// * the reduced estimate is ≤ the true min of all LVTs and in-flight
///   send times (safety: fossil collection must never eat the future);
/// * each epoch closes at most once, in increasing order (kills the
///   skipped-epoch-bump mutation, which double-closes one epoch);
/// * every PE participated in the epoch being closed.
pub fn gvt_inc(cfg: &ExploreConfig) -> ModelReport {
    explore("gvt_inc", cfg, |s| {
        let gvt = Arc::new(IncGvt::new(2, 0));
        let gt = Arc::new(Mutex::new(GvtTruth {
            queue: [90, u64::MAX],
            sends: vec![55],
            participated: HashMap::new(),
            closed: Vec::new(),
        }));
        {
            let (gvt, gt) = (gvt.clone(), gt.clone());
            s.thread("lead", move || {
                let mut send_min = 55;
                for _ in 0..2 {
                    gvt.open_round();
                    let e = gvt.current_epoch();
                    let report = {
                        let mut t = gt.lock().unwrap();
                        *t.participated.entry(e).or_insert(0) += 1;
                        t.queue[0].min(send_min)
                    };
                    send_min = u64::MAX;
                    gvt.publish_report(0, report, e);
                    let mut closed = false;
                    for _ in 0..3 {
                        if let Some(g) = gvt.try_close(e) {
                            let mut t = gt.lock().unwrap();
                            check(
                                !t.closed.contains(&e),
                                "one epoch closed twice (missing epoch bump)",
                            );
                            check(
                                g <= t.true_min(),
                                &format!("gvt {g} above the true minimum {}", t.true_min()),
                            );
                            check(
                                t.participated.get(&e).copied().unwrap_or(0) == 2,
                                "round closed before every PE participated",
                            );
                            t.closed.push(e);
                            closed = true;
                            break;
                        }
                        yield_now();
                    }
                    if !closed {
                        // pe1 exhausted its polls in this interleaving; the
                        // checks above still covered every close that did
                        // happen.
                        break;
                    }
                }
            });
        }
        {
            let (gvt, gt) = (gvt.clone(), gt.clone());
            s.thread("pe1", move || {
                'rounds: for target in 1u64..=2 {
                    let mut polls = 0;
                    while gvt.current_epoch() < target {
                        polls += 1;
                        if polls > 3 {
                            // Lead never opened this round in this
                            // interleaving; give up silently.
                            break 'rounds;
                        }
                        yield_now();
                    }
                    let report = {
                        let mut t = gt.lock().unwrap();
                        *t.participated.entry(target).or_insert(0) += 1;
                        t.queue[1]
                    };
                    gvt.publish_report(1, report, target);
                    if target == 1 {
                        // The in-flight message lands *after* our round-1
                        // report: from here on our queue covers it and the
                        // sender's cover is allowed to expire.
                        let mut t = gt.lock().unwrap();
                        t.sends.clear();
                        t.queue[1] = 55;
                    }
                }
            });
        }
        s.finale(move || {
            let t = gt.lock().unwrap();
            check(
                t.closed.windows(2).all(|w| w[0] < w[1]),
                &format!("epochs closed out of order: {:?}", t.closed),
            );
        });
    })
}

// ---------------------------------------------------------------------------
// barrier: abort racing wait never deadlocks or strands a waiter
// ---------------------------------------------------------------------------

/// Two participants rendezvous twice (exercising sense reversal) while a
/// third thread aborts at an arbitrary point. Invariants: the scenario
/// always terminates (a stranded condvar waiter is reported as a
/// deadlock), and per thread the results are monotone — once a wait
/// returns `Err(Aborted)`, every later wait does too.
pub fn barrier(cfg: &ExploreConfig) -> ModelReport {
    explore("barrier", cfg, |s| {
        let b = Arc::new(AbortableBarrier::new(2));
        let log = Arc::new(Mutex::new(HashMap::<&'static str, Vec<bool>>::new()));
        for name in ["w1", "w2"] {
            let (b, log) = (b.clone(), log.clone());
            s.thread(name, move || {
                for _ in 0..2 {
                    let ok = b.wait().is_ok();
                    log.lock().unwrap().entry(name).or_default().push(ok);
                }
            });
        }
        {
            let b = b.clone();
            s.thread("aborter", move || {
                b.abort();
            });
        }
        s.finale(move || {
            let log = log.lock().unwrap();
            for (name, res) in log.iter() {
                let mut seen_err = false;
                for &ok in res {
                    check(
                        !(seen_err && ok),
                        &format!("{name}: wait succeeded after an earlier abort"),
                    );
                    if !ok {
                        seen_err = true;
                    }
                }
            }
        });
    })
}

// ---------------------------------------------------------------------------
// window: the windowed arm's hand-off delivers every window's messages and
// agrees on one minimum
// ---------------------------------------------------------------------------

/// Scripted reports: `REPORTS[pe][w - 1]` is what `pe` hands off for window
/// `w`. They differ between windows, so a report read for the wrong window
/// changes the agreed minimum.
const REPORTS: [[u64; 2]; 2] = [[10, 30], [50, 20]];

/// Two PEs hand off two windows, as the windowed arm's PE loop does. In
/// window 1, PE 0 sent one message to PE 1 (receive time 10, so its report
/// is 10); it sits in PE 0's send buffer and only `hand_off`'s flush pushes
/// it into the ring. PE 1 runs the fault filter on every drain while it
/// waits — with `delay = 1` it holds every message back — so only the
/// verbatim drain after the wait can deliver it.
///
/// Invariants, checked by each PE once it has agreed on a window:
///
/// * PE 1 has delivered every message sent in that window or earlier (a
///   window boundary is a delivery guarantee — kills "done before flush",
///   and "done stored Relaxed" through the unsynchronised ring read);
/// * the agreed minimum equals the true minimum of that window's reports
///   (kills "one report slot", where PE 0's report for window 2 overwrites
///   the one PE 1 is still to read for window 1, and "done stored Relaxed"
///   through a stale report).
pub fn window(cfg: &ExploreConfig) -> ModelReport {
    explore("window", cfg, |s| {
        let fab = Arc::new(CommFabric::<()>::with_ring_slots(2, 2));
        let sync = Arc::new(WindowSync::new(2));
        for (pe, mine) in REPORTS.into_iter().enumerate() {
            let (fab, sync) = (fab.clone(), sync.clone());
            s.thread(if pe == 0 { "pe0" } else { "pe1" }, move || {
                // Sequence numbers of the messages this PE has delivered.
                let mut delivered = Vec::new();
                let mut pool = VecPool::new();
                let mut faults = FaultState::new(FaultPlan::new(1).with_delay(1.0), pe);
                let mut stats = EngineStats::default();
                for w in 1..=2u64 {
                    let mut batch = Some(vec![msg(0)]).filter(|_| pe == 0 && w == 1);
                    let report = mine[w as usize - 1];
                    hand_off(&sync, pe, w, report, || {
                        if let Some(batch) = batch.take() {
                            fab.push_batch(0, 1, batch);
                        }
                    });
                    let mut waited = false;
                    for _ in 0..2 {
                        if sync.all_done(w) {
                            waited = true;
                            break;
                        }
                        if pe == 1 {
                            let mut inbox = Vec::new();
                            fab.drain_to(pe, &mut inbox, &mut pool);
                            let passed = faults.filter(inbox, &mut stats);
                            delivered.extend(seqs(&passed));
                        }
                        yield_now();
                    }
                    if !waited {
                        // The peer never handed off in this interleaving.
                        return;
                    }
                    if pe == 1 {
                        let mut inbox = Vec::new();
                        faults.take_holdback(&mut inbox);
                        fab.drain_to(pe, &mut inbox, &mut pool);
                        delivered.extend(seqs(&inbox));
                        check(
                            delivered == [0],
                            &format!("window {w} passed with {delivered:?} delivered"),
                        );
                    }
                    let agreed = sync.min_report(w);
                    let want = REPORTS.iter().map(|r| r[w as usize - 1]).min().unwrap();
                    check(
                        agreed == want,
                        &format!("pe{pe} agreed {agreed} on window {w}, the minimum is {want}"),
                    );
                }
            });
        }
        s.finale(move || {
            // Empty the rings after every thread has finished, so the
            // fabric is dropped here and holds nothing when it is.
            let (mut pool, mut rest) = (VecPool::new(), Vec::new());
            for pe in 0..2 {
                fab.drain_to(pe, &mut rest, &mut pool);
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::super::mutation;
    use super::*;

    /// Mutations are process-global, so model tests must not overlap.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn assert_clean(name: &str) {
        let r = run_model(name, &default_cfg(name)).unwrap();
        assert!(r.violation.is_none(), "{name} violated: {:?}", r.violation);
        assert!(r.complete, "{name} did not exhaust its bounded state space");
        assert!(r.schedules > 1, "{name} explored only one schedule");
    }

    #[test]
    fn ring_model_is_clean_and_complete() {
        let _g = serial();
        mutation::set(None);
        assert_clean("ring");
    }

    #[test]
    fn ring_spill_model_is_clean_and_complete() {
        let _g = serial();
        mutation::set(None);
        assert_clean("ring_spill");
    }

    #[test]
    fn gvt_inc_model_is_clean_and_complete() {
        let _g = serial();
        mutation::set(None);
        assert_clean("gvt_inc");
    }

    #[test]
    fn barrier_model_is_clean_and_complete() {
        let _g = serial();
        mutation::set(None);
        assert_clean("barrier");
    }

    #[test]
    fn window_model_is_clean_and_complete() {
        let _g = serial();
        mutation::set(None);
        assert_clean("window");
    }

    #[test]
    fn every_seeded_mutation_is_killed() {
        let _g = serial();
        for &m in mutation::all() {
            mutation::set(Some(m));
            let name = mutation_target(m);
            let r = run_model(name, &default_cfg(name)).unwrap();
            mutation::set(None);
            let v = r
                .violation
                .unwrap_or_else(|| panic!("mutation {m:?} survived model {name}"));
            assert!(!v.trace.is_empty(), "{m:?}: violation carries a trace");
        }
    }
}
