//! Protocol models: the crate's real lock-free code driven by small
//! scripted scenarios, with ground-truth invariants checked against a
//! plain-`Mutex` oracle (safe: virtual threads are serialized by the
//! driver, so the oracle sees the exact global order of events).
//!
//! Every model runs the **production** types — `SpscRing`, `CommFabric`,
//! `GvtRound`, `AbortableBarrier`, `WindowSync` — not re-implementations;
//! the `sync` facade routes their atomics through the explorer.

use super::mutation::Mutation;
use super::rt::{check, explore, yield_now, ExploreConfig, ModelReport};
use crate::comm::{CommFabric, SpscRing};
use crate::event::{ChildRef, EventId, EventKey, Remote};
use crate::fault::{FaultPlan, FaultState};
use crate::gvt::GvtRound;
use crate::obs::blame::CascadeTag;
use crate::parallel::window::{hand_off, WindowSync};
use crate::pool::VecPool;
use crate::stats::EngineStats;
use crate::sync::AbortableBarrier;
use crate::time::VirtualTime;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// All model names, in the order the runner executes them.
pub const MODEL_NAMES: [&str; 5] = ["ring", "ring_spill", "quiesce", "barrier", "window"];

/// Run the named model under `cfg`. Returns `None` for unknown names.
pub fn run_model(name: &str, cfg: &ExploreConfig) -> Option<ModelReport> {
    Some(match name {
        "ring" => ring(cfg),
        "ring_spill" => ring_spill(cfg),
        "quiesce" => quiesce(cfg),
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
        "quiesce" => {}
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
        Mutation::QuiesceSampledBeforeB2 => "quiesce",
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

fn recv_time(m: &Remote<()>) -> u64 {
    match m {
        Remote::Anti(c, _) => c.key.recv_time.0,
        Remote::Positive(e) => e.key.recv_time.0,
    }
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
// quiesce: Time Warp's GVT round agrees on quiescence and a safe minimum
// ---------------------------------------------------------------------------

/// Two PEs run one GVT round's quiescence check as `PeRuntime::quiesce`
/// does: B1, then passes of settling (flush, drain, poll the counters until
/// they agree or stop moving) followed by the production agreement
/// [`GvtRound::agree`] on a real barrier, each PE reporting its queue head.
/// PE 0 has an event at 90 queued and one message (receive time 1) still in
/// its send buffer: counted in `sent` before the round, in no ring yet. So
/// the machine is quiet only once PE 0 has flushed and PE 1 has drained.
///
/// Invariants:
///
/// * both PEs return the same `quiet` from every pass (kills sampling the
///   counters before B2: a PE that settles early reads them before its
///   peer's drain, the other PE leaves, and the first is stranded at the
///   next B2);
/// * once quiet, no message is left in a send buffer or a ring;
/// * the quiet pass's `min_report` is at most the true minimum, 1.
pub fn quiesce(cfg: &ExploreConfig) -> ModelReport {
    explore("quiesce", cfg, |s| {
        let fab = Arc::new(CommFabric::<()>::with_ring_slots(2, 2));
        let gvt = Arc::new(GvtRound::new(2, 0));
        let barrier = Arc::new(AbortableBarrier::new(2));
        let passes = Arc::new(Mutex::new([Vec::new(), Vec::new()]));
        for pe in 0..2 {
            let (fab, gvt, barrier, passes) =
                (fab.clone(), gvt.clone(), barrier.clone(), passes.clone());
            s.thread(if pe == 0 { "pe0" } else { "pe1" }, move || {
                let (mut buf, mut head) = if pe == 0 {
                    gvt.count_sent();
                    (vec![msg(0)], 90)
                } else {
                    (Vec::new(), u64::MAX)
                };
                let mut pool = VecPool::new();
                barrier.wait().expect("never aborted"); // B1
                loop {
                    let mut last = None;
                    loop {
                        if !buf.is_empty() {
                            fab.push_batch(0, 1, std::mem::take(&mut buf));
                        }
                        let mut inbox = Vec::new();
                        let n = fab.drain_to(pe, &mut inbox, &mut pool);
                        if n > 0 {
                            gvt.count_received(n);
                        }
                        head = inbox.iter().map(recv_time).fold(head, u64::min);
                        let now = gvt.counters();
                        if now.0 == now.1 || last == Some(now) {
                            break;
                        }
                        last = Some(now);
                        yield_now();
                    }
                    let quiet = gvt.agree(pe, Some(head), || barrier.wait());
                    let quiet = quiet.expect("never aborted");
                    passes.lock().unwrap()[pe].push(quiet);
                    if quiet {
                        let left = buf.len() as u64 + fab.inbox_depth(0) + fab.inbox_depth(1);
                        check(
                            left == 0,
                            &format!("pe{pe}: quiet with {left} message(s) left"),
                        );
                        let min = gvt.min_report();
                        check(min <= 1, &format!("pe{pe}: agreed {min}, the minimum is 1"));
                        return;
                    }
                }
            });
        }
        s.finale(move || {
            let p = passes.lock().unwrap();
            check(
                p[0] == p[1],
                &format!("the PEs disagree on quiet: {:?}", *p),
            );
            let (mut pool, mut rest) = (VecPool::new(), Vec::new());
            for pe in 0..2 {
                fab.drain_to(pe, &mut rest, &mut pool);
            }
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
    fn quiesce_model_is_clean_and_complete() {
        let _g = serial();
        mutation::set(None);
        assert_clean("quiesce");
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
