//! Per-layer probes: the public functions of each layer, timed from outside.
//!
//! Every probe times [`BATCHES`] batches and reports nanoseconds per
//! operation for each batch, so a row carries a median, an inter-quartile
//! range and — with a thousand samples — a p99. Inputs are generated before
//! the clock starts; outputs pass through `black_box`.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use hotpotato::{HotPotatoConfig, HotPotatoModel, Msg, PolicyKind};
use pdes::arena::{EventArena, SlotRef};
use pdes::event::{Bitfield, EventId, EventKey, QueueEntry};
use pdes::model::Emit;
use pdes::pool::VecPool;
use pdes::rng::{stream_seed, Clcg4, ReversibleRng};
use pdes::scheduler::EventQueue;
use pdes::{EventCtx, InitCtx, LpId, Model, ReverseCtx, SchedulerKind, VirtualTime};
use topo::{BlockMapping, DirSet, Topology, Torus};

use crate::report::Samples;
use crate::spans::Spans;
use crate::workloads::ModelKind;

/// Timed batches per probe.
pub const BATCHES: usize = 1000;

/// Nanoseconds per operation of a batch started at `t0`.
fn per_op(t0: Instant, ops: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops as f64
}

// ---------------------------------------------------------------- scheduler

/// How a hold operation picks the timestamp it re-inserts at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Hot-potato-shaped: one step ahead plus a small jitter.
    Step,
    /// PHOLD-shaped: exponential with a mean of one step.
    Exp,
}

const HOLD_OPS: usize = 256;

struct HoldModel {
    q: Box<dyn EventQueue>,
    rng: Clcg4,
    next_id: u64,
    shape: Shape,
}

impl HoldModel {
    fn new(kind: SchedulerKind, size: usize, shape: Shape, seed: u64) -> Self {
        let mut m = HoldModel {
            q: kind.build(),
            rng: Clcg4::new(seed),
            next_id: 0,
            shape,
        };
        for _ in 0..size {
            let t = m.rng.integer(0, VirtualTime::STEP - 1);
            let e = m.entry(t);
            m.q.push(e);
        }
        // Reach the steady state of the increment distribution.
        for _ in 0..2 * size {
            m.hold();
        }
        m
    }

    fn increment(&mut self) -> u64 {
        match self.shape {
            Shape::Step => VirtualTime::STEP + self.rng.integer(0, 1023),
            Shape::Exp => ((self.rng.exponential(1.0) * VirtualTime::STEP as f64) as u64).max(1),
        }
    }

    fn entry(&mut self, t: u64) -> QueueEntry {
        let id = self.next_id;
        self.next_id += 1;
        QueueEntry {
            key: EventKey {
                recv_time: VirtualTime(t),
                dst: self.rng.integer(0, 4095) as LpId,
                tie: id,
                src: 0,
                send_time: VirtualTime::ZERO,
            },
            id: EventId::new(0, id),
            slot: SlotRef {
                idx: id as u32,
                gen: 0,
            },
        }
    }

    /// Pop the minimum and push its successor; returns the successor.
    fn hold(&mut self) -> QueueEntry {
        let e = self.q.pop().expect("hold model never drains");
        let t = e.key.recv_time.0 + self.increment();
        let next = self.entry(t);
        self.q.push(next);
        next
    }

    /// `HOLD_OPS` successors, generated off the clock, then held on it.
    fn timed_holds(&mut self, mut after: impl FnMut(&mut Self, QueueEntry)) -> f64 {
        let incs: Vec<u64> = (0..HOLD_OPS).map(|_| self.increment()).collect();
        let mut blanks: Vec<QueueEntry> = (0..HOLD_OPS).map(|_| self.entry(0)).collect();
        let t0 = Instant::now();
        for (blank, inc) in blanks.iter_mut().zip(&incs) {
            let e = self.q.pop().expect("hold model never drains");
            blank.key.recv_time = VirtualTime(e.key.recv_time.0 + inc);
            self.q.push(*blank);
            after(self, *blank);
        }
        per_op(t0, HOLD_OPS)
    }
}

/// Nanoseconds per hold (pop the minimum, push its successor) at a steady
/// pending-set size.
pub fn sched_hold(kind: SchedulerKind, size: usize, shape: Shape, seed: u64) -> Vec<f64> {
    let mut m = HoldModel::new(kind, size, shape, seed);
    (0..BATCHES).map(|_| m.timed_holds(|_, _| ())).collect()
}

/// Extra nanoseconds per cancel-and-reschedule over a plain hold: `remove`
/// of a pending entry pushed a quarter of the set ago, `push` of its
/// replacement, and its share of tombstone purging. Each sample is a batch
/// of holds-with-cancel minus the batch of plain holds before it.
pub fn sched_remove(kind: SchedulerKind, size: usize, seed: u64) -> Vec<f64> {
    let mut m = HoldModel::new(kind, size, Shape::Step, seed);
    // The newest quarter of the pushes: all still pending, since a pushed
    // entry is popped only a full set later.
    let mut recent: VecDeque<QueueEntry> = VecDeque::with_capacity(size / 4 + 2);
    for _ in 0..size / 4 {
        let e = m.hold();
        recent.push_back(e);
    }
    let mut misses = 0u64;
    let samples = (0..BATCHES)
        .map(|_| {
            let plain = m.timed_holds(|_, pushed| {
                recent.push_back(pushed);
                black_box(recent.pop_front());
            });
            let with_cancel = m.timed_holds(|m, pushed| {
                recent.push_back(pushed);
                let victim = recent.pop_front().expect("ring is never empty");
                if m.q.remove(victim.id, victim.key).is_none() {
                    misses += 1;
                }
                let mut again = pushed;
                again.id = EventId::new(1, pushed.id.seq());
                again.key.tie = u64::MAX - pushed.key.tie;
                m.q.push(again);
                recent.push_back(again);
                black_box(recent.pop_front());
            });
            with_cancel - plain
        })
        .collect();
    assert_eq!(misses, 0, "remove probe cancelled an entry that was gone");
    samples
}

// -------------------------------------------------------------------- arena

const ARENA_LIVE: usize = 4096;
const ARENA_OPS: usize = 1024;

/// Nanoseconds per `insert` + `free` at a steady 4 096 live slots, oldest
/// freed first.
pub fn arena_insert_free(msgs: &[Msg]) -> Vec<f64> {
    let mut arena = EventArena::<Msg>::new(EventArena::<Msg>::DEFAULT_SLOTS);
    let mut live: VecDeque<SlotRef> = (0..ARENA_LIVE)
        .map(|i| arena.insert(msgs[i % msgs.len()].clone()).expect("room"))
        .collect();
    (0..BATCHES)
        .map(|b| {
            let t0 = Instant::now();
            for i in 0..ARENA_OPS {
                let msg = msgs[(b + i) % msgs.len()].clone();
                live.push_back(arena.insert(msg).expect("room"));
                black_box(arena.free(live.pop_front().expect("live")));
            }
            per_op(t0, ARENA_OPS)
        })
        .collect()
}

/// Nanoseconds per slot of `free_batch` over 1 024 slots (batched fossil
/// collection).
pub fn arena_free_batch(msgs: &[Msg]) -> Vec<f64> {
    let mut arena = EventArena::<Msg>::new(EventArena::<Msg>::DEFAULT_SLOTS);
    let mut slots = Vec::with_capacity(ARENA_OPS);
    (0..BATCHES)
        .map(|b| {
            for i in 0..ARENA_OPS {
                slots.push(
                    arena
                        .insert(msgs[(b + i) % msgs.len()].clone())
                        .expect("room"),
                );
            }
            let t0 = Instant::now();
            arena.free_batch(&mut slots);
            per_op(t0, ARENA_OPS)
        })
        .collect()
}

// ---------------------------------------------------------------- rng, pool

const RNG_OPS: usize = 1024;

/// Nanoseconds per `next_unif` and per `reverse_unif`.
pub fn rng_unif_reverse(seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Clcg4::new(seed);
    (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let mut sum = 0.0;
            for _ in 0..RNG_OPS {
                sum += rng.next_unif();
            }
            black_box(sum);
            let forward = per_op(t0, RNG_OPS);
            let t0 = Instant::now();
            rng.reverse_n(RNG_OPS as u64);
            black_box(rng.state());
            (forward, per_op(t0, RNG_OPS))
        })
        .unzip()
}

/// Nanoseconds per `Clcg4::spaced_stream`.
pub fn rng_spaced_stream(seed: u64) -> Vec<f64> {
    const OPS: usize = 16;
    (0..BATCHES)
        .map(|b| {
            let t0 = Instant::now();
            for i in 0..OPS {
                black_box(Clcg4::spaced_stream(seed, (b * OPS + i) as u64));
            }
            per_op(t0, OPS)
        })
        .collect()
}

/// Nanoseconds per `VecPool` get + put of a warm buffer.
pub fn pool_get_put() -> Vec<f64> {
    let mut pool = VecPool::<u64>::new();
    (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..RNG_OPS {
                let mut v = pool.get_with_capacity(4);
                v.push(i as u64);
                pool.put(black_box(v));
            }
            per_op(t0, RNG_OPS)
        })
        .collect()
}

// ----------------------------------------------------------------- handlers

/// The input of one handler execution, captured from a replay.
pub struct HandlerInput<M: Model> {
    lp: LpId,
    src: LpId,
    now: VirtualTime,
    state: M::State,
    payload: M::Payload,
}

/// Replay `model` on a minimal sequential loop (per-LP CLCG4 streams,
/// events in `EventKey` order) for `warm` events, then capture the inputs
/// of every `every`-th handler execution until `take` are held.
pub fn harvest<M>(
    model: &M,
    seed: u64,
    warm: usize,
    every: usize,
    take: usize,
) -> Vec<HandlerInput<M>>
where
    M: Model,
    M::State: Clone,
{
    let n = model.n_lps();
    let mut rngs: Vec<Clcg4> = (0..n)
        .map(|lp| Clcg4::new(stream_seed(seed, lp as u64)))
        .collect();
    let mut pending: BTreeMap<(EventKey, u64), M::Payload> = BTreeMap::new();
    let mut seq = 0u64;
    let mut out: Vec<Emit<M::Payload>> = Vec::new();
    let mut enqueue = |pending: &mut BTreeMap<_, _>, e: Emit<M::Payload>, src, sent| {
        let key = EventKey {
            recv_time: e.recv_time,
            dst: e.dst,
            tie: e.tie,
            src,
            send_time: sent,
        };
        pending.insert((key, seq), e.payload);
        seq += 1;
    };
    let mut states: Vec<M::State> = Vec::with_capacity(n as usize);
    for lp in 0..n {
        let mut ctx = InitCtx::synthetic(lp, &mut rngs[lp as usize], &mut out);
        states.push(model.init(lp, &mut ctx));
        for e in out.drain(..) {
            enqueue(&mut pending, e, lp, VirtualTime::ZERO);
        }
    }
    let mut inputs = Vec::with_capacity(take);
    for handled in 0..warm + every * take {
        let ((key, _), mut payload) = pending.pop_first().expect("replay ran out of events");
        let lp = key.dst;
        if handled >= warm && (handled - warm).is_multiple_of(every) {
            inputs.push(HandlerInput {
                lp,
                src: key.src,
                now: key.recv_time,
                state: states[lp as usize].clone(),
                payload: payload.clone(),
            });
        }
        let mut bf = Bitfield::default();
        let mut ctx = EventCtx::synthetic(
            lp,
            key.src,
            key.recv_time,
            &mut bf,
            &mut rngs[lp as usize],
            &mut out,
        );
        model.handle(&mut states[lp as usize], &mut payload, &mut ctx);
        for e in out.drain(..) {
            enqueue(&mut pending, e, lp, key.recv_time);
        }
    }
    inputs
}

const HANDLER_OPS: usize = 256;

/// Nanoseconds per `Model::handle` and per `Model::reverse`, through the
/// synthetic contexts, over harvested inputs. Each batch forward-executes
/// 256 inputs, then reverses the same 256. A batch takes every n-th input,
/// so it holds the mix of event types the whole harvest has, not the one
/// type that happens to be due at one instant of virtual time.
pub fn handler<M>(model: &M, inputs: &[HandlerInput<M>], seed: u64) -> (Vec<f64>, Vec<f64>)
where
    M: Model,
    M::State: Clone,
{
    let stride = inputs.len() / HANDLER_OPS;
    assert!(stride >= 1, "harvest too small");
    let mut rng = Clcg4::new(seed);
    let mut out: Vec<Emit<M::Payload>> = Vec::with_capacity(8);
    (0..BATCHES)
        .map(|b| {
            let chunk: Vec<&HandlerInput<M>> = inputs
                .iter()
                .skip(b % stride)
                .step_by(stride)
                .take(HANDLER_OPS)
                .collect();
            let mut work: Vec<(M::State, M::Payload, Bitfield)> = chunk
                .iter()
                .map(|i| (i.state.clone(), i.payload.clone(), Bitfield::default()))
                .collect();
            let draws_before = rng.call_count();
            let t0 = Instant::now();
            for (i, (state, payload, bf)) in chunk.iter().zip(work.iter_mut()) {
                let mut ctx = EventCtx::synthetic(i.lp, i.src, i.now, bf, &mut rng, &mut out);
                model.handle(state, payload, &mut ctx);
                out.clear();
            }
            let forward = per_op(t0, HANDLER_OPS);
            let t0 = Instant::now();
            for (i, (state, payload, bf)) in chunk.iter().zip(work.iter_mut()).rev() {
                model.reverse(state, payload, &ReverseCtx::synthetic(i.lp, i.now, *bf));
            }
            let reverse = per_op(t0, HANDLER_OPS);
            black_box(&work);
            rng.reverse_n(rng.call_count() - draws_before);
            (forward, reverse)
        })
        .unzip()
}

/// Nanoseconds per `PolicyKind::decide` (BHW) over the ROUTE events of a
/// hot-potato harvest.
pub fn policy_decide(
    model: &HotPotatoModel<Torus>,
    inputs: &[HandlerInput<HotPotatoModel<Torus>>],
    seed: u64,
) -> Vec<f64> {
    let routes: Vec<_> = inputs
        .iter()
        .filter_map(|i| match &i.payload {
            Msg::Route { packet, .. } => {
                let free = i.state.free_links(DirSet::ALL);
                Some((
                    i.lp,
                    *packet,
                    if free.is_empty() { DirSet::ALL } else { free },
                ))
            }
            _ => None,
        })
        .collect();
    assert!(!routes.is_empty(), "harvest held no ROUTE event");
    let topo = model.topology();
    let mut rng = Clcg4::new(seed);
    (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for (lp, packet, free) in &routes {
                black_box(PolicyKind::Bhw.decide(topo, *lp, packet, *free, &mut rng));
            }
            per_op(t0, routes.len())
        })
        .collect()
}

// --------------------------------------------------------------------- topo

/// Nanoseconds per `Torus::good_dirs` on the 128 × 128 torus.
pub fn topo_good_links(seed: u64) -> Vec<f64> {
    let torus = Torus::new(128);
    let mut rng = Clcg4::new(seed);
    let last = torus.n_nodes() as u64 - 1;
    let pairs: Vec<(LpId, LpId)> = (0..RNG_OPS)
        .map(|_| (rng.integer(0, last) as LpId, rng.integer(0, last) as LpId))
        .collect();
    (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for &(from, to) in &pairs {
                black_box(torus.good_dirs(from, to));
            }
            per_op(t0, pairs.len())
        })
        .collect()
}

/// Microseconds per `BlockMapping::new(128, 64, 2)`.
pub fn topo_blockmap_build() -> Vec<f64> {
    (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(BlockMapping::new(128, 64, 2));
            per_op(t0, 1) / 1e3
        })
        .collect()
}

// --------------------------------------------------------------------- all

/// What the reconciliation needs from the probes: the cost of one scheduler
/// hold and one handler execution *as this workload uses them*.
#[derive(Clone, Copy, Debug)]
pub struct ProbeCosts {
    pub hold_ns: f64,
    pub handle_ns: f64,
}

const KB4: usize = 4 * 1024;
const KB64: usize = 64 * 1024;

/// Run one single-metric probe inside its span and record its samples.
fn record(samples: &mut Samples, spans: &mut Spans, name: &str, f: impl FnOnce() -> Vec<f64>) {
    let v = spans.scope(&format!("probe.{name}"), |_| f());
    samples.extend(name, &v);
}

/// Run every probe, one span each, recording their samples; returns the
/// costs that apply to a workload simulating `model`.
pub fn run_all(
    samples: &mut Samples,
    spans: &mut Spans,
    seed: u64,
    model: ModelKind,
) -> ProbeCosts {
    let default = SchedulerKind::default();
    for (size, tag) in [(KB4, "4k"), (KB64, "64k")] {
        record(
            samples,
            spans,
            &format!("scheduler.hold_step_ns.{tag}"),
            || sched_hold(default, size, Shape::Step, seed),
        );
        record(
            samples,
            spans,
            &format!("scheduler.hold_exp_ns.{tag}"),
            || sched_hold(default, size, Shape::Exp, seed),
        );
        record(
            samples,
            spans,
            &format!("scheduler.remove_ns.{tag}"),
            || sched_remove(default, size, seed),
        );
    }
    record(samples, spans, "scheduler.splay.hold_step_ns.4k", || {
        sched_hold(SchedulerKind::Splay, KB4, Shape::Step, seed)
    });
    record(samples, spans, "scheduler.calendar.hold_step_ns.4k", || {
        sched_hold(SchedulerKind::Calendar, KB4, Shape::Step, seed)
    });

    let torus32 = HotPotatoModel::torus(HotPotatoConfig::new(32, 64).with_injectors(0.4));
    let inputs = spans.scope("probe.harvest", |_| {
        harvest(&torus32, seed, 200_000, 2, 4096)
    });
    let msgs: Vec<Msg> = inputs.iter().map(|i| i.payload.clone()).collect();
    record(samples, spans, "arena.insert_free_ns", || {
        arena_insert_free(&msgs)
    });
    record(samples, spans, "arena.free_batch_ns_per_slot", || {
        arena_free_batch(&msgs)
    });

    let (unif, reverse) = spans.scope("probe.rng.clcg4", |_| rng_unif_reverse(seed));
    samples.extend("rng.clcg4_unif_ns", &unif);
    samples.extend("rng.clcg4_reverse_ns", &reverse);
    record(samples, spans, "rng.spaced_stream_ns", || {
        rng_spaced_stream(seed)
    });
    record(samples, spans, "pool.get_put_ns", pool_get_put);

    let (handle, reverse) = spans.scope("probe.hotpotato.handler", |_| {
        handler(&torus32, &inputs, seed)
    });
    samples.extend("hotpotato.handle_ns", &handle);
    samples.extend("hotpotato.reverse_ns", &reverse);
    record(samples, spans, "hotpotato.policy_decide_ns", || {
        policy_decide(&torus32, &inputs, seed)
    });
    record(samples, spans, "topo.good_links_ns", || {
        topo_good_links(seed)
    });
    record(
        samples,
        spans,
        "topo.blockmap_build_us",
        topo_blockmap_build,
    );

    match model {
        ModelKind::Torus { n, .. } => ProbeCosts {
            hold_ns: samples.median(if n >= 128 {
                "scheduler.hold_step_ns.64k"
            } else {
                "scheduler.hold_step_ns.4k"
            }),
            handle_ns: samples.median("hotpotato.handle_ns"),
        },
        ModelKind::Phold(phold) => {
            let (handle, _) = spans.scope("probe.phold.handler", |_| {
                let inputs = harvest(&phold, seed, 100_000, 1, 4096);
                handler(&phold, &inputs, seed)
            });
            ProbeCosts {
                hold_ns: samples.median("scheduler.hold_exp_ns.64k"),
                handle_ns: crate::stats::median(&handle),
            }
        }
    }
}
