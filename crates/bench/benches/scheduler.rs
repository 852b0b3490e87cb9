//! Ablation E9: pending-set implementations (step-bucketed ladder vs binary
//! heap with lazy deletion vs top-down splay tree vs calendar queue) under
//! hold-model workloads — the access pattern a discrete-event simulator
//! actually generates. The queues order arena handles (`QueueEntry`), so
//! the benchmark fabricates slot tags; payload storage is out of scope here.
//! Every queue runs behind `Box<dyn EventQueue>`, as in the kernels.
//!
//! Besides the classic shape, two shapes show where a bucketed queue could
//! degenerate: *dense* (every increment far below one ladder bucket, so all
//! pending entries share a bucket) and *sparse* (every increment past the
//! ladder's ring, so entries go through its far spill and cursor jumps).
//!
//! ```sh
//! cargo bench -p bench --bench scheduler
//! ```

use bench::bench_time;
use pdes::event::{EventId, EventKey, QueueEntry};
use pdes::prelude::SlotRef;
use pdes::scheduler::EventQueue;
use pdes::time::VirtualTime;
use pdes::SchedulerKind;

const KINDS: [SchedulerKind; 4] = [
    SchedulerKind::Ladder,
    SchedulerKind::Heap,
    SchedulerKind::Splay,
    SchedulerKind::Calendar,
];

fn ev(seq: u64, t: u64) -> QueueEntry {
    QueueEntry {
        id: EventId::new(0, seq),
        key: EventKey {
            recv_time: VirtualTime(t),
            dst: (seq % 64) as u32,
            tie: seq,
            src: 0,
            send_time: VirtualTime::ZERO,
        },
        slot: SlotRef {
            idx: seq as u32,
            gen: 0,
        },
    }
}

/// A pseudo-random value in `0..span` for push number `seq`.
fn spread(seq: u64, span: u64) -> u64 {
    seq.wrapping_mul(2_654_435_761) % span
}

/// Classic: 1..=10k ticks ahead.
fn classic(seq: u64) -> u64 {
    1 + spread(seq, 10_000)
}

/// Dense: 1..=1024 ticks ahead, far below one ladder bucket (16 384 ticks).
fn dense(seq: u64) -> u64 {
    1 + spread(seq, 1024)
}

/// Sparse: 64..128 steps ahead, past the ladder's ring (≈ 4 steps).
fn sparse(seq: u64) -> u64 {
    64 * VirtualTime::STEP + spread(seq, 64 * VirtualTime::STEP)
}

/// Hold model: fill with `n` entries `inc(seq)` after time zero, then pop
/// the minimum and push a replacement `inc(seq)` after it. Fill and final
/// drain are timed too.
fn hold(q: &mut dyn EventQueue, n: u64, ops: u64, inc: fn(u64) -> u64) -> u64 {
    let mut seq = 0;
    for _ in 0..n {
        q.push(ev(seq, inc(seq)));
        seq += 1;
    }
    let mut acc = 0;
    for _ in 0..ops {
        let e = q.pop().expect("steady state");
        acc ^= e.slot.idx as u64;
        q.push(ev(seq, e.key.recv_time.0 + inc(seq)));
        seq += 1;
    }
    while q.pop().is_some() {}
    acc
}

/// Hold model with interleaved cancellations (anti-message pattern).
fn hold_with_cancels(q: &mut dyn EventQueue, n: u64, ops: u64) -> u64 {
    let mut seq = 0;
    let mut live: Vec<(EventId, EventKey)> = Vec::new();
    for i in 0..n {
        let e = ev(seq, i * 7919 % 100_000);
        live.push((e.id, e.key));
        q.push(e);
        seq += 1;
    }
    let mut acc = 0;
    for i in 0..ops {
        if i % 8 == 0 && live.len() > 2 {
            // Cancel a "random" pending event.
            let victim = live.swap_remove((i as usize * 31) % live.len());
            if q.remove(victim.0, victim.1).is_some() {
                acc += 1;
            }
            continue;
        }
        if let Some(e) = q.pop() {
            live.retain(|(id, _)| *id != e.id);
            acc ^= e.slot.idx as u64;
        }
        let e = ev(seq, (i + 1) * 13 % 100_000 + i);
        live.push((e.id, e.key));
        q.push(e);
        seq += 1;
    }
    acc
}

/// A hold shape: title, increment, steady-state sizes.
type Shape = (&'static str, fn(u64) -> u64, &'static [u64]);

fn name(kind: SchedulerKind) -> String {
    format!("{kind:?}").to_lowercase()
}

fn main() {
    let samples = 20;

    let shapes: [Shape; 3] = [
        ("scheduler_hold (10k ops)", classic, &[256, 4096]),
        ("scheduler_hold_dense (10k ops)", dense, &[4096]),
        ("scheduler_hold_sparse (10k ops)", sparse, &[4096]),
    ];
    for (title, inc, sizes) in shapes {
        println!("# {title}");
        for &size in sizes {
            for kind in KINDS {
                bench_time(&format!("{}/{size}", name(kind)), samples, || {
                    hold(kind.build().as_mut(), size, 10_000, inc)
                });
            }
        }
    }

    println!("# scheduler_hold_cancel (4k ops)");
    let size = 1024u64;
    for kind in KINDS {
        bench_time(&format!("{}/{size}", name(kind)), samples, || {
            hold_with_cancels(kind.build().as_mut(), size, 4_000)
        });
    }
}
