//! Determinism across the comm fabric's tuning space: the sender-side batch
//! threshold changes *when* messages become visible to other PEs — and
//! therefore the whole rollback/annihilation schedule — but must never
//! change what is committed. Every (comm_batch × scheduler) point must stay
//! bit-identical to the sequential oracle, batching or no batching, and the
//! channel boundary must also absorb chaos-injected reordering.

use hotpotato::{HotPotatoConfig, HotPotatoModel};
use std::sync::Arc;

use pdes::{EngineConfig, FaultPlan, MemorySink, ObsConfig, SchedulerKind};

/// The batch sizes the issue calls out: per-message flushing, the default,
/// a large batch, and unbounded (boundary-only flushes).
const COMM_BATCHES: [Option<usize>; 4] = [Some(1), Some(8), Some(64), None];

fn model(n: u32, steps: u64) -> HotPotatoModel<topo::Torus> {
    HotPotatoModel::torus(HotPotatoConfig::new(n, steps))
}

fn engine(m: &HotPotatoModel<topo::Torus>, seed: u64) -> EngineConfig {
    // Small GVT interval and batch so a short run still crosses many flush
    // boundaries and GVT quiescence rounds. Maximum observability (full
    // recorder + streaming sink) rides along to prove the comm-layer
    // determinism guarantee holds while being watched.
    EngineConfig::new(m.end_time())
        .with_seed(seed)
        .with_gvt_interval(64)
        .with_batch(4)
        .with_obs(ObsConfig::verbose().with_sink(Arc::new(MemorySink::new(1024))))
}

/// The full matrix: {1, 8, 64, unbounded} × {default, Heap}, each at 2
/// and 4 PEs, all bit-identical to the sequential oracle.
#[test]
fn comm_batch_times_scheduler_matrix_matches_sequential() {
    let m = model(6, 40);
    let seq = m.run(&engine(&m, 0xC0B1)).sequential().go().unwrap();
    for comm_batch in COMM_BATCHES {
        for sched in [SchedulerKind::default(), SchedulerKind::Heap] {
            for pes in [2usize, 4] {
                let par = m
                    .run(
                        &engine(&m, 0xC0B1)
                            .with_scheduler(sched)
                            .with_comm_batch(comm_batch)
                            .with_pes(pes)
                            .with_kps(12),
                    )
                    .go()
                    .unwrap();
                assert_eq!(
                    par.output, seq.output,
                    "comm_batch={comm_batch:?} scheduler={sched:?} pes={pes}"
                );
                assert_eq!(par.stats.events_committed, seq.stats.events_committed);
            }
        }
    }
}

/// Batching must be observably *on*: the comm counters reflect the
/// configured threshold (mean batch size grows with it), and everything
/// flushed is eventually drained.
#[test]
fn comm_counters_reflect_batching() {
    let m = model(6, 60);
    let mut mean_at = Vec::new();
    for comm_batch in [Some(1), Some(8)] {
        let par = m
            .run(
                &engine(&m, 0xC0B2)
                    .with_comm_batch(comm_batch)
                    .with_pes(2)
                    .with_kps(8),
            )
            .go()
            .unwrap();
        assert!(par.stats.batches_flushed > 0, "comm fabric never used");
        assert!(par.stats.batched_messages >= par.stats.batches_flushed);
        if let Some(limit) = comm_batch {
            assert!(
                par.stats.mean_batch_size() <= limit as f64,
                "mean batch {} exceeds threshold {limit}",
                par.stats.mean_batch_size()
            );
        }
        mean_at.push(par.stats.mean_batch_size());
    }
    assert!(
        mean_at[0] <= mean_at[1],
        "larger threshold should not shrink batches: {mean_at:?}"
    );
}

/// Chaos at the channel boundary: fault plans that reorder (and delay)
/// drained batches, swept across batch sizes on an odd PE count — the
/// absorption machinery downstream of the rings must keep the output
/// bit-identical.
#[test]
fn chaos_reordering_at_the_channel_boundary_is_absorbed() {
    let m = model(6, 40);
    let seq = m.run(&engine(&m, 0xC0B3)).sequential().go().unwrap();
    let mut reorders = 0u64;
    for comm_batch in COMM_BATCHES {
        let plan = FaultPlan::new(0xF00D).with_reorder(0.6).with_delay(0.2);
        let par = m
            .run(
                &engine(&m, 0xC0B3)
                    .with_comm_batch(comm_batch)
                    .with_pes(3)
                    .with_kps(9)
                    .with_faults(plan),
            )
            .go()
            .unwrap();
        assert_eq!(
            par.output, seq.output,
            "comm_batch={comm_batch:?} under reordering chaos"
        );
        reorders += par.stats.injected_reorders;
    }
    assert!(reorders > 0, "reordering chaos never fired");
}

/// The event-memory pools must actually recycle on a multi-PE run (hits
/// dominate once the run reaches steady state) without changing results.
#[test]
fn pooling_recycles_and_preserves_output() {
    let m = model(6, 60);
    let seq = m.run(&engine(&m, 0xC0B4)).sequential().go().unwrap();
    let par = m
        .run(&engine(&m, 0xC0B4).with_pes(2).with_kps(8))
        .go()
        .unwrap();
    assert_eq!(par.output, seq.output);
    assert!(
        par.stats.pool_hits > 0,
        "buffer pools never recycled anything (hits=0, misses={})",
        par.stats.pool_misses
    );
}
