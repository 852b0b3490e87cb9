//! Chaos testing: deterministic fault injection at the inter-PE boundary
//! must never change committed results. Random-but-seeded [`FaultPlan`]s —
//! delaying, duplicating and reordering remote messages — are thrown at the
//! real hot-potato workload, and the parallel run must stay bit-identical
//! to the sequential oracle while the counters prove the faults fired.

use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::{EngineConfig, FaultPlan};

fn model(n: u32, steps: u64) -> HotPotatoModel<topo::Torus> {
    HotPotatoModel::torus(HotPotatoConfig::new(n, steps))
}

fn engine(m: &HotPotatoModel<topo::Torus>, seed: u64) -> EngineConfig {
    EngineConfig::new(m.end_time())
        .with_seed(seed)
        .with_gvt_interval(64)
        .with_batch(4)
}

/// Sweep fault seeds on one small config: every plan commits the sequential
/// output exactly, and across the sweep the chaos layer demonstrably both
/// injected faults and forced rollbacks.
#[test]
fn random_fault_plans_preserve_hot_potato_determinism() {
    let m = model(6, 40);
    let seq = m.run(&engine(&m, 11)).sequential().go().unwrap();

    let mut injected = 0u64;
    let mut rollbacks = 0u64;
    for fault_seed in [0xC4A05u64, 1, 2, 3, 0xDEAD_BEEF] {
        let plan = FaultPlan::new(fault_seed)
            .with_delay(0.3)
            .with_duplicate(0.2)
            .with_reorder(0.5);
        let par = m
            .run(&engine(&m, 11).with_pes(2).with_kps(8).with_faults(plan))
            .go()
            .unwrap();
        assert_eq!(
            par.output, seq.output,
            "fault seed {fault_seed:#x} changed the committed output"
        );
        injected += par.stats.total_injected_faults();
        rollbacks += par.stats.total_rollbacks();
    }
    assert!(injected > 0, "no faults injected across the sweep");
    assert!(
        rollbacks > 0,
        "faults never provoked a rollback — injection inert?"
    );
}

/// Fault absorption works across PE counts and both rollback backends.
#[test]
fn fault_plans_survive_pe_sweep() {
    let m = model(6, 30);
    let seq = m.run(&engine(&m, 21)).sequential().go().unwrap();
    let plan = FaultPlan::new(7).with_delay(0.25).with_duplicate(0.25);

    for pes in [2usize, 3, 4] {
        let par = m
            .run(&engine(&m, 21).with_pes(pes).with_kps(12).with_faults(plan))
            .go()
            .unwrap();
        assert_eq!(par.output, seq.output, "pes={pes}");
    }

    let ss = m
        .run(&engine(&m, 21).with_pes(2).with_kps(12).with_faults(plan))
        .state_saving()
        .go()
        .unwrap();
    assert_eq!(ss.output, seq.output, "state-saving backend under faults");
}

/// Duplicates-only and delay-only plans exercise the two absorption paths
/// (EventId dedup and straggler rollback) in isolation.
#[test]
fn single_fault_kinds_are_absorbed() {
    let m = model(6, 30);
    let seq = m.run(&engine(&m, 31)).sequential().go().unwrap();

    let dup_only = FaultPlan::new(42).with_duplicate(0.5);
    let par = m
        .run(&engine(&m, 31).with_pes(2).with_kps(8).with_faults(dup_only))
        .go()
        .unwrap();
    assert_eq!(par.output, seq.output, "duplicate-only plan");
    assert!(par.stats.injected_duplicates > 0);
    assert!(
        par.stats.duplicates_dropped > 0,
        "dedup path never exercised"
    );

    let delay_only = FaultPlan::new(43).with_delay(0.4);
    let par = m
        .run(
            &engine(&m, 31)
                .with_pes(2)
                .with_kps(8)
                .with_faults(delay_only),
        )
        .go()
        .unwrap();
    assert_eq!(par.output, seq.output, "delay-only plan");
    assert!(par.stats.injected_delays > 0);
}

/// A fault plan is part of the configuration, so the same seed must replay
/// the same committed output. (The injected-fault *counters* are
/// timing-dependent, like rollback counts: the number of remote messages
/// crossing the boundary varies with the optimistic interleaving.)
#[test]
fn fault_runs_are_reproducible() {
    let m = model(6, 30);
    let plan = FaultPlan::new(99)
        .with_delay(0.3)
        .with_duplicate(0.2)
        .with_reorder(0.4);
    let cfg = engine(&m, 41).with_pes(2).with_kps(8).with_faults(plan);
    let a = m.run(&cfg).go().unwrap();
    let b = m.run(&cfg).go().unwrap();
    assert_eq!(a.output, b.output);
    assert!(a.stats.total_injected_faults() > 0);
    assert!(b.stats.total_injected_faults() > 0);
}
