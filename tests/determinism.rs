//! The paper's central correctness result (Section 4.2.1, Attachment 3):
//! *"the parallel and sequential models produce identical results (under the
//! same model configuration). As such, the parallel model is deterministic
//! and therefore repeatable."*
//!
//! These tests run the full hot-potato model on both kernels and compare
//! the aggregated network statistics with `==` — every counter, not an
//! approximation.

use hotpotato::{HotPotatoConfig, HotPotatoModel, PolicyKind};
use std::sync::Arc;

use pdes::{EngineConfig, MemorySink, ObsConfig, SchedulerKind, VirtualTime};

fn engine(model: &HotPotatoModel<topo::Torus>, seed: u64) -> EngineConfig {
    // Every determinism run executes at maximum observability — full flight
    // recorder plus a streaming sink — so these suites also prove that
    // observation never perturbs committed output. Parallel runs are
    // unbounded Time Warp unless a test sets its own bound (the model's
    // one-step epoch would otherwise make them windowed).
    EngineConfig::new(model.end_time())
        .with_seed(seed)
        .with_lookahead(u64::MAX)
        .with_obs(ObsConfig::verbose().with_sink(Arc::new(MemorySink::new(1024))))
}

#[test]
fn parallel_equals_sequential_default_config() {
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 60));
    let seq = model.run(&engine(&model, 1)).sequential().go().unwrap();
    for pes in [1usize, 2, 4] {
        let par = model
            .run(&engine(&model, 1).with_pes(pes).with_kps(16))
            .go()
            .unwrap();
        assert_eq!(par.output, seq.output, "pes={pes}");
        assert_eq!(
            par.stats.events_committed, seq.stats.events_committed,
            "pes={pes}"
        );
    }
}

#[test]
fn parallel_equals_sequential_across_kp_counts() {
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 40));
    let seq = model.run(&engine(&model, 2)).sequential().go().unwrap();
    for kps in [2u32, 4, 8, 16, 64] {
        let par = model
            .run(&engine(&model, 2).with_pes(2).with_kps(kps))
            .go()
            .unwrap();
        assert_eq!(par.output, seq.output, "kps={kps}");
    }
}

#[test]
fn parallel_equals_sequential_with_every_scheduler() {
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 40));
    let reference = model.run(&engine(&model, 3)).sequential().go().unwrap();
    for sched in [SchedulerKind::default(), SchedulerKind::Heap] {
        let base = engine(&model, 3).with_scheduler(sched);
        let seq = model.run(&base).sequential().go().unwrap();
        let par = model
            .run(&base.clone().with_pes(2).with_kps(8))
            .go()
            .unwrap();
        assert_eq!(seq.output, reference.output, "sequential {sched:?}");
        assert_eq!(par.output, reference.output, "parallel {sched:?}");
    }
}

#[test]
fn parallel_equals_sequential_all_policies() {
    for policy in [
        PolicyKind::Bhw,
        PolicyKind::Greedy,
        PolicyKind::OldestFirst,
        PolicyKind::DimOrder,
    ] {
        let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 30).with_policy(policy));
        let seq = model.run(&engine(&model, 4)).sequential().go().unwrap();
        let par = model
            .run(&engine(&model, 4).with_pes(2).with_kps(8))
            .go()
            .unwrap();
        assert_eq!(par.output, seq.output, "policy={policy:?}");
    }
}

#[test]
fn parallel_equals_sequential_proof_mode_and_loads() {
    for (frac, absorb) in [(0.0, true), (0.5, true), (1.0, false)] {
        let model = HotPotatoModel::torus(
            HotPotatoConfig::new(8, 30)
                .with_injectors(frac)
                .with_absorb_sleeping(absorb),
        );
        let seq = model.run(&engine(&model, 5)).sequential().go().unwrap();
        let par = model
            .run(&engine(&model, 5).with_pes(2).with_kps(8))
            .go()
            .unwrap();
        assert_eq!(par.output, seq.output, "frac={frac} absorb={absorb}");
    }
}

#[test]
fn mesh_topology_is_deterministic_too() {
    let model = HotPotatoModel::mesh(HotPotatoConfig::new(8, 40));
    let seq = model
        .run(&engine_mesh(&model, 6))
        .sequential()
        .go()
        .unwrap();
    let par = model
        .run(&engine_mesh(&model, 6).with_pes(2).with_kps(8))
        .go()
        .unwrap();
    assert_eq!(par.output, seq.output);
}

fn engine_mesh(model: &HotPotatoModel<topo::Mesh>, seed: u64) -> EngineConfig {
    EngineConfig::new(model.end_time())
        .with_seed(seed)
        .with_lookahead(u64::MAX)
}

#[test]
fn repeated_runs_are_identical() {
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 40));
    let a = model
        .run(&engine(&model, 7).with_pes(2).with_kps(8))
        .go()
        .unwrap();
    let b = model
        .run(&engine(&model, 7).with_pes(2).with_kps(8))
        .go()
        .unwrap();
    assert_eq!(a.output, b.output);
}

#[test]
fn different_seeds_differ() {
    // Sanity: the equality above is not vacuous.
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 40));
    let a = model.run(&engine(&model, 8)).sequential().go().unwrap();
    let b = model.run(&engine(&model, 9)).sequential().go().unwrap();
    assert_ne!(a.output, b.output);
}

#[test]
fn gvt_interval_does_not_change_results() {
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 40));
    let seq = model.run(&engine(&model, 10)).sequential().go().unwrap();
    assert_eq!(
        seq.output.totals.stalls, 0,
        "sequential runs can never stall"
    );
    for interval in [64u64, 1024, 100_000] {
        let par = model
            .run(
                &engine(&model, 10)
                    .with_pes(2)
                    .with_kps(8)
                    .with_gvt_interval(interval),
            )
            .go()
            .unwrap();
        assert_eq!(par.output, seq.output, "gvt_interval={interval}");
        // Transient stalls (causally-inconsistent over-subscription) must
        // all have been rolled back before commit.
        assert_eq!(
            par.output.totals.stalls, 0,
            "committed stalls at interval {interval}"
        );
    }
}

#[test]
fn unbounded_optimism_still_matches_sequential() {
    // The regression scenario for the transient-duplicate race: a huge GVT
    // interval lets stale branches race far ahead of their cancellations.
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 60));
    let seq = model.run(&engine(&model, 11)).sequential().go().unwrap();
    for trial in 0..5 {
        let par = model
            .run(
                &engine(&model, 11)
                    .with_pes(2)
                    .with_kps(8)
                    .with_gvt_interval(1_000_000),
            )
            .go()
            .unwrap();
        assert_eq!(par.output, seq.output, "trial {trial}");
        assert_eq!(par.output.totals.stalls, 0, "trial {trial}");
    }
}

#[test]
fn state_saving_rollback_matches_sequential() {
    // GTW-style state saving (ablation E12) must commit exactly the same
    // history as reverse computation and the sequential oracle.
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 40));
    let seq = model.run(&engine(&model, 13)).sequential().go().unwrap();
    for pes in [2usize, 4] {
        let ss = model
            .run(&engine(&model, 13).with_pes(pes).with_kps(16))
            .state_saving()
            .go()
            .unwrap();
        assert_eq!(ss.output, seq.output, "pes={pes}");
        assert_eq!(ss.output.totals.stalls, 0);
    }
}

#[test]
fn throttled_optimism_matches_sequential_hotpotato() {
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 40));
    let seq = model.run(&engine(&model, 12)).sequential().go().unwrap();
    let par = model
        .run(
            &engine(&model, 12)
                .with_pes(2)
                .with_kps(8)
                .with_lookahead(2 * pdes::VirtualTime::STEP),
        )
        .go()
        .unwrap();
    assert_eq!(par.output, seq.output);
}

/// Committed history of the continuity scenario (16×16 torus, load 0.4, 96
/// steps, seed `0xBE9C_0702`), captured from the pre-arena engine (PR 6) and
/// carried unchanged through every kernel rewrite since. Sequential and
/// parallel agreeing with *each other* is checked above; this pins them to a
/// fixed history, so a change that shifts both kernels the same way (RNG
/// stream layout, tie-break order, model semantics) cannot pass silently.
#[test]
fn continuity_scenario_matches_pre_arena_golden_output() {
    const GOLDEN_COMMITTED: u64 = 171_053;
    const GOLDEN_OUTPUT: &str = "NetStats { totals: RouterStats { delivered: 6117, \
        transit_steps_sum: 75879, distance_sum: 48602, delivered_deflections_sum: 10591, \
        injected: 5946, wait_steps_sum: 4275, max_wait_steps: 15, inject_attempts: 10272, \
        inject_failures: 4326, routes: 77332, routes_by_priority: [76454, 878, 0, 0], \
        deflections: 12555, promotions: 202, demotions: 0, heartbeats: 0, stalls: 0 }, \
        injectors: 107, routers: 256 }";

    let model = HotPotatoModel::torus(HotPotatoConfig::new(16, 96).with_injectors(0.4));
    let cfg = engine(&model, 0xBE9C_0702)
        .with_kps(64)
        .with_lookahead(VirtualTime::STEP);
    // `model.run` sets the model's block mapping; the sequential kernel
    // ignores it. A one-step bound is the model's epoch, so the 4-PE run is
    // windowed; a two-step bound keeps it on Time Warp.
    let seq = model.run(&cfg).sequential().go().unwrap();
    let windowed = model.run(&cfg.clone().with_pes(4)).go().unwrap();
    assert_eq!(windowed.stats.events_rolled_back, 0);
    let tw = model
        .run(
            &cfg.clone()
                .with_pes(4)
                .with_lookahead(2 * VirtualTime::STEP),
        )
        .go()
        .unwrap();
    for (kernel, run) in [
        ("sequential", &seq),
        ("windowed 4 PE", &windowed),
        ("Time Warp 4 PE", &tw),
    ] {
        assert_eq!(run.stats.events_committed, GOLDEN_COMMITTED, "{kernel}");
        assert_eq!(format!("{:?}", run.output), GOLDEN_OUTPUT, "{kernel}");
    }
}

/// The hash-only auditor tier (`with_audit_probe(false)`, or
/// `PDES_AUDIT=fast` from the environment: rollback re-checks,
/// conservation ledger and scheduler digests, no reverse-replay probe) must
/// observe without perturbing, like the full tier the debug suites run under.
#[test]
fn audit_fast_tier_matches_sequential() {
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 40));
    let fast = engine(&model, 13).with_audit(true).with_audit_probe(false);
    let seq = model.run(&fast).sequential().go().unwrap();
    let par = model
        .run(&fast.clone().with_pes(2).with_kps(8))
        .go()
        .unwrap();
    assert_eq!(par.output, seq.output);
    assert_eq!(par.stats.events_committed, seq.stats.events_committed);
}
