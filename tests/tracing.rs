//! Rollback-aware causal packet tracing: under a chaos storm (delays,
//! duplicates, reorders) the *committed* per-packet lineage of a parallel
//! run must be byte-identical to the sequential oracle's, for every PE
//! count and scheduler — hops from speculated executions that later rolled
//! back must leave no residue. The lineage must also agree exactly with the
//! model's own committed counters, since Figures 3 and 4 are derived from
//! it.

use hotpotato::model::hops;
use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::{EngineConfig, FaultPlan, ObsConfig, SchedulerKind, TRACE_UNBOUNDED};

fn model(n: u32, steps: u64) -> HotPotatoModel<topo::Torus> {
    HotPotatoModel::torus(HotPotatoConfig::new(n, steps))
}

fn engine(m: &HotPotatoModel<topo::Torus>, seed: u64) -> EngineConfig {
    EngineConfig::new(m.end_time())
        .with_seed(seed)
        .with_gvt_interval(32)
        .with_batch(4)
        .with_obs(ObsConfig::default().with_packet_trace(TRACE_UNBOUNDED))
}

#[test]
fn committed_trace_matches_sequential_oracle_under_chaos() {
    let m = model(6, 60);
    let seq = m.run(&engine(&m, 0x7ACE)).sequential().go().unwrap();
    let oracle = seq.telemetry.trace.to_jsonl();
    assert_eq!(seq.telemetry.trace.dropped, 0);
    assert!(
        seq.telemetry.trace.len() > 100,
        "oracle trace suspiciously small: {} hops",
        seq.telemetry.trace.len()
    );

    let plan = FaultPlan::new(0xF00D)
        .with_delay(0.3)
        .with_duplicate(0.2)
        .with_reorder(0.5);
    for pes in [2usize, 4] {
        for sched in [SchedulerKind::default(), SchedulerKind::Heap] {
            let par = m
                .run(
                    &engine(&m, 0x7ACE)
                        .with_pes(pes)
                        .with_kps(3 * pes as u32)
                        .with_faults(plan)
                        .with_scheduler(sched),
                )
                .go()
                .unwrap();
            assert_eq!(
                par.telemetry.trace.dropped, 0,
                "{pes} PEs / {sched:?}: hops dropped"
            );
            assert_eq!(
                par.telemetry.trace.to_jsonl(),
                oracle,
                "{pes} PEs / {sched:?}: committed trace diverged from oracle"
            );
        }
    }
}

/// The committed lineage carries exactly the information the model's own
/// counters aggregate: per-packet latency (ABSORB args), inject waits
/// (INJECT args) and deflection totals must reproduce `NetStats` sums.
#[test]
fn trace_reconstructs_model_counters_exactly() {
    let m = model(5, 80);
    let r = m.run(&engine(&m, 0xBEEF)).sequential().go().unwrap();
    let trace = &r.telemetry.trace;
    assert_eq!(trace.dropped, 0);

    let mut delivered = 0u64;
    let mut transit_sum = 0u64;
    let mut delivered_deflections = 0u64;
    let mut injected = 0u64;
    let mut wait_sum = 0u64;
    let mut routes = 0u64;
    let mut deflections = 0u64;
    for h in &trace.hops {
        match h.kind {
            hops::INJECT => {
                injected += 1;
                wait_sum += h.arg;
            }
            hops::ROUTE => {
                routes += 1;
                let (deflected, _) = hops::unpack_route(h.arg);
                deflections += deflected as u64;
            }
            hops::ABSORB => {
                delivered += 1;
                let (injected_step, defl) = hops::unpack_absorb(h.arg);
                // at is in ticks; latency in whole steps.
                transit_sum += pdes::VirtualTime(h.at).step() - injected_step;
                delivered_deflections += defl as u64;
            }
            k => panic!("unknown hop kind {k}"),
        }
    }
    let totals = &r.output.totals;
    assert_eq!(injected, totals.injected);
    assert_eq!(wait_sum, totals.wait_steps_sum);
    assert_eq!(routes, totals.routes);
    assert_eq!(deflections, totals.deflections);
    assert_eq!(delivered, totals.delivered);
    assert_eq!(transit_sum, totals.transit_steps_sum);
    assert_eq!(delivered_deflections, totals.delivered_deflections_sum);
}

/// A capacity cap sheds hops (accounted in `dropped`) instead of growing
/// without bound, and tracing stays off entirely by default.
#[test]
fn capacity_cap_and_default_off() {
    let m = model(4, 40);
    let base = EngineConfig::new(m.end_time())
        .with_seed(3)
        .with_gvt_interval(32);

    let off = m.run(&base).sequential().go().unwrap();
    assert!(off.telemetry.trace.is_empty(), "tracing must be opt-in");
    assert_eq!(off.telemetry.trace.dropped, 0);

    let capped = m
        .run(
            &base
                .clone()
                .with_obs(ObsConfig::default().with_packet_trace(64)),
        )
        .sequential()
        .go()
        .unwrap();
    assert_eq!(capped.telemetry.trace.len(), 64);
    assert!(capped.telemetry.trace.dropped > 0);
}
