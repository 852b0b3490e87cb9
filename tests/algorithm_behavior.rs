//! End-to-end behavioral checks of the BHW algorithm — the *shapes* the
//! paper's Section 4.1 reports: delivery time grows roughly linearly with
//! N and is insensitive to injection load (Figure 3); injection wait grows
//! with N and strongly with load (Figure 4); plus conservation invariants
//! no correct deflection network can violate.

use hotpotato::{HotPotatoConfig, HotPotatoModel, NetStats, PolicyKind};
use pdes::EngineConfig;

fn run(n: u32, steps: u64, frac: f64, seed: u64) -> NetStats {
    let model = HotPotatoModel::torus(HotPotatoConfig::new(n, steps).with_injectors(frac));
    let engine = EngineConfig::new(model.end_time()).with_seed(seed);
    model.run(&engine).sequential().go().unwrap().output
}

#[test]
fn packets_are_conserved() {
    let net = run(8, 100, 1.0, 1);
    let born = net.routers * 4 + net.totals.injected; // 4 initial per router
    assert!(
        net.totals.delivered <= born,
        "delivered more packets than exist"
    );
    // In a 100-step run on an 8x8 torus most packets complete.
    assert!(
        net.totals.delivered as f64 > 0.5 * born as f64,
        "suspiciously few deliveries: {} of {}",
        net.totals.delivered,
        born
    );
}

#[test]
fn every_step_routes_every_resident_packet() {
    // One ROUTE decision per packet per step it is resident: the total
    // route count can never exceed steps × routers × 4 (the hard capacity
    // of a degree-4 buffer-less network).
    let steps = 50;
    let net = run(8, steps, 1.0, 2);
    assert!(net.totals.routes <= steps * net.routers * 4);
    assert!(net.totals.routes > 0);
}

#[test]
fn delivery_time_grows_roughly_linearly_with_n() {
    // Figure 3's shape: avg delivery time ≈ c·N. Check monotone growth and
    // a sane band for the ratio time/N on three sizes.
    let mut prev = 0.0;
    for n in [8u32, 16, 24] {
        let net = run(n, 120, 1.0, 3);
        let t = net.avg_delivery_steps();
        assert!(
            t > prev,
            "delivery time must grow with N ({n}: {t} <= {prev})"
        );
        let ratio = t / n as f64;
        assert!(
            (0.2..4.0).contains(&ratio),
            "delivery time {t} not O(N) for N={n} (ratio {ratio})"
        );
        prev = t;
    }
}

#[test]
fn injection_load_barely_affects_delivery_time() {
    // Figure 3: "The packet injection rate has a very limited effect on the
    // packet delivery rate."
    let low = run(16, 100, 0.25, 4).avg_delivery_steps();
    let high = run(16, 100, 1.0, 4).avg_delivery_steps();
    assert!(
        (high - low).abs() / low < 0.5,
        "delivery time should be load-insensitive: 25% -> {low}, 100% -> {high}"
    );
}

#[test]
fn injection_wait_grows_with_load() {
    // Figure 4: "the injection rate ... has a significant impact on the
    // injection wait."
    let low = run(16, 150, 0.25, 5);
    let high = run(16, 150, 1.0, 5);
    assert!(
        high.avg_inject_wait_steps() > low.avg_inject_wait_steps(),
        "wait at 100% load ({}) must exceed wait at 25% load ({})",
        high.avg_inject_wait_steps(),
        low.avg_inject_wait_steps()
    );
}

#[test]
fn average_delivery_exceeds_average_distance() {
    // Deflections can only lengthen a path: stretch >= 1.
    let net = run(12, 100, 1.0, 6);
    assert!(
        net.totals.transit_steps_sum >= net.totals.distance_sum,
        "a packet cannot beat its shortest path"
    );
    assert!(net.stretch() >= 1.0);
}

#[test]
fn promotions_happen_and_demotions_require_deflections() {
    let net = run(16, 200, 1.0, 7);
    assert!(
        net.totals.promotions > 0,
        "with 1/(24N) wake probability some packets promote"
    );
    assert!(net.totals.demotions <= net.totals.deflections);
}

#[test]
fn static_mode_drains_the_network() {
    // probability_i = 0: one-shot analysis. No injections ever; deliveries
    // monotonically drain the initial load.
    let net = run(8, 300, 0.0, 8);
    assert_eq!(net.totals.injected, 0);
    assert_eq!(net.totals.inject_attempts, 0);
    assert_eq!(net.injectors, 0);
    let initial = net.routers * 4;
    assert!(
        net.totals.delivered >= initial * 9 / 10,
        "static load should mostly drain in 300 steps: {}/{initial}",
        net.totals.delivered
    );
}

#[test]
fn proof_mode_delivers_slower() {
    // absorb_sleeping = false keeps Sleeping packets bouncing; delivery
    // totals must not exceed the practical mode's.
    let practical = run(8, 80, 1.0, 9);
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 80).with_absorb_sleeping(false));
    let engine = EngineConfig::new(model.end_time()).with_seed(9);
    let proof = model.run(&engine).sequential().go().unwrap().output;
    assert!(proof.totals.delivered < practical.totals.delivered);
}

#[test]
fn bhw_beats_plain_greedy_on_worst_case_wait() {
    // The BHW priorities exist to bound how long a single packet can be
    // starved. Compare the max injection wait under both policies on a
    // congested network (same seed, same workload).
    let mut bhw_max = 0;
    let mut greedy_max = 0;
    for seed in 10..14 {
        for (policy, acc) in [
            (PolicyKind::Bhw, &mut bhw_max),
            (PolicyKind::Greedy, &mut greedy_max),
        ] {
            let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 150).with_policy(policy));
            let engine = EngineConfig::new(model.end_time()).with_seed(seed);
            let net = model.run(&engine).sequential().go().unwrap().output;
            *acc += net.totals.max_wait_steps;
        }
    }
    // Not a strict theorem at this scale — but BHW should not be wildly
    // worse; this guards against priority logic regressions.
    assert!(
        bhw_max <= greedy_max * 3,
        "BHW max wait ({bhw_max}) should be comparable to greedy ({greedy_max})"
    );
}

#[test]
fn heartbeats_fire_and_do_not_disturb_routing() {
    let base = HotPotatoConfig::new(8, 50);
    let with_hb = base.clone().with_heartbeat(10);
    let m1 = HotPotatoModel::torus(base);
    let m2 = HotPotatoModel::torus(with_hb);
    let e1 = EngineConfig::new(m1.end_time()).with_seed(15);
    let a = m1.run(&e1).sequential().go().unwrap().output;
    let b = m2
        .run(&EngineConfig::new(m2.end_time()).with_seed(15))
        .sequential()
        .go()
        .unwrap()
        .output;
    assert_eq!(
        b.totals.heartbeats,
        64 * 5,
        "64 routers, every 10 steps over 50"
    );
    assert_eq!(a.totals.heartbeats, 0);
    // Heartbeats are administrative: routing statistics are identical.
    assert_eq!(a.totals.delivered, b.totals.delivered);
    assert_eq!(a.totals.routes, b.totals.routes);
}
