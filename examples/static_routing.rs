//! Static (one-shot) analysis, after Das et al. [2] and the paper's
//! `probability_i = 0` mode: the network starts full — four packets per
//! router with uniform random destinations — nothing is ever injected, and
//! we watch the batch drain on torus vs mesh.
//!
//! ```sh
//! cargo run --release --example static_routing
//! ```

use hotpotato::{HotPotatoConfig, HotPotatoModel, NetStats};
use pdes::EngineConfig;

fn main() {
    let n = 12;
    println!("== static (one-shot) drain of a full {n}x{n} network ==\n");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12}",
        "steps", "delivered", "of total", "avg deliver", "deflect %"
    );

    // Drain profile on the torus: run the same static batch for longer and
    // longer horizons and watch completion approach 100%.
    let total = (n * n * 4) as u64;
    for steps in [10u64, 25, 50, 100, 200, 400] {
        let net = run_static(n, steps, true);
        println!(
            "{:<8} {:>10} {:>11.1}% {:>9.2} st {:>11.1}%",
            steps,
            net.totals.delivered,
            100.0 * net.totals.delivered as f64 / total as f64,
            net.avg_delivery_steps(),
            100.0 * net.deflection_rate(),
        );
    }

    println!("\n-- torus vs mesh at 200 steps (same workload) --");
    let torus = run_static(n, 200, true);
    let mesh = run_static(n, 200, false);
    println!(
        "torus: {} delivered, avg {:.2} steps, stretch {:.3}",
        torus.totals.delivered,
        torus.avg_delivery_steps(),
        torus.stretch()
    );
    println!(
        "mesh : {} delivered, avg {:.2} steps, stretch {:.3}",
        mesh.totals.delivered,
        mesh.avg_delivery_steps(),
        mesh.stretch()
    );
    println!("\nThe torus delivers faster: wraparound halves the expected distance");
    println!("(max N-1 vs 2(N-1) — the reason the paper simulates the torus).");
}

fn run_static(n: u32, steps: u64, torus: bool) -> NetStats {
    let cfg = HotPotatoConfig::new(n, steps).with_injectors(0.0);
    let seed = 0x57A71C;
    if torus {
        let model = HotPotatoModel::torus(cfg);
        let engine = EngineConfig::new(model.end_time()).with_seed(seed);
        model
            .run(&engine)
            .sequential()
            .go()
            .expect("static run failed")
            .output
    } else {
        let model = HotPotatoModel::mesh(cfg);
        let engine = EngineConfig::new(model.end_time()).with_seed(seed);
        model
            .run(&engine)
            .sequential()
            .go()
            .expect("static run failed")
            .output
    }
}
