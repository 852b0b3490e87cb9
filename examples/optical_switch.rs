//! Optical-switching scenario: the motivating application of hot-potato
//! routing (paper Section 1.1.2). A buffer-less optical network cannot
//! store packets electronically, so deflection routing is the only option.
//!
//! This example models a metro optical ring-of-rings as a 12×12 torus where
//! only a subset of routers are *edge* nodes injecting traffic (25%), and
//! compares the four routing policies on the same workload: the BHW
//! algorithm versus greedy, oldest-first, and dimension-order deflection.
//!
//! ```sh
//! cargo run --release --example optical_switch
//! ```

use hotpotato::{HotPotatoConfig, HotPotatoModel, PolicyKind};
use pdes::EngineConfig;

fn main() {
    let n = 12;
    let steps = 400;
    let edge_fraction = 0.25;

    println!(
        "== optical switch fabric: {n}x{n} torus, {:.0}% edge injectors, {steps} steps ==\n",
        edge_fraction * 100.0
    );
    println!(
        "{:<14} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "policy", "delivered", "avg deliver", "stretch", "avg wait", "worst wait"
    );

    for policy in [
        PolicyKind::Bhw,
        PolicyKind::Greedy,
        PolicyKind::OldestFirst,
        PolicyKind::DimOrder,
    ] {
        let cfg = HotPotatoConfig::new(n, steps)
            .with_injectors(edge_fraction)
            .with_policy(policy);
        let model = HotPotatoModel::torus(cfg);
        let engine = EngineConfig::new(model.end_time()).with_seed(0x0971CA1);
        let net = model
            .run(&engine)
            .sequential()
            .go()
            .expect("policy run failed")
            .output;

        println!(
            "{:<14} {:>10} {:>9.2} st {:>10.3} {:>9.2} st {:>9} st",
            policy.name(),
            net.totals.delivered,
            net.avg_delivery_steps(),
            net.stretch(),
            net.avg_inject_wait_steps(),
            net.totals.max_wait_steps,
        );
    }

    println!("\nAll policies run the identical buffer-less switching fabric;");
    println!("only the link-selection rule differs. The BHW priorities trade a");
    println!("little average latency for bounded worst-case injection wait —");
    println!("the property that lets an optical network run without flow control.");
}
