//! **Extension E8** — baseline policy comparison, after Bartzis et al. [5]
//! (*Experimental Evaluation of Hot-Potato Routing Algorithms on
//! 2-Dimensional Processor Arrays*): the BHW algorithm against greedy,
//! oldest-first, and dimension-order deflection on the same workload.
//!
//! ```sh
//! cargo run --release -p bench --bin policy_compare [--full] [--csv]
//! ```

use bench::{check, f, Args, Report};
use hotpotato::{HotPotatoConfig, HotPotatoModel, PolicyKind};
use pdes::EngineConfig;

fn main() {
    let args = Args::parse();
    let sizes: Vec<u32> = if args.full {
        vec![8, 16, 32, 64]
    } else {
        vec![8, 16]
    };
    let policies = [
        PolicyKind::Bhw,
        PolicyKind::Greedy,
        PolicyKind::OldestFirst,
        PolicyKind::DimOrder,
    ];

    println!("# E8: routing-policy comparison (100% injectors)");
    let report = Report::new(
        args.csv,
        &[
            "N",
            "policy",
            "delivered",
            "avg deliver",
            "stretch",
            "avg wait",
            "max wait",
            "deflect%",
        ],
    );

    for n in sizes {
        let steps = args.steps_for(n);
        for policy in policies {
            let cfg = HotPotatoConfig::new(n, steps).with_policy(policy);
            let model = HotPotatoModel::torus(cfg);
            let engine = EngineConfig::new(model.end_time()).with_seed(args.seed);
            let net = check(model.run(&engine).sequential().go()).output;
            report.row(&[
                n.to_string(),
                policy.name().to_string(),
                net.totals.delivered.to_string(),
                f(net.avg_delivery_steps()),
                f(net.stretch()),
                f(net.avg_inject_wait_steps()),
                net.totals.max_wait_steps.to_string(),
                f(100.0 * net.deflection_rate()),
            ]);
        }
    }

    println!("# expect: greedy variants deliver slightly faster on average;");
    println!("# BHW bounds the tail (max wait) via its priority escalation");
}
