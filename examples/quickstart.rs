//! Quickstart: simulate hot-potato routing on a 16×16 torus and print the
//! headline statistics, on both the sequential and the optimistic parallel
//! kernel (demonstrating they agree exactly).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::{EngineConfig, RunError};

fn main() -> Result<(), RunError> {
    let n = 16;
    let steps = 200;

    // The paper's default workload: network initialized full (4 packets
    // per router), every router hosting an injection application.
    let cfg = HotPotatoConfig::new(n, steps);
    let model = HotPotatoModel::torus(cfg);
    let engine = EngineConfig::new(model.end_time()).with_seed(0xB007);

    println!("== hot-potato routing on a {n}x{n} torus, {steps} steps ==\n");

    // Both kernels return `Result<RunResult, RunError>`: a panicking
    // handler, a stalled GVT or an inconsistent config surfaces as a
    // structured error instead of a hung or aborted process.
    let seq = model.run(&engine).sequential().go()?;
    report("sequential kernel", &seq);

    let par = model.run(&engine.clone().with_pes(2).with_kps(64)).go()?;
    report("optimistic kernel (2 PEs, 64 KPs)", &par);

    assert_eq!(
        seq.output, par.output,
        "BUG: kernels disagree — determinism broken"
    );
    println!("sequential and parallel outputs are identical ✔");
    Ok(())
}

fn report(label: &str, r: &pdes::RunResult<hotpotato::NetStats>) {
    let net = &r.output;
    println!("--- {label} ---");
    println!("  packets delivered      : {}", net.totals.delivered);
    println!(
        "  avg delivery time      : {:.2} steps",
        net.avg_delivery_steps()
    );
    println!("  avg src->dst distance  : {:.2} hops", net.avg_distance());
    println!("  routing stretch        : {:.3}", net.stretch());
    println!("  packets injected       : {}", net.totals.injected);
    println!(
        "  avg wait to inject     : {:.2} steps",
        net.avg_inject_wait_steps()
    );
    println!(
        "  worst wait to inject   : {} steps",
        net.totals.max_wait_steps
    );
    println!(
        "  deflection rate        : {:.1}%",
        100.0 * net.deflection_rate()
    );
    println!(
        "  engine: {} events committed, {} rolled back, {:.0} ev/s",
        r.stats.events_committed,
        r.stats.events_rolled_back,
        r.stats.event_rate()
    );
    println!();
}
