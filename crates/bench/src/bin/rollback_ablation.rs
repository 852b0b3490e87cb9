//! **Extension E12** — reverse computation vs state saving.
//!
//! ROSS's headline mechanism (paper Section 3.2.1) is *reverse computation*:
//! rollback re-derives prior state by executing inverse handlers, instead of
//! the Georgia Tech Time Warp approach of snapshotting state before every
//! event. This binary runs the same hot-potato workload under both rollback
//! mechanisms and reports event rates and memory-proxy statistics.
//!
//! The hot-potato router state is small (~200 bytes), so the *time* gap here
//! is modest; the win grows with state size — which is exactly the argument
//! Carothers, Perumalla & Fujimoto make (reference [3] of the paper).
//!
//! ```sh
//! cargo run --release -p bench --bin rollback_ablation [--csv]
//! ```

use bench::{check, f, median_wall, torus_model, Args, Report};
use pdes::EngineConfig;

fn main() {
    let args = Args::parse();
    let sizes: Vec<u32> = if args.full {
        vec![8, 16, 32, 64]
    } else {
        vec![8, 16, 32]
    };

    println!("# E12: rollback mechanism ablation (2 PEs, 64 KPs)");
    let report = Report::new(
        args.csv,
        &[
            "N",
            "ev/s reverse",
            "ev/s state-save",
            "ratio",
            "rb reverse",
            "rb state-save",
        ],
    );

    for n in sizes {
        let steps = args.steps.unwrap_or(150);
        let model = torus_model(n, steps, 1.0);
        let engine = EngineConfig::new(model.end_time())
            .with_seed(args.seed)
            .with_pes(2)
            .with_kps(64)
            .with_lookahead(u64::MAX);

        let rc = median_wall(|| check(model.run(&engine).go()).stats);
        let ss = median_wall(|| check(model.run(&engine).state_saving().go()).stats);

        report.row(&[
            n.to_string(),
            f(rc.event_rate()),
            f(ss.event_rate()),
            f(rc.event_rate() / ss.event_rate()),
            rc.events_rolled_back.to_string(),
            ss.events_rolled_back.to_string(),
        ]);
    }

    println!("# expect: reverse computation >= state saving (it skips a full");
    println!("# state clone per event); the gap widens with state size");
}
