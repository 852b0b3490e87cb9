//! **Figure 8** — Effect of Kernel Processes on Event Rate.
//!
//! Net event rate versus the number of KPs for several network sizes on
//! the 2-PE optimistic kernel: the rollback savings of many KPs trade
//! against their fossil-collection overhead. Expected shape: more KPs help
//! the small networks; the benefit diminishes as the network grows.
//!
//! ```sh
//! cargo run --release -p bench --bin fig8_kp_event_rate [--full] [--csv]
//! ```

use bench::{f, median_wall, run_point_timewarp, torus_model, Args, Report};

fn main() {
    let args = Args::parse();
    let kp_counts = [4u32, 8, 16, 32, 64, 128];
    let sizes: Vec<u32> = if args.full {
        vec![16, 32, 64, 128]
    } else {
        vec![16, 32]
    };

    println!("# Figure 8: event rate (committed events/s) vs number of KPs (2 PEs)");
    let mut headers = vec!["KPs".to_string()];
    headers.extend(sizes.iter().map(|n| format!("{n}x{n}")));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let report = Report::new(args.csv, &headers_ref);

    for &kps in &kp_counts {
        let mut cells = vec![kps.to_string()];
        for &n in &sizes {
            let steps = args.steps.unwrap_or(120);
            let model = torus_model(n, steps, 1.0);
            let stats = median_wall(|| run_point_timewarp(&model, args.seed, 2, kps, 512).stats);
            cells.push(f(stats.event_rate()));
        }
        report.row(&cells);
    }

    println!("# expect: small networks speed up with more KPs; large ones level off");
}
