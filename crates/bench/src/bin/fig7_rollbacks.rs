//! **Figures 7a–7c** — Effect of the Number of KPs on Total Events Rolled
//! Back.
//!
//! Total events rolled back versus the number of kernel processes, for
//! several network sizes, on the 2-PE optimistic kernel. Expected shape:
//! for small networks, more KPs mean substantially fewer (false) rollbacks;
//! for larger networks the effect flattens out.
//!
//! ```sh
//! cargo run --release -p bench --bin fig7_rollbacks [--full] [--csv]
//! ```

use bench::{run_point_timewarp, torus_model, Args, Report};

fn main() {
    let args = Args::parse();
    let kp_counts = [4u32, 8, 16, 32, 64, 128];
    let sizes: Vec<u32> = if args.full {
        vec![16, 32, 64, 128]
    } else {
        vec![16, 32]
    };

    println!("# Figure 7: total events rolled back vs number of KPs (2 PEs)");
    let mut headers = vec!["KPs".to_string()];
    headers.extend(sizes.iter().map(|n| format!("{n}x{n}")));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let report = Report::new(args.csv, &headers_ref);

    for &kps in &kp_counts {
        let mut cells = vec![kps.to_string()];
        for &n in &sizes {
            let steps = args.steps.unwrap_or(120);
            let model = torus_model(n, steps, 1.0);
            // A tight GVT interval keeps optimism bounded, as ROSS does;
            // the KP count then controls rollback scope. Rollback counts
            // are scheduling-sensitive, so take the median of five runs.
            let mut counts: Vec<u64> = (0..5)
                .map(|_| {
                    let stats = run_point_timewarp(&model, args.seed, 2, kps, 512).stats;
                    // The series is re-derived from the blame-cascade
                    // ledger; any drift from the legacy counter means the
                    // two rollback accounting paths disagree.
                    assert_eq!(
                        stats.blame.events_undone, stats.events_rolled_back,
                        "blame ledger diverged from EngineStats (n={n} kps={kps})"
                    );
                    assert_eq!(
                        stats.blame.cascades_straggler, stats.primary_rollbacks,
                        "cascade roots diverged from primary_rollbacks \
                         (n={n} kps={kps})"
                    );
                    stats.blame.events_undone
                })
                .collect();
            counts.sort_unstable();
            cells.push(counts[2].to_string());
        }
        report.row(&cells);
    }

    println!("# expect: counts fall as KPs grow, most sharply for the small networks");
    println!("# (exact counts vary with OS scheduling; the trend is the result)");
}
