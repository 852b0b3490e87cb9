//! **Attachment 3** — Sample Output: sequential ≡ parallel.
//!
//! Runs the same configuration on the sequential kernel and on the
//! optimistic kernel (unbounded Time Warp) with 2 and 4 PEs, prints the
//! aggregated statistics side by side, and verifies they are identical —
//! the paper's repeatability demonstration (Section 4.2.1).
//!
//! ```sh
//! cargo run --release -p bench --bin determinism [--csv]
//! ```

use bench::{f, run_point, run_point_timewarp, torus_model, Args, Report};

fn main() {
    let args = Args::parse();
    let n = 16;
    let steps = args.steps.unwrap_or(150);
    let model = torus_model(n, steps, 1.0);

    println!("# Attachment 3: identical results across kernels ({n}x{n}, {steps} steps)");
    let report = Report::new(
        args.csv,
        &[
            "kernel",
            "delivered",
            "avg deliver",
            "injected",
            "avg wait",
            "max wait",
            "rolled back",
        ],
    );

    let mut outputs = Vec::new();
    for (label, pes) in [
        ("sequential", 1usize),
        ("parallel-2PE", 2),
        ("parallel-4PE", 4),
    ] {
        let r = if pes == 1 {
            run_point(&model, args.seed, pes, 64)
        } else {
            run_point_timewarp(&model, args.seed, pes, 64, 1024)
        };
        report.row(&[
            label.to_string(),
            r.output.totals.delivered.to_string(),
            f(r.output.avg_delivery_steps()),
            r.output.totals.injected.to_string(),
            f(r.output.avg_inject_wait_steps()),
            r.output.totals.max_wait_steps.to_string(),
            r.stats.events_rolled_back.to_string(),
        ]);
        outputs.push(r.output);
    }

    assert_eq!(
        outputs[0], outputs[1],
        "2-PE parallel diverged from sequential"
    );
    assert_eq!(
        outputs[0], outputs[2],
        "4-PE parallel diverged from sequential"
    );
    println!("# RESULT: all kernels produced IDENTICAL statistics (deterministic)");
}
