//! **Figures 5 and 6** — Parallel Speed-Up and Efficiency.
//!
//! Net event rate (committed events per wall-clock second) of the
//! optimistic kernel versus N for 1, 2 and 4 PEs (Figure 5), and the
//! derived efficiency speedup/#PE (Figure 6). The sequential kernel runs
//! the same problem beside them: `tw1_over_seq` (1-PE Time Warp rate ÷
//! sequential rate) is the price of being optimistic at all, before any
//! speculation is wasted (ROADMAP item 4).
//!
//! Hardware note: the paper ran on a quad-processor PC server. A PE column
//! with more PEs than the host has hardware threads time-slices cores, so
//! its efficiency is bounded by threads/P by construction; the header
//! records the thread count and names exactly those columns. Their absolute
//! rates still characterize engine overhead, and the rollback counts are
//! reported for context.
//!
//! ```sh
//! cargo run --release -p bench --bin fig5_speedup [--full] [--csv]
//! ```

use bench::{f, median_wall, run_point, run_point_timewarp, torus_model, Args, Report};

fn main() {
    let args = Args::parse();
    let sizes: Vec<u32> = if args.full {
        vec![16, 32, 64, 128]
    } else {
        vec![8, 16, 32]
    };
    let pes = [1usize, 2, 4];
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("# Figure 5: event rate (committed events/s) vs N, by PE count");
    println!("# Figure 6: efficiency = (rate_P / rate_1) / P");
    println!("# tw1_over_seq = rate_1 / rate_seq (1-PE Time Warp over the sequential kernel)");
    println!("# hardware threads: {hw}");
    for p in pes.into_iter().filter(|&p| p > hw) {
        println!(
            "# {p}PE columns are oversubscribed ({p} PE threads on {hw} hardware threads): \
             efficiency <= {hw}/{p} by construction"
        );
    }
    let report = Report::new(
        args.csv,
        &[
            "N",
            "LPs",
            "ev/s seq",
            "ev/s 1PE",
            "ev/s 2PE",
            "ev/s 4PE",
            "tw1_over_seq",
            "eff 2PE",
            "eff 4PE",
            "rb 2PE",
            "rb 4PE",
        ],
    );

    for n in sizes {
        let steps = args.steps.unwrap_or(150);
        let model = torus_model(n, steps, 1.0);
        let seq = median_wall(|| run_point(&model, args.seed, 1, 64).stats).event_rate();
        let mut rates = Vec::new();
        let mut rolled = Vec::new();
        for &p in &pes {
            let kps = 64.max(p as u32);
            let stats = median_wall(|| run_point_timewarp(&model, args.seed, p, kps, 1024).stats);
            rates.push(stats.event_rate());
            rolled.push(stats.events_rolled_back);
        }
        report.row(&[
            n.to_string(),
            (n * n).to_string(),
            f(seq),
            f(rates[0]),
            f(rates[1]),
            f(rates[2]),
            f(rates[0] / seq),
            f(rates[1] / rates[0] / 2.0),
            f(rates[2] / rates[0] / 4.0),
            rolled[1].to_string(),
            rolled[2].to_string(),
        ]);
    }

    println!("# paper (4-core host): ~linear speedup for small N, ~0.5 efficiency for large N");
}
