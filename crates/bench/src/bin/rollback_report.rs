//! Speculation forensics report: who causes rollbacks, how far they
//! cascade, and what they cost.
//!
//! Runs the optimistic kernel on a small torus with a deliberately tight
//! GVT interval (the Figure-7 regime: bounded optimism, frequent straggler
//! collisions), then renders the PR 9 blame layer three ways:
//!
//! * **top offenders** — the origin LPs whose sends undid the most work,
//!   with their send-time-lag histograms (how stale the damage was);
//! * **cascade distributions** — log₂ histograms of cascade depth, width
//!   (distinct KPs hit), and events undone;
//! * **wasted-work ledger** — nanoseconds of reverse/anti-send/re-execute
//!   work priced from the PR 4 profiler's phase means.
//!
//! Before printing anything the report cross-checks the blame ledger
//! against the legacy `EngineStats` rollback counters (the fig7 invariants)
//! — a forensics layer that disagrees with the counters it refines aborts
//! rather than reporting either.
//!
//! `--out=<path>` writes a machine-readable JSON artifact (summary scalars
//! plus the full canonical blame report); `--trace-out=<path>` exports the
//! cascades as Chrome-trace flow arrows on the virtual-time axis
//! (chrome://tracing / Perfetto).
//!
//! ```sh
//! cargo run --release -p bench --bin rollback_report -- \
//!     --out=artifacts/rollback_report.json --trace-out=artifacts/cascades.trace.json
//! ```

use std::fmt::Write as _;
use std::path::Path;

use bench::{run_point_timewarp, torus_model};
use pdes::obs::blame::N_BUCKETS;
use pdes::obs::chrome;
use pdes::{EngineStats, Phase};

/// Render one log₂ histogram row: `count ×2^bucket` cells, blank when zero.
fn hist_row(hist: &[u64; N_BUCKETS]) -> String {
    let mut s = String::new();
    for (b, &count) in hist.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if !s.is_empty() {
            s.push_str("  ");
        }
        let lo = 1u64 << b;
        if b + 1 == N_BUCKETS {
            let _ = write!(s, "[{lo}+]:{count}");
        } else if b == 0 {
            let _ = write!(s, "[0-1]:{count}");
        } else {
            let _ = write!(s, "[{lo}-{}]:{count}", (lo << 1) - 1);
        }
    }
    if s.is_empty() {
        s.push('-');
    }
    s
}

/// The fig7 cross-check: the blame ledger and the legacy counters are
/// independent bookkeeping of the same rollbacks and must agree exactly.
fn assert_reconciled(stats: &EngineStats) {
    assert_eq!(
        stats.blame.events_undone, stats.events_rolled_back,
        "blame ledger diverged from events_rolled_back"
    );
    assert_eq!(
        stats.blame.cascades_straggler, stats.primary_rollbacks,
        "cascade roots diverged from primary_rollbacks"
    );
    assert_eq!(
        stats.blame.secondary_links, stats.secondary_rollbacks,
        "secondary links diverged from secondary_rollbacks"
    );
    assert_eq!(
        stats.blame.antis_remote,
        stats.prof.phase(Phase::AntiSend).count,
        "remote-anti ledger diverged from the profiler's AntiSend scope count"
    );
}

fn main() {
    let mut n: u32 = 16;
    let mut steps: u64 = 120;
    let mut pes: usize = 2;
    let mut kps: u32 = 16;
    let mut seed: u64 = 0xF16_5EED;
    let mut gvt_interval: u64 = 512;
    let mut top_k: usize = 10;
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--n=") {
            n = v.parse().expect("--n=<u32>");
        } else if let Some(v) = a.strip_prefix("--steps=") {
            steps = v.parse().expect("--steps=<u64>");
        } else if let Some(v) = a.strip_prefix("--pes=") {
            pes = v.parse().expect("--pes=<usize>");
        } else if let Some(v) = a.strip_prefix("--kps=") {
            kps = v.parse().expect("--kps=<u32>");
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed=<u64>");
        } else if let Some(v) = a.strip_prefix("--gvt=") {
            gvt_interval = v.parse().expect("--gvt=<u64>");
        } else if let Some(v) = a.strip_prefix("--top=") {
            top_k = v.parse().expect("--top=<usize>");
        } else if let Some(v) = a.strip_prefix("--out=") {
            out_path = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--trace-out=") {
            trace_path = Some(v.to_string());
        } else {
            eprintln!(
                "flags: --n=<u32> --steps=<u64> --pes=<usize> --kps=<u32> --seed=<u64> \
                 --gvt=<u64> --top=<usize> --out=<path> --trace-out=<path>"
            );
            std::process::exit(2);
        }
    }

    let model = torus_model(n, steps, 1.0);
    let stats = run_point_timewarp(&model, seed, pes, kps, gvt_interval).stats;
    assert_reconciled(&stats);
    let blame = &stats.blame;

    println!(
        "# rollback forensics: {n}x{n} torus, {pes} PEs, {kps} KPs, gvt interval {gvt_interval}, seed {seed}"
    );
    println!(
        "committed {} / undone {} / re-executed {}  ({} straggler + {} capture cascades, {} secondary links)",
        stats.events_committed,
        blame.events_undone,
        blame.events_reexecuted,
        blame.cascades_straggler,
        blame.cascades_capture,
        blame.secondary_links,
    );
    let wasted = stats.wasted_ns();
    match stats.wasted_frac_of_busy() {
        Some(frac) => println!(
            "wasted work: {wasted} ns reverse+anti ({:.2}% of measured busy), {} remote antis",
            100.0 * frac,
            blame.antis_remote
        ),
        None => println!("wasted work: {wasted} ns reverse+anti (profiler idle)"),
    }
    if blame.records_dropped > 0 {
        println!(
            "note: {} cascade detail records dropped at the record bound (totals stay exact)",
            blame.records_dropped
        );
    }

    println!("\n## top {top_k} offender LPs (by events undone)");
    let offenders = blame.top_offenders(top_k);
    if offenders.is_empty() {
        println!("(no rollbacks — nothing to blame)");
    } else {
        println!(
            "{:>8}  {:>9}  {:>8}  lag histogram (ticks behind victim LVT)",
            "lp", "rollbacks", "undone"
        );
        for (lp, cell) in &offenders {
            println!(
                "{:>8}  {:>9}  {:>8}  {}",
                lp,
                cell.rollbacks,
                cell.events_undone,
                hist_row(&cell.lag_hist)
            );
        }
    }

    println!("\n## cascade distributions (log2 buckets)");
    println!("depth : {}", hist_row(&blame.depth_hist()));
    println!("width : {}", hist_row(&blame.width_hist()));
    println!("undone: {}", hist_row(&blame.undone_hist()));
    println!(
        "worst cascade depth {}, {} cascades over {} matrix cells",
        blame.worst_depth(),
        blame.total_cascades(),
        blame.matrix.len()
    );

    if let Some(path) = &trace_path {
        if let Some(parent) = Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create trace dir");
            }
        }
        chrome::write_blame_flow(blame, path).expect("write chrome blame flow");
        println!("\nwrote cascade flow trace to {path} (load in chrome://tracing)");
    }

    if let Some(path) = &out_path {
        let mut json = String::new();
        json.push_str("{\n");
        let _ = writeln!(json, "  \"report\": \"rollback_forensics\",");
        let _ = writeln!(json, "  \"torus\": \"{n}x{n}\",");
        let _ = writeln!(json, "  \"pes\": {pes},");
        let _ = writeln!(json, "  \"kps\": {kps},");
        let _ = writeln!(json, "  \"steps\": {steps},");
        let _ = writeln!(json, "  \"seed\": {seed},");
        let _ = writeln!(json, "  \"gvt_interval\": {gvt_interval},");
        let _ = writeln!(json, "  \"events_committed\": {},", stats.events_committed);
        let _ = writeln!(
            json,
            "  \"events_rolled_back\": {},",
            stats.events_rolled_back
        );
        let _ = writeln!(
            json,
            "  \"primary_rollbacks\": {},",
            stats.primary_rollbacks
        );
        let _ = writeln!(
            json,
            "  \"secondary_rollbacks\": {},",
            stats.secondary_rollbacks
        );
        let _ = writeln!(json, "  \"wasted_ns\": {wasted},");
        let _ = writeln!(
            json,
            "  \"wasted_frac_of_busy\": {:.6},",
            stats.wasted_frac_of_busy().unwrap_or(0.0)
        );
        let _ = writeln!(json, "  \"worst_cascade_depth\": {},", blame.worst_depth());
        let _ = writeln!(json, "  \"blame\": {}", blame.to_json());
        json.push_str("}\n");
        pdes::obs::json::validate(&json).expect("rollback_report.json failed self-validation");
        if let Some(parent) = Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create out dir");
            }
        }
        std::fs::write(path, &json).expect("write report json");
        println!("wrote {path}");
    }
}
