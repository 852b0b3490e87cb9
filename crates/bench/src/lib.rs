//! Shared plumbing for the figure-regeneration binaries.
//!
//! Each binary regenerates one figure of the paper's evaluation section
//! (see EXPERIMENTS.md for the index). They print both a human-readable
//! table and, with `--csv`, machine-readable rows. `--full` switches from
//! the laptop-scale default sweep to the paper-scale one (N up to 256 —
//! expect long runtimes).

use std::time::Duration;

use hotpotato::model::hops;
use hotpotato::{HotPotatoConfig, HotPotatoModel, NetStats};
use pdes::{
    EngineConfig, EngineStats, ObsConfig, RunError, RunResult, VirtualTime, TRACE_UNBOUNDED,
};

/// Command-line options shared by all figure binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Paper-scale sweep instead of the quick default.
    pub full: bool,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Global seed.
    pub seed: u64,
    /// Override the per-run step count.
    pub steps: Option<u64>,
}

impl Args {
    /// Parse from `std::env::args` (flags: `--full`, `--csv`,
    /// `--seed=<u64>`, `--steps=<u64>`).
    pub fn parse() -> Args {
        let mut args = Args {
            full: false,
            csv: false,
            seed: 0xF16_5EED,
            steps: None,
        };
        for a in std::env::args().skip(1) {
            if a == "--full" {
                args.full = true;
            } else if a == "--csv" {
                args.csv = true;
            } else if let Some(v) = a.strip_prefix("--seed=") {
                args.seed = v.parse().expect("--seed=<u64>");
            } else if let Some(v) = a.strip_prefix("--steps=") {
                args.steps = Some(v.parse().expect("--steps=<u64>"));
            } else if a == "--help" || a == "-h" {
                eprintln!("flags: --full --csv --seed=<u64> --steps=<u64>");
                std::process::exit(0);
            } else {
                eprintln!("unknown flag {a}; try --help");
                std::process::exit(2);
            }
        }
        args
    }

    /// Network sizes for the N-sweep figures.
    pub fn network_sizes(&self) -> Vec<u32> {
        if self.full {
            vec![8, 16, 24, 32, 48, 64, 96, 128, 192, 256]
        } else {
            vec![8, 16, 24, 32, 48]
        }
    }

    /// Steps to simulate for a network of dimension `n` (long enough for
    /// delivery statistics to stabilize: several traversals).
    pub fn steps_for(&self, n: u32) -> u64 {
        self.steps.unwrap_or_else(|| (6 * n as u64).max(100))
    }
}

/// A simple table/CSV printer.
pub struct Report {
    csv: bool,
    headers: Vec<String>,
    widths: Vec<usize>,
}

impl Report {
    /// Start a report with column headers (also printed).
    pub fn new(csv: bool, headers: &[&str]) -> Report {
        let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
        let widths = headers.iter().map(|h| h.len().max(12)).collect();
        let r = Report {
            csv,
            headers,
            widths,
        };
        r.print_row_strings(&r.headers.clone());
        r
    }

    /// Print one data row.
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.print_row_strings(cells);
    }

    fn print_row_strings(&self, cells: &[String]) {
        if self.csv {
            println!("{}", cells.join(","));
        } else {
            let line: Vec<String> = cells
                .iter()
                .zip(&self.widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
    }
}

/// Format a float cell.
pub fn f(v: f64) -> String {
    format!("{v:.2}")
}

/// Unwrap a kernel result. The figure binaries have no recovery path, so a
/// failed run prints the structured [`RunError`] (including any per-PE
/// diagnostics) and exits nonzero instead of unwinding.
pub fn check<O>(res: Result<RunResult<O>, RunError>) -> RunResult<O> {
    res.unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        if let Some(diag) = e.diagnostics() {
            eprintln!("{diag}");
        }
        std::process::exit(1);
    })
}

/// Build the standard torus model for a sweep point.
pub fn torus_model(n: u32, steps: u64, injectors: f64) -> HotPotatoModel<topo::Torus> {
    HotPotatoModel::torus(HotPotatoConfig::new(n, steps).with_injectors(injectors))
}

/// Run one sweep point: sequential kernel for `pes <= 1`, optimistic
/// kernel (block mapping) otherwise.
pub fn run_point(
    model: &HotPotatoModel<topo::Torus>,
    seed: u64,
    pes: usize,
    kps: u32,
) -> RunResult<NetStats> {
    let engine = EngineConfig::new(model.end_time())
        .with_seed(seed)
        .with_pes(pes)
        .with_kps(kps);
    let run = model.run(&engine);
    check(if pes <= 1 { run.sequential() } else { run }.go())
}

/// Largest N for which the figure binaries derive their statistics from the
/// committed packet lineage instead of the model counters. A full lineage
/// keeps every ROUTE hop in memory (~56 B each), so the paper-scale sweep
/// sizes fall back to the (provably identical, see [`lineage_means`])
/// counter aggregation.
pub const TRACE_DERIVE_MAX_N: u32 = 48;

/// Like [`run_point`], with committed per-packet lineage tracing enabled
/// (unbounded capacity — see [`TRACE_DERIVE_MAX_N`]).
pub fn run_point_traced(
    model: &HotPotatoModel<topo::Torus>,
    seed: u64,
    pes: usize,
    kps: u32,
) -> RunResult<NetStats> {
    let engine = EngineConfig::new(model.end_time())
        .with_seed(seed)
        .with_pes(pes)
        .with_kps(kps)
        .with_obs(ObsConfig::default().with_packet_trace(TRACE_UNBOUNDED));
    let run = model.run(&engine);
    check(if pes <= 1 { run.sequential() } else { run }.go())
}

/// `(avg delivery steps, avg inject wait steps)` recomputed from the
/// committed packet lineage — the Figure 3/4 quantities, derived from
/// per-packet ABSORB latencies and INJECT waits rather than the model's
/// aggregate counters. The two are independent bookkeeping of the same
/// committed history, so their integer sums are asserted equal before the
/// means are returned: a run whose lineage disagrees with its counters
/// aborts rather than plotting either.
pub fn lineage_means(res: &RunResult<NetStats>) -> (f64, f64) {
    let trace = &res.telemetry.trace;
    assert!(!trace.is_empty(), "lineage_means on an untraced run");
    assert_eq!(
        trace.dropped, 0,
        "capacity cap dropped hops; lineage incomplete"
    );
    let (mut delivered, mut transit, mut injected, mut wait) = (0u64, 0u64, 0u64, 0u64);
    for h in &trace.hops {
        match h.kind {
            hops::INJECT => {
                injected += 1;
                wait += h.arg;
            }
            hops::ABSORB => {
                delivered += 1;
                let (injected_step, _) = hops::unpack_absorb(h.arg);
                transit += VirtualTime(h.at).step() - injected_step;
            }
            _ => {}
        }
    }
    let t = &res.output.totals;
    assert_eq!(
        (delivered, transit),
        (t.delivered, t.transit_steps_sum),
        "lineage delivery sums disagree with model counters"
    );
    assert_eq!(
        (injected, wait),
        (t.injected, t.wait_steps_sum),
        "lineage inject sums disagree with model counters"
    );
    (
        if delivered == 0 {
            0.0
        } else {
            transit as f64 / delivered as f64
        },
        if injected == 0 {
            0.0
        } else {
            wait as f64 / injected as f64
        },
    )
}

/// Run one sweep point on the *optimistic* kernel even for one PE (for
/// engine-performance figures where Time Warp overhead must be included).
pub fn run_point_timewarp(
    model: &HotPotatoModel<topo::Torus>,
    seed: u64,
    pes: usize,
    kps: u32,
    gvt_interval: u64,
) -> RunResult<NetStats> {
    let engine = EngineConfig::new(model.end_time())
        .with_seed(seed)
        .with_pes(pes)
        .with_kps(kps)
        .with_gvt_interval(gvt_interval);
    check(model.run(&engine).go())
}

/// Minimal self-contained timing harness for the `benches/` binaries (which
/// are built with `harness = false` and depend on nothing external). Runs a
/// warm-up pass, then `samples` timed passes, and prints median/min/max.
pub fn bench_time<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f()); // warm-up
    let times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    let median = median_of(&times);
    println!(
        "{name:<44} median {:>11.3?}  min {:>11.3?}  max {:>11.3?}  ({} samples)",
        median,
        best_wall(&times),
        times.iter().max().expect("at least one sample"),
        times.len()
    );
    median
}

/// Engine stats of the median-by-wall-time run of three, re-running the
/// closure.
pub fn median_wall<F: FnMut() -> EngineStats>(mut run: F) -> EngineStats {
    let mut results: Vec<EngineStats> = (0..3).map(|_| run()).collect();
    results.sort_by_key(|s| s.wall_time);
    results.swap_remove(1)
}

// ---------------------------------------------------------------------------
// Paired-sample statistics: the one copy, used by `overhead` and
// `bench_time`.
// ---------------------------------------------------------------------------

/// Median wall of a non-empty sample set (mean of the two middle samples
/// when the count is even).
pub fn median_of(walls: &[Duration]) -> Duration {
    let mut sorted = walls.to_vec();
    sorted.sort();
    let n = sorted.len();
    assert!(n > 0, "median_of of empty sample set");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// Best (minimum) wall. On an oversubscribed CI container co-tenant noise
/// is strictly additive — it only makes a sample *slower* — so the fastest
/// sample is the least-biased estimator of the machine's actual cost.
pub fn best_wall(walls: &[Duration]) -> Duration {
    *walls.iter().min().expect("best_wall of empty sample set")
}

/// Best-wall overhead of `instrumented` over `dark`, in percent. Negative
/// means the instrumented mode measured faster (i.e. below the noise floor).
pub fn overhead_pct_best(dark: &[Duration], instrumented: &[Duration]) -> f64 {
    let d = best_wall(dark).as_secs_f64();
    let i = best_wall(instrumented).as_secs_f64();
    (i / d - 1.0) * 100.0
}

/// Same-mode noise floor: the apparent "overhead" between the even- and
/// odd-indexed halves of one mode's interleaved samples. Any measured
/// cross-mode overhead below this is indistinguishable from scheduler noise.
/// Fewer than two samples have no halves to compare: 0.0.
pub fn noise_floor_pct(dark: &[Duration]) -> f64 {
    let even: Vec<Duration> = dark.iter().step_by(2).copied().collect();
    let odd: Vec<Duration> = dark.iter().skip(1).step_by(2).copied().collect();
    if even.is_empty() || odd.is_empty() {
        return 0.0;
    }
    overhead_pct_best(&even, &odd).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median_of(&ms(&[9, 1, 5])), Duration::from_millis(5));
        // Even count: mean of the two middle samples, not the upper one.
        assert_eq!(median_of(&ms(&[8, 2, 4, 6])), Duration::from_millis(5));
        assert_eq!(median_of(&ms(&[1, 2])), Duration::from_micros(1500));
        assert_eq!(median_of(&ms(&[7])), Duration::from_millis(7));
    }

    #[test]
    fn best_wall_is_the_minimum() {
        assert_eq!(best_wall(&ms(&[9, 3, 5])), Duration::from_millis(3));
        assert_eq!(best_wall(&ms(&[4])), Duration::from_millis(4));
    }

    #[test]
    fn overhead_pct_best_sign_convention() {
        // Slower instrumented side => positive; faster => negative. Only the
        // fastest sample of each side counts.
        let dark = ms(&[100, 400]);
        assert!((overhead_pct_best(&dark, &ms(&[300, 110])) - 10.0).abs() < 1e-9);
        assert!((overhead_pct_best(&dark, &ms(&[90, 500])) + 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct_best(&dark, &dark), 0.0);
    }

    #[test]
    fn noise_floor_pct_is_total_on_tiny_inputs() {
        assert_eq!(noise_floor_pct(&[]), 0.0);
        assert_eq!(noise_floor_pct(&ms(&[5])), 0.0);
        // Two samples: halves [100] and [110], floor 10 %.
        assert!((noise_floor_pct(&ms(&[100, 110])) - 10.0).abs() < 1e-9);
        // Always non-negative, whichever half is faster.
        let floor = noise_floor_pct(&ms(&[110, 100]));
        assert!(floor.is_finite() && floor > 0.0);
    }
}
