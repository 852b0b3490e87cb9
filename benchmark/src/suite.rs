//! The whole suite — every workload, dark then traced, each in a child
//! process of its own — and the comparison of two suite results that
//! `selfcheck.sh` is built on.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::envrec::env_json;
use crate::metrics::{self, Better, Exact};
use crate::report::{rows_from_json, rows_to_json, table, Row};
use crate::runner::{write_out, RunArgs};
use crate::workloads::{find, Kernel, WORKLOADS};

/// File a single pass leaves its rows in.
pub fn part_name(workload: &str, traced: bool) -> String {
    let pass = if traced { "traced" } else { "dark" };
    format!("{workload}.{pass}.results.json")
}

/// Run every workload's two passes as child processes of this executable,
/// merge their rows into `results.json`, print the table. Returns whether
/// every pass succeeded.
pub fn run_suite(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    let mut all_ok = true;
    for spec in &WORKLOADS {
        for traced in [false, true] {
            eprintln!(
                "suite: {} ({})",
                spec.name,
                if traced { "traced" } else { "dark" }
            );
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .stdout(Stdio::null());
            let status = cmd.status().map_err(|e| format!("spawn: {e}"))?;
            all_ok &= status.success();
            let part = args.out.join(part_name(spec.name, traced));
            match std::fs::read_to_string(&part) {
                Ok(text) => rows.extend(rows_from_json(&text)?),
                Err(e) => {
                    eprintln!("suite: {}: {e}", part.display());
                    all_ok = false;
                }
            }
        }
    }
    write_out(&args.out, "results.json", &rows_to_json(&rows))?;
    write_out(
        &args.out,
        "env.json",
        &env_json(args.seed, t0.elapsed().as_secs_f64()),
    )?;
    print!("{}", table(&rows));
    Ok(all_ok)
}

fn load(dir: &Path) -> Result<Vec<Row>, String> {
    let path = dir.join("results.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    rows_from_json(&text)
}

/// Compare two suite results of the same code: every end-to-end median of
/// `b` must be within the metric's bound of `a`, and every exact-repeat
/// metric identical. Prints the observed spreads; returns whether all held.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_dir)?, load(b_dir)?);
    let mut ok = true;
    println!(
        "{:<22} {:<28} {:>16} {:>16} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse", "iqr/med A", "iqr/med B", "bound"
    );
    for ra in &a {
        let def = metrics::def(&ra.name);
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.name == ra.name)
        else {
            println!(
                "{:<22} {:<28} missing from the second set",
                ra.workload, ra.name
            );
            ok = false;
            continue;
        };
        let (ma, mb) = (ra.value, rb.value);
        if let Some(bound) = def.bound {
            let worse = match def.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let within = worse <= bound;
            ok &= within;
            println!(
                "{:<22} {:<28} {:>16.6} {:>16.6} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%  {}",
                ra.workload,
                ra.name,
                ma,
                mb,
                worse * 100.0,
                ra.stats.iqr / ma * 100.0,
                rb.stats.iqr / mb * 100.0,
                bound * 100.0,
                if within { "ok" } else { "OUT OF BOUND" }
            );
        }
        let sequential = find(&ra.workload).is_some_and(|s| s.kernel == Kernel::Sequential);
        let must_repeat = match def.exact {
            Exact::No => false,
            Exact::Always => true,
            Exact::SequentialOnly => sequential,
        };
        if must_repeat {
            let same = ma == mb
                && ra.stats.min == ra.stats.max
                && rb.stats.min == rb.stats.max
                && ra.stats.min == rb.stats.min;
            ok &= same;
            println!(
                "{:<22} {:<28} {:>16} {:>16} {:>49}  {}",
                ra.workload,
                ra.name,
                ma,
                mb,
                "exact",
                if same { "ok" } else { "DIFFERS" }
            );
        }
    }
    Ok(ok)
}
