//! Command line of the repo benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! benchmark --suite [--seed <n>] [--seconds <s>] [--out <dir>]
//! benchmark --compare <dir-a> <dir-b>
//! benchmark --list
//! ```
//!
//! Options take their value as the next argument or after `=`. A workload
//! pass prints the metric table, then — as the last line of stdout — one
//! JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use benchmark::envrec::{env_json, refuse_pdes_variables};
use benchmark::report::{result_line, rows_to_json, table};
use benchmark::runner::{self, write_out, RunArgs};
use benchmark::suite;
use benchmark::workloads::{find, DEFAULT_SEED, WORKLOADS};

/// Measuring time when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    out: Option<PathBuf>,
    expect_digest: Option<u64>,
    suite: bool,
    list: bool,
    rss_child: Option<String>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or(format!("{flag} needs a value"))
        };
        let bad = |what: &str, v: &str| format!("{flag}: {v:?} is not {what}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                cli.seed = Some(v.parse().map_err(|_| bad("a u64", &v))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad("a number", &v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600", &v));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                cli.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1", &v)),
                };
            }
            "--traced" => cli.traced = true,
            "--out" => cli.out = Some(value()?.into()),
            "--expect-digest" => {
                let v = value()?;
                let hex = v.trim_start_matches("0x");
                cli.expect_digest =
                    Some(u64::from_str_radix(hex, 16).map_err(|_| bad("a hex u64", &v))?);
            }
            "--suite" => cli.suite = true,
            "--list" => cli.list = true,
            "--rss-child" => cli.rss_child = Some(value()?),
            "--compare" => {
                let a = value()?;
                let b = args.next().ok_or("--compare needs two directories")?;
                cli.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn spec_named(name: &str) -> Result<&'static benchmark::workloads::Spec, String> {
    find(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })
}

fn run(cli: Cli) -> Result<bool, String> {
    if cli.list {
        WORKLOADS.iter().for_each(|w| println!("{}", w.name));
        return Ok(true);
    }
    if let Some((a, b)) = &cli.compare {
        return suite::compare(a, b);
    }
    refuse_pdes_variables()?;
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    if let Some(name) = &cli.rss_child {
        return runner::rss_child(spec_named(name)?, seed).map(|()| true);
    }
    let args = RunArgs {
        seed,
        seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
        expect_digest: cli.expect_digest,
        out: cli.out.unwrap_or_else(|| "benchmark/out".into()),
    };
    if cli.suite {
        return suite::run_suite(&args);
    }
    let name = cli
        .workload
        .ok_or("give --workload <name>, --suite, --compare or --list")?;
    let spec = spec_named(&name)?;
    let t0 = Instant::now();
    let outcome = if cli.traced {
        runner::traced(spec, &args)?
    } else {
        runner::dark(spec, &args)?
    };
    write_out(
        &args.out,
        &suite::part_name(spec.name, cli.traced),
        &rows_to_json(&outcome.rows),
    )?;
    if cli.traced {
        let trace = outcome.spans.to_json(spec.name);
        write_out(&args.out, &format!("{}.trace.json", spec.name), &trace)?;
    }
    let env = env_json(seed, t0.elapsed().as_secs_f64());
    write_out(&args.out, "env.json", &env)?;
    print!("{}", table(&outcome.rows));
    println!(
        "{}",
        result_line(&outcome.rows, outcome.attempted, outcome.failed)
    );
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
