//! Multi-run telemetry hub: drive or watch a farm of instrumented runs.
//!
//! A *farm* is a directory with one subdirectory per run, each holding a
//! `run-manifest.json` next to its JSONL metrics stream (the layout the
//! kernels produce when [`ObsConfig::with_metrics_path`] is set). The hub
//! tails every stream concurrently with [`FleetMonitor`], folds them into
//! per-run and fleet-wide rollups, and emits structured health events.
//!
//! Subcommands:
//!
//! * `farm` — launch `--runs` concurrent instrumented hot-potato runs into
//!   `--dir`, live-monitor them to completion, then write `health.jsonl` +
//!   `rollup.json` into the farm directory (both validated with the in-tree
//!   JSON validator before they land).
//! * `watch` — monitor an existing farm directory (runs launched by someone
//!   else) until every run reaches a terminal state or `--max-seconds`
//!   elapses, then write the same artifacts.
//! * `selftest-faults` — synthesize one GVT-stalled stream and one silent
//!   stream in a scratch farm and require the matching [`HealthDetector`]
//!   events to fire; exits nonzero if either detector stays quiet. This is
//!   the CI proof that the fault paths work end to end.
//!
//! ```sh
//! cargo run --release -p bench --bin obs_hub -- farm --dir=/tmp/farm --runs=3
//! cargo run --release -p bench --bin obs_hub -- watch --dir=/tmp/farm
//! cargo run --release -p bench --bin obs_hub -- selftest-faults
//! ```

use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::check;
use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::obs::json;
use pdes::{
    EngineConfig, FleetMonitor, HealthDetector, HealthPolicy, ObsConfig, RoundSnapshot,
    RunManifest, VirtualTime,
};

struct Opts {
    dir: PathBuf,
    runs: usize,
    n: u32,
    steps: u64,
    pes: usize,
    seed: u64,
    poll_ms: u64,
    max_seconds: u64,
    quiet: bool,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        dir: PathBuf::from("obs-farm"),
        runs: 3,
        n: 8,
        steps: 64,
        pes: 2,
        seed: 0x0B5_4B2E,
        poll_ms: 50,
        max_seconds: 120,
        quiet: false,
    };
    for a in args {
        if let Some(v) = a.strip_prefix("--dir=") {
            o.dir = PathBuf::from(v);
        } else if let Some(v) = a.strip_prefix("--runs=") {
            o.runs = v.parse::<usize>().expect("--runs=<usize>").max(1);
        } else if let Some(v) = a.strip_prefix("--n=") {
            o.n = v.parse().expect("--n=<u32>");
        } else if let Some(v) = a.strip_prefix("--steps=") {
            o.steps = v.parse().expect("--steps=<u64>");
        } else if let Some(v) = a.strip_prefix("--pes=") {
            o.pes = v.parse::<usize>().expect("--pes=<usize>").max(1);
        } else if let Some(v) = a.strip_prefix("--seed=") {
            o.seed = v.parse().expect("--seed=<u64>");
        } else if let Some(v) = a.strip_prefix("--poll-ms=") {
            o.poll_ms = v.parse::<u64>().expect("--poll-ms=<u64>").max(1);
        } else if let Some(v) = a.strip_prefix("--max-seconds=") {
            o.max_seconds = v.parse().expect("--max-seconds=<u64>");
        } else if a == "--quiet" {
            o.quiet = true;
        } else {
            eprintln!(
                "flags: --dir=<path> --runs=<usize> --n=<u32> --steps=<u64> --pes=<usize> \
                 --seed=<u64> --poll-ms=<u64> --max-seconds=<u64> --quiet"
            );
            std::process::exit(2);
        }
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("usage: obs_hub <farm|watch|selftest-faults> [flags]");
            std::process::exit(2);
        }
    };
    match cmd {
        "farm" => farm(parse_opts(rest)),
        "watch" => watch(parse_opts(rest)),
        "selftest-faults" => selftest_faults(parse_opts(rest)),
        other => {
            eprintln!("unknown subcommand {other:?}; expected farm, watch, or selftest-faults");
            std::process::exit(2);
        }
    }
}

/// Launch the fleet and monitor it to completion on this thread.
fn farm(o: Opts) {
    std::fs::create_dir_all(&o.dir).expect("create farm dir");
    let done = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..o.runs {
            let dir = o.dir.join(format!("run-{i:02}"));
            let (done, o) = (&done, &o);
            scope.spawn(move || {
                let model =
                    HotPotatoModel::torus(HotPotatoConfig::new(o.n, o.steps).with_injectors(0.4));
                let engine = EngineConfig::new(model.end_time())
                    .with_seed(o.seed.wrapping_add(i as u64))
                    .with_pes(o.pes)
                    .with_kps(4 * o.pes as u32)
                    .with_obs(
                        ObsConfig::default()
                            .with_metrics_path(dir.join("metrics.jsonl"))
                            .with_model_label(format!("hotpotato-{n}x{n}", n = o.n)),
                    );
                let run = model.run(&engine);
                let r = check(if o.pes <= 1 { run.sequential() } else { run }.go());
                std::hint::black_box(r.output);
                done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }
        monitor(&o, Some((&done, o.runs)));
    });
}

/// Monitor a farm someone else is (or was) running.
fn watch(o: Opts) {
    monitor(&o, None);
}

/// Poll the farm until done (all runs terminal, and — in farm mode — all
/// launcher threads joined-to-be) or the deadline passes, then write and
/// validate the fleet artifacts.
fn monitor(o: &Opts, launched: Option<(&std::sync::atomic::AtomicUsize, usize)>) {
    let t0 = Instant::now();
    let mut monitor = FleetMonitor::new(HealthPolicy::default());
    loop {
        let now_ms = t0.elapsed().as_millis() as u64;
        if let Err(e) = monitor.scan_farm(&o.dir, now_ms) {
            // The farm dir may not exist yet in watch mode; keep polling.
            if t0.elapsed().as_secs() >= o.max_seconds {
                eprintln!("farm scan failed: {e}");
                std::process::exit(1);
            }
        }
        match monitor.poll(now_ms) {
            Ok(fresh) => {
                for ev in &fresh {
                    eprintln!("health: {}", ev.json());
                }
            }
            Err(e) => {
                eprintln!("poll failed: {e}");
                std::process::exit(1);
            }
        }
        if !o.quiet {
            eprint!("\r{}", monitor.status_line());
        }
        let workers_done =
            launched.is_none_or(|(done, n)| done.load(std::sync::atomic::Ordering::SeqCst) >= n);
        if workers_done && monitor.all_done() {
            break;
        }
        if t0.elapsed().as_secs() >= o.max_seconds {
            if !o.quiet {
                eprintln!();
            }
            eprintln!(
                "deadline: {}s elapsed with {} runs not terminal",
                o.max_seconds,
                monitor
                    .runs()
                    .filter(|(_, r)| !r.state().is_terminal())
                    .count()
            );
            std::process::exit(1);
        }
        std::thread::sleep(std::time::Duration::from_millis(o.poll_ms));
    }
    if !o.quiet {
        eprintln!("\r{}", monitor.status_line());
    }
    write_artifacts(&o.dir, &monitor);
    let failed = monitor
        .runs()
        .filter(|(_, r)| r.state() == pdes::RunState::Failed)
        .count();
    if failed > 0 {
        eprintln!("{failed} run(s) failed");
        std::process::exit(1);
    }
}

/// Write `health.jsonl` + `rollup.json`, validating both with the in-tree
/// JSON validator before they land (a hub that emits unparseable artifacts
/// is itself a health event).
fn write_artifacts(dir: &Path, monitor: &FleetMonitor) {
    let health = monitor.health_jsonl();
    json::validate_jsonl(&health).expect("health.jsonl failed self-validation");
    std::fs::write(dir.join("health.jsonl"), &health).expect("write health.jsonl");
    let rollup = monitor.rollup_json();
    json::validate(&rollup).expect("rollup.json failed self-validation");
    std::fs::write(dir.join("rollup.json"), rollup + "\n").expect("write rollup.json");
    println!(
        "wrote {} and {} ({} health events)",
        dir.join("health.jsonl").display(),
        dir.join("rollup.json").display(),
        monitor.events().len(),
    );
}

/// Build a synthetic run directory: a real manifest (written through
/// [`RunManifest::for_run`], so the schema can never drift from the kernel
/// writer) plus a caller-supplied metrics stream.
fn synth_run(dir: &Path, lines: &str) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create synth run dir");
    let metrics = dir.join("metrics.jsonl");
    let cfg = EngineConfig::new(VirtualTime::from_steps(1));
    RunManifest::for_run(&cfg, 1, "synthetic", &metrics)
        .write(dir)
        .expect("write synth manifest");
    std::fs::write(&metrics, lines).expect("write synth metrics");
    dir.to_path_buf()
}

/// Inject a GVT stall and a silent stream; require the matching detectors.
fn selftest_faults(o: Opts) {
    let scratch = std::env::temp_dir().join(format!("pdes-obs-selftest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let policy = HealthPolicy::default();

    // Fault 1: rounds advance but GVT is frozen past the stall budget.
    let mut stalled = String::new();
    for round in 1..=(policy.gvt_stall_rounds + 4) {
        let snap = RoundSnapshot {
            round,
            pe: 0,
            gvt: 7,
            lvt: 1_000,
            events_processed: round * 100,
            events_committed: 300,
            ..Default::default()
        };
        stalled.push_str(&json::snapshot_json(&snap));
        stalled.push('\n');
    }
    synth_run(&scratch.join("stall"), &stalled);

    // Fault 2: a stream that announces itself and then goes quiet.
    synth_run(
        &scratch.join("silent"),
        "{\"hb\":1,\"pe\":0,\"wall_us\":0,\"round\":0,\"gvt\":0,\"committed\":0,\"state\":\"run\"}\n",
    );

    let mut monitor = FleetMonitor::new(policy);
    monitor.scan_farm(&scratch, 0).expect("scan synth farm");
    // The clock is caller-supplied: one poll at t=0 ingests both streams,
    // one past the silent budget trips the timeout without real waiting.
    monitor.poll(0).expect("poll at t=0");
    monitor
        .poll(policy.silent_ms + 1)
        .expect("poll past silent budget");

    let fired = |run: &str, det: HealthDetector| {
        monitor
            .events()
            .iter()
            .any(|ev| ev.run == run && ev.detector == det)
    };
    let stall_ok = fired("stall", HealthDetector::GvtStall);
    let silent_ok = fired("silent", HealthDetector::SilentStream);
    write_artifacts(&scratch, &monitor);
    println!(
        "selftest: gvt_stall={} silent_stream={}",
        if stall_ok { "fired" } else { "MISSING" },
        if silent_ok { "fired" } else { "MISSING" },
    );
    if !o.quiet {
        for ev in monitor.events() {
            println!("  {}", ev.json());
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if !(stall_ok && silent_ok) {
        std::process::exit(1);
    }
}
