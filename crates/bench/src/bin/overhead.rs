//! What each kernel toggle costs against a reference run **in the same
//! process**: one table of modes, one interleaved paired-sample schedule,
//! one artifact (`artifacts/BENCH_overhead.json`).
//!
//! Scenario: the continuity workload every overhead figure in this repo
//! has been quoted on — 4-PE Time Warp on a 16×16 torus, load 0.4, 96
//! steps, natural lookahead (171 053 committed events at the default
//! `--steps`). Throughput itself is not measured here; that is
//! `benchmark/run.sh` (end to end, per layer, `--compare`).
//!
//! Protocol: every mode first commits one untimed warm-up run whose output
//! must equal the sequential oracle — observation that perturbs the
//! simulation is a bug, not overhead. Then `--samples` rounds visit the
//! modes in table order, so ambient load hits every mode equally. A row's
//! overhead is the ratio of *best* walls (co-tenant noise only ever slows a
//! sample down) against its reference row; a gated row fails the binary
//! (exit 1) when that exceeds its budget plus the reference row's measured
//! even/odd-split noise floor. Nothing is compared across processes.
//!
//! ```sh
//! cargo run --release -p bench --bin overhead    # flags: --out= --steps= --samples=
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{best_wall, median_of, noise_floor_pct, overhead_pct_best};
use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::{EngineConfig, JsonlSink, ObsConfig, TRACE_UNBOUNDED};

const N: u32 = 16;
const LOAD: f64 = 0.4;
const SEED: u64 = 0xBE9C_0702;
const PES: usize = 4;

/// One row of the table.
struct Mode {
    name: &'static str,
    /// Derives the mode's configuration from the dark base; the path is the
    /// scratch run directory (sinks, manifests and snapshots land there).
    /// Called afresh for every run, outside the timed region, so file-backed
    /// modes re-pay truncation + manifest write inside each timed run.
    cfg: fn(&EngineConfig, &Path) -> EngineConfig,
    /// `(reference mode, budget %)`: the row whose walls this row's are
    /// divided by, and — for a gated row — how far above it this row may
    /// sit. `None` budget = informational.
    vs: Option<(&'static str, Option<f64>)>,
}

fn obs(base: &EngineConfig, obs: ObsConfig) -> EngineConfig {
    base.clone().with_obs(obs)
}

const MODES: &[Mode] = &[
    // Telemetry, profiler, blame, audit, checkpoints: all off.
    Mode {
        name: "dark",
        cfg: |b, _| b.clone(),
        vs: None,
    },
    // What `EngineConfig::new` ships: round series + stride-sampled phase
    // profiler + blame + heartbeat cadence, no sink.
    Mode {
        name: "default",
        cfg: |b, _| obs(b, ObsConfig::default()),
        vs: Some(("dark", Some(5.0))),
    },
    Mode {
        name: "verbose",
        cfg: |b, _| obs(b, ObsConfig::verbose()),
        vs: Some(("dark", None)),
    },
    Mode {
        name: "profiler",
        cfg: |b, _| obs(b, ObsConfig::disabled().with_profiler(true)),
        vs: Some(("dark", None)),
    },
    Mode {
        name: "packet_trace",
        cfg: |b, _| obs(b, ObsConfig::disabled().with_packet_trace(TRACE_UNBOUNDED)),
        vs: Some(("dark", None)),
    },
    Mode {
        name: "audit_fast",
        cfg: |b, _| b.clone().with_audit(true).with_audit_probe(false),
        vs: Some(("dark", None)),
    },
    Mode {
        name: "audit_full",
        cfg: |b, _| b.clone().with_audit(true).with_audit_probe(true),
        vs: Some(("dark", None)),
    },
    Mode {
        name: "ckpt_every_round",
        cfg: |b, dir| {
            b.clone()
                .with_checkpoint_every(1)
                .with_checkpoint_dir(dir.join("ckpt"))
        },
        vs: Some(("dark", None)),
    },
    // Pure JSONL streaming (explicit sink, heartbeats off) — attribution
    // for the `hub` row.
    Mode {
        name: "jsonl",
        cfg: |b, dir| {
            let sink = JsonlSink::create(dir.join("jsonl.jsonl")).expect("create jsonl sink");
            obs(
                b,
                ObsConfig::default()
                    .with_heartbeat_every(0)
                    .with_sink(Arc::new(sink)),
            )
        },
        vs: Some(("default", None)),
    },
    // Registered run: manifest + JSONL stream + heartbeats.
    Mode {
        name: "hub",
        cfg: |b, dir| {
            let o = ObsConfig::default()
                .with_metrics_path(dir.join("metrics.jsonl"))
                .with_run_id("overhead");
            obs(b, o)
        },
        vs: Some(("default", Some(5.0))),
    },
    Mode {
        name: "blame_off",
        cfg: |b, _| obs(b, ObsConfig::default().with_blame(false)),
        vs: Some(("default", None)),
    },
    // Same configuration as `default`, sampled as its own row because a row
    // carries one gate: rollback forensics over everything-but-forensics.
    Mode {
        name: "blame_on",
        cfg: |b, _| obs(b, ObsConfig::default()),
        vs: Some(("blame_off", Some(3.0))),
    },
];

/// Scratch run directory, removed on drop — on return from `main` and on an
/// unwinding panic (a failed oracle assert) alike.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let mut out_path = PathBuf::from("artifacts/BENCH_overhead.json");
    let mut steps: u64 = 96;
    let mut samples: usize = 11;
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--out=") {
            out_path = v.into();
        } else if let Some(v) = a.strip_prefix("--steps=") {
            steps = v.parse().expect("--steps=<u64>");
        } else if let Some(v) = a.strip_prefix("--samples=") {
            samples = v.parse::<usize>().expect("--samples=<usize>").max(1);
        } else {
            eprintln!("flags: --out=<path> --steps=<u64> --samples=<usize>");
            return ExitCode::from(2);
        }
    }

    let scratch =
        Scratch(std::env::temp_dir().join(format!("pdes-overhead-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create scratch run dir");

    let model = HotPotatoModel::torus(HotPotatoConfig::new(N, steps).with_injectors(LOAD));
    let dark = EngineConfig::new(model.end_time())
        .with_seed(SEED)
        .with_pes(PES)
        .with_kps(64)
        .with_lookahead(model.natural_lookahead())
        .with_obs(ObsConfig::disabled())
        .with_audit(false)
        .without_checkpoints();
    let oracle = model
        .run(&dark)
        .sequential()
        .go()
        .expect("sequential oracle failed");
    let committed = oracle.stats.events_committed;

    // Warm-up + correctness, once per mode, before anything is timed.
    for m in MODES {
        let r = model
            .run(&(m.cfg)(&dark, &scratch.0))
            .go()
            .expect("parallel run failed");
        assert_eq!(
            r.output, oracle.output,
            "{}: committed output diverged from the sequential oracle",
            m.name
        );
        assert_eq!(
            r.stats.events_committed, committed,
            "{}: committed count",
            m.name
        );
    }

    let mut walls: Vec<Vec<Duration>> = vec![Vec::with_capacity(samples); MODES.len()];
    for _ in 0..samples {
        for (m, w) in MODES.iter().zip(&mut walls) {
            let cfg = (m.cfg)(&dark, &scratch.0);
            let t0 = Instant::now();
            let r = model.run(&cfg).go().expect("parallel run failed");
            w.push(t0.elapsed());
            std::hint::black_box(r.output);
        }
    }
    let walls_of = |name: &str| {
        let i = MODES
            .iter()
            .position(|m| m.name == name)
            .expect("reference mode in table");
        &walls[i]
    };

    let hw = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# overhead: {PES}-PE Time Warp, {N}x{N} torus, load {LOAD}, {steps} steps, \
         {committed} committed events, {samples} interleaved samples, {hw} hardware threads"
    );
    println!(
        "{:<17} {:>10} {:>10} {:>11}  {:<9} {:>9} {:>7} {:>7}  verdict",
        "mode", "best", "median", "ev/s best", "vs", "overhead", "noise", "budget"
    );
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"overhead\",");
    let _ = writeln!(json, "  \"torus\": \"{N}x{N}\",");
    let _ = writeln!(json, "  \"pes\": {PES},");
    let _ = writeln!(json, "  \"load\": {LOAD},");
    let _ = writeln!(json, "  \"steps\": {steps},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"hardware_threads\": {hw},");
    let _ = writeln!(json, "  \"events_committed\": {committed},");
    json.push_str("  \"modes\": [\n");
    let mut within_budget = true;
    for (i, (m, w)) in MODES.iter().zip(&walls).enumerate() {
        let (best, med) = (best_wall(w), median_of(w));
        let eps = committed as f64 / best.as_secs_f64();
        let _ = write!(
            json,
            "    {{ \"mode\": \"{}\", \"best_wall_s\": {:.4}, \"median_wall_s\": {:.4}, \
             \"events_per_sec_best\": {eps:.1}",
            m.name,
            best.as_secs_f64(),
            med.as_secs_f64()
        );
        print!("{:<17} {best:>10.3?} {med:>10.3?} {eps:>11.0}", m.name);
        if let Some((reference, budget)) = m.vs {
            let overhead = overhead_pct_best(walls_of(reference), w);
            let noise = noise_floor_pct(walls_of(reference));
            let _ = write!(
                json,
                ", \"vs\": \"{reference}\", \"overhead_pct\": {overhead:.2}, \
                 \"noise_floor_pct\": {noise:.2}"
            );
            print!("  {reference:<9} {overhead:>8.2}% {noise:>6.2}%");
            match budget {
                Some(b) => {
                    let ok = overhead <= b + noise;
                    let _ = write!(json, ", \"budget_pct\": {b}, \"within_budget\": {ok}");
                    println!(" {b:>6.1}%  {}", if ok { "ok" } else { "OVER BUDGET" });
                    within_budget &= ok;
                }
                None => println!(" {:>7}  informational", "-"),
            }
        } else {
            println!();
        }
        json.push_str(if i + 1 < MODES.len() { " },\n" } else { " }\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"within_budget\": {within_budget}");
    json.push_str("}\n");

    pdes::obs::json::validate(&json).expect("BENCH_overhead.json failed self-validation");
    if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).expect("create out dir");
    }
    std::fs::write(&out_path, &json).expect("write BENCH_overhead.json");
    println!("wrote {}", out_path.display());

    if !within_budget {
        eprintln!("overhead gate: a gated row exceeds budget + noise floor (see table)");
    }
    ExitCode::from(u8::from(!within_budget))
}
