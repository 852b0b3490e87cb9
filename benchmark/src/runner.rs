//! The two passes over one workload: the dark pass that produces the
//! end-to-end metrics, and the traced pass that produces the per-layer ones.
//!
//! Both are closed loops: one simulation at a time, the next started when
//! the previous returned.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::obs::prof::Phase;
use pdes::{EngineStats, GvtMode};
use topo::BlockMapping;

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::probes;
use crate::report::{Row, Samples};
use crate::spans::Spans;
use crate::workloads::{
    engine_config, run_once, Horizon, Kernel, Obs, Rep, Spec, DEFAULT_SEED, TW2,
};

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Overrides the pinned golden digest (and applies at any seed).
    pub expect_digest: Option<u64>,
    /// Directory for `results.json`, `env.json`, `trace.json` and the
    /// checkpoint probe's scratch files.
    pub out: PathBuf,
}

/// What a pass produced.
#[derive(Debug)]
pub struct Outcome {
    pub rows: Vec<Row>,
    /// Simulations checked: the oracle and every repetition.
    pub attempted: u64,
    /// Of those, the ones that returned an error or the wrong output.
    pub failed: u64,
    pub spans: Spans,
}

/// Null runs that make up `setup_s`: at least this many...
const NULL_RUNS_MIN: usize = 40;
/// ...and more until this much time has gone by, up to a cap.
const NULL_RUNS_SECONDS: f64 = 1.0;
const NULL_RUNS_MAX: usize = 500;

/// Counts attempts and failures against the oracle's committed output.
struct Gate {
    want_digest: u64,
    want_committed: u64,
    attempted: u64,
    failed: u64,
}

impl Gate {
    /// Warm the process up with one repetition nobody times, run the oracle
    /// once, compare it with the golden digest where one applies, and check
    /// the warm-up against it. Returns the oracle's repetition.
    fn open(spec: &Spec, args: &RunArgs, spans: &mut Spans) -> Result<(Gate, Rep), String> {
        let threads = spec.kernel.threads();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if threads > cores {
            return Err(format!(
                "{} runs {threads} PE threads but this machine has {cores} hardware thread(s)",
                spec.name
            ));
        }
        let warm_up = spans.scope("warm_up", |sp| {
            run_once(spec, &spec.kernel, Horizon::Full, args.seed, Obs::Dark, sp)
        });
        let oracle = spans
            .scope("oracle", |sp| {
                run_once(
                    spec,
                    &spec.oracle(),
                    Horizon::Full,
                    args.seed,
                    Obs::Dark,
                    sp,
                )
            })
            .map_err(|e| format!("oracle run failed: {e}"))?;
        let mut gate = Gate {
            want_digest: oracle.digest,
            want_committed: oracle.stats.events_committed,
            attempted: 1,
            failed: 0,
        };
        let golden = args
            .expect_digest
            .or((args.seed == DEFAULT_SEED).then_some(spec.golden));
        if let Some(golden) = golden {
            if golden != oracle.digest {
                eprintln!(
                    "{}: output digest {:#018x} != golden {golden:#018x} at seed {}",
                    spec.name, oracle.digest, args.seed
                );
                gate.failed += 1;
            }
        }
        gate.admit(spec, warm_up);
        Ok((gate, oracle))
    }

    /// Stop measuring a workload that fails again and again.
    fn give_up_after_repeated_failures(&self) -> Result<(), String> {
        if self.failed > 3 {
            Err(format!(
                "{} of {} simulations failed",
                self.failed, self.attempted
            ))
        } else {
            Ok(())
        }
    }

    /// Count one repetition; `Some` only if it committed the oracle's output.
    fn admit(&mut self, spec: &Spec, rep: Result<Rep, String>) -> Option<Rep> {
        self.attempted += 1;
        match rep {
            Ok(r)
                if r.digest == self.want_digest
                    && r.stats.events_committed == self.want_committed =>
            {
                return Some(r)
            }
            Ok(r) => eprintln!(
                "{}: committed output differs from the oracle (digest {:#018x} vs {:#018x}, \
                 {} vs {} events)",
                spec.name,
                r.digest,
                self.want_digest,
                r.stats.events_committed,
                self.want_committed
            ),
            Err(e) => eprintln!("{}: run failed: {e}", spec.name),
        }
        self.failed += 1;
        None
    }
}

/// The dark pass: warm-up and oracle, null runs for `setup_s`, then timed
/// repetitions for `args.seconds`.
pub fn dark(spec: &Spec, args: &RunArgs) -> Result<Outcome, String> {
    let mut spans = Spans::new(false);
    let (mut gate, _oracle) = Gate::open(spec, args, &mut spans)?;
    let run = |horizon, spans: &mut Spans| {
        run_once(spec, &spec.kernel, horizon, args.seed, Obs::Dark, spans)
    };
    let mut samples = Samples::default();

    let t0 = Instant::now();
    let mut nulls = Vec::new();
    while nulls.len() < NULL_RUNS_MIN
        || (t0.elapsed().as_secs_f64() < NULL_RUNS_SECONDS && nulls.len() < NULL_RUNS_MAX)
    {
        // A null run commits nothing, so only errors count here.
        gate.attempted += 1;
        match run(Horizon::Null, &mut spans) {
            Ok(rep) => nulls.push(rep.wall_s),
            Err(e) => {
                eprintln!("{}: null run failed: {e}", spec.name);
                gate.failed += 1;
                gate.give_up_after_repeated_failures()?;
            }
        }
    }
    samples.extend("setup_s", &nulls);
    let setup_s = metrics::def("setup_s").headline(&nulls);

    let t0 = Instant::now();
    let mut reps = 0;
    while reps < 3 || t0.elapsed().as_secs_f64() < args.seconds {
        reps += 1;
        if let Some(rep) = gate.admit(spec, run(Horizon::Full, &mut spans)) {
            samples.push("wall_s", rep.wall_s);
            samples.push(
                "committed_ev_per_s",
                rep.stats.events_committed as f64 / (rep.wall_s - setup_s),
            );
        } else {
            gate.give_up_after_repeated_failures()?;
        }
    }
    Ok(Outcome {
        rows: samples.rows(spec.name, END_TO_END),
        attempted: gate.attempted,
        failed: gate.failed,
        spans,
    })
}

/// Share of `--seconds` the traced pass spends on repetition pairs; the
/// probes, the checkpoint probe and the peak-RSS child take about the rest.
const PAIRS_SHARE: f64 = 0.7;

/// The traced pass: warm-up and oracle, dark/traced repetition pairs for
/// [`PAIRS_SHARE`] of `args.seconds`, the checkpoint probe, the peak-RSS
/// child, and the probes.
pub fn traced(spec: &Spec, args: &RunArgs) -> Result<Outcome, String> {
    let mut spans = Spans::new(true);
    let (mut gate, oracle) = Gate::open(spec, args, &mut spans)?;
    let mut samples = Samples::default();
    // (scheduler holds, their estimated ns, executions, their estimated ns)
    let mut recon = Vec::new();

    let t0 = Instant::now();
    let mut pair = 0;
    while pair < 1 || t0.elapsed().as_secs_f64() < args.seconds * PAIRS_SHARE {
        pair += 1;
        spans.set_rep(pair);
        let mut run = |obs| {
            let rep = run_once(
                spec,
                &spec.kernel,
                Horizon::Full,
                args.seed,
                obs,
                &mut spans,
            );
            gate.admit(spec, rep)
        };
        let (Some(dark), Some(traced)) = (run(Obs::Dark), run(Obs::Traced)) else {
            gate.give_up_after_repeated_failures()?;
            continue;
        };
        // The sequential wall of the same problem: this workload's own when
        // it is the sequential one, else the oracle's.
        let seq_wall = match spec.kernel {
            Kernel::Sequential => dark.wall_s,
            Kernel::TimeWarp { .. } => oracle.wall_s,
        };
        push_traced(&mut samples, &traced, &dark, seq_wall);
        let p = &traced.stats.prof;
        recon.push((
            (p.phase(Phase::SchedPop).count + p.phase(Phase::SchedPush).count) as f64 / 2.0,
            (p.est_ns(Phase::SchedPop) + p.est_ns(Phase::SchedPush)) as f64,
            p.phase(Phase::Execute).count as f64,
            p.est_ns(Phase::Execute) as f64,
        ));
    }
    if recon.is_empty() {
        return Err("no repetition pair succeeded".into());
    }
    spans.set_rep(0);

    spans.scope("ckpt_probe", |_| ckpt_probe(&mut samples, args))?;
    samples.push("process.peak_rss_mb", peak_rss_of_child(spec, args.seed)?);

    let costs = probes::run_all(&mut samples, &mut spans, args.seed, spec.model);
    for (holds, sched_ns, execs, exec_ns) in recon {
        let ratio = |predicted: f64, estimated: f64| {
            if estimated > 0.0 {
                predicted / estimated
            } else {
                0.0
            }
        };
        samples.push("recon.sched_ratio", ratio(costs.hold_ns * holds, sched_ns));
        samples.push(
            "recon.execute_ratio",
            ratio(costs.handle_ns * execs, exec_ns),
        );
    }
    Ok(Outcome {
        rows: samples.rows(spec.name, PER_LAYER),
        attempted: gate.attempted,
        failed: gate.failed,
        spans,
    })
}

/// The phases whose share of busy time is a catalogued metric.
const PROFILED: [Phase; 10] = [
    Phase::SchedPop,
    Phase::SchedPush,
    Phase::Execute,
    Phase::Reverse,
    Phase::AntiSend,
    Phase::Fossil,
    Phase::CommFlush,
    Phase::CommDrain,
    Phase::GvtWait,
    Phase::GvtReduce,
];

/// The per-layer metrics one dark/traced pair yields.
fn push_traced(samples: &mut Samples, traced: &Rep, dark: &Rep, seq_wall_s: f64) {
    let s: &EngineStats = &traced.stats;
    let p = &s.prof;
    let committed = s.events_committed as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut put = |name: &str, v: f64| samples.push(name, v);

    put("arena.peak_slots", s.arena_peak_slots as f64);
    put("pool.hit_rate", s.pool_hit_rate());
    put(
        "comm.remote_frac",
        per(s.remote_events as f64, s.events_processed as f64),
    );
    put("comm.mean_batch", s.mean_batch_size());
    put("comm.ring_full_stalls", s.ring_full_stalls as f64);
    put("gvt.rounds", s.gvt_rounds as f64);
    put("gvt.events_per_round", per(committed, s.gvt_rounds as f64));
    put(
        "parallel.useful_exec_frac",
        per(committed, s.events_processed as f64),
    );
    put("parallel.primary_rollbacks", s.primary_rollbacks as f64);
    put("parallel.secondary_rollbacks", s.secondary_rollbacks as f64);
    put(
        "parallel.anti_per_committed",
        per(s.anti_messages as f64, committed),
    );
    put("parallel.mean_rollback_len", s.mean_rollback_length());
    put("parallel.utilisation", 1.0 - p.share(Phase::GvtWait));
    put("parallel.speedup_vs_seq", seq_wall_s / dark.wall_s);
    for ph in PROFILED {
        put(&format!("prof.share.{}", ph.name()), p.share(ph));
    }
    put(
        "prof.busy_ns_per_committed",
        per(p.busy_ns() as f64, committed),
    );
    put("sequential.ns_per_event", seq_wall_s * 1e9 / committed);
    put("obs.trace_overhead_frac", traced.wall_s / dark.wall_s - 1.0);
    put("sim.delivered", traced.sim.delivered);
    put("sim.avg_delivery_steps", traced.sim.avg_delivery_steps);
    put(
        "sim.avg_inject_wait_steps",
        traced.sim.avg_inject_wait_steps,
    );
    put("sim.deflection_rate", traced.sim.deflection_rate);
    put("sim.events_committed", committed);
}

/// `pdes::ckpt` cost: a short 2-PE torus run under barrier GVT with and
/// without a snapshot every 8 rounds, then `read_snapshot` of the newest.
fn ckpt_probe(samples: &mut Samples, args: &RunArgs) -> Result<(), String> {
    const RUNS: usize = 3;
    const READS: usize = 5;
    let dir = args.out.join("ckpt-probe");
    let model = HotPotatoModel::torus(HotPotatoConfig::new(32, 160).with_injectors(0.4));
    let mapping = BlockMapping::new(32, 64, 2);
    let mut plain = engine_config(&TW2, model.end_time(), args.seed, Obs::Dark);
    plain.gvt_mode = GvtMode::Barrier;
    let mut ckpt = plain.clone();
    ckpt.checkpoint_every = Some(8);
    ckpt.checkpoint_dir = dir.clone();
    let run = |cfg| {
        let t0 = Instant::now();
        let res = pdes::run_parallel_mapped(&model, cfg, &mapping).map_err(|e| e.to_string())?;
        Ok::<_, String>((t0.elapsed().as_secs_f64(), res.stats))
    };
    for _ in 0..RUNS {
        let (plain_s, _) = run(&plain)?;
        let (ckpt_s, stats) = run(&ckpt)?;
        let written = stats.checkpoints_written.max(1) as f64;
        samples.push(
            "ckpt.bytes_per_snapshot",
            stats.checkpoint_bytes as f64 / written,
        );
        samples.push(
            "ckpt.write_ms_per_snapshot",
            (ckpt_s - plain_s) * 1e3 / written,
        );
    }
    let newest = pdes::list_snapshots(&dir)
        .pop()
        .ok_or("checkpoint probe wrote no snapshot")?;
    for _ in 0..READS {
        let t0 = Instant::now();
        let snap = pdes::read_snapshot(&newest).map_err(|e| e.to_string())?;
        std::hint::black_box(snap.n_pending());
        samples.push("ckpt.read_decode_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Peak resident set of a child process that runs one dark repetition and
/// nothing else, in MB.
fn peak_rss_of_child(spec: &Spec, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--rss-child", spec.name, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("peak-RSS child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "peak-RSS child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map(|kb| kb / 1024.0)
        .map_err(|e| format!("peak-RSS child printed no number: {e}"))
}

/// Body of the peak-RSS child: one dark repetition, then this process's
/// `VmHWM` in kB on stdout.
pub fn rss_child(spec: &Spec, seed: u64) -> Result<(), String> {
    run_once(
        spec,
        &spec.kernel,
        Horizon::Full,
        seed,
        Obs::Dark,
        &mut Spans::new(false),
    )?;
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    println!("{kb}");
    Ok(())
}

/// Write `text` to `dir/name`, creating `dir`.
pub fn write_out(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
