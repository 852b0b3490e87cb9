//! Integration suite for what an instrumented run writes (`pdes::obs::agg`):
//! the `run-manifest.json` registry entry and the JSONL stream its
//! heartbeats open and close, on the real hot-potato model, across the
//! sequential kernel, Time Warp and the windowed arm. The files are read
//! back with the in-tree JSON parser.

use std::path::{Path, PathBuf};

use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::obs::json::{self, JsonValue};
use pdes::{EngineConfig, FaultPlan, MemorySink, ObsConfig, RunError, RunPhase, VirtualTime};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdes-agg-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `run_dir/run-manifest.json`, parsed; it must be one line of valid JSON
/// written by this build's schema.
fn manifest(run_dir: &Path) -> JsonValue {
    let text = std::fs::read_to_string(run_dir.join("run-manifest.json")).unwrap();
    assert_eq!(text.lines().count(), 1, "{text}");
    let v = json::parse(text.trim()).unwrap();
    assert_eq!(v.u64_field("manifest_version"), Some(1));
    assert_eq!(v.str_field("metrics"), Some("metrics.jsonl"));
    v
}

/// The closing line of `run_dir/metrics.jsonl`. Every line must parse, and
/// the stream must open with a `run` heartbeat and close on a heartbeat.
fn closing_pulse(run_dir: &Path) -> JsonValue {
    let text = std::fs::read_to_string(run_dir.join("metrics.jsonl")).unwrap();
    let lines: Vec<JsonValue> = text.lines().map(|l| json::parse(l).unwrap()).collect();
    assert_eq!(lines[0].u64_field("hb"), Some(1));
    assert_eq!(lines[0].str_field("state"), Some("run"));
    let last = lines.last().unwrap().clone();
    assert_eq!(
        last.u64_field("hb"),
        Some(1),
        "the stream closes on a pulse"
    );
    last
}

#[test]
fn instrumented_run_registers_streams_and_rolls_up() {
    let dir = scratch("e2e");
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 32).with_injectors(0.4));
    let dark = EngineConfig::new(model.end_time())
        .with_seed(42)
        .with_pes(2)
        .with_kps(8);
    let oracle = model.run(&dark).sequential().go().unwrap();

    // Time Warp (unbounded optimism), then the windowed arm (a one-step
    // bound: the model's epoch). The manifest records the bound each ran at.
    for (run, lookahead) in [("run-00", u64::MAX), ("run-01", VirtualTime::STEP)] {
        let run_dir = dir.join(run);
        let engine = dark.clone().with_lookahead(lookahead).with_obs(
            ObsConfig::default()
                .with_metrics_path(run_dir.join("metrics.jsonl"))
                .with_model_label("hotpotato-8x8"),
        );
        let par = model.run(&engine).go().unwrap();
        // Instrumentation must not perturb the committed history.
        assert_eq!(par.output, oracle.output, "{run}");
        if lookahead == VirtualTime::STEP {
            assert_eq!(par.stats.total_rollbacks(), 0, "{run} ran windowed");
        }

        let m = manifest(&run_dir);
        assert_eq!(m.str_field("run_id"), Some(run));
        assert_eq!(m.str_field("kernel"), Some("parallel"));
        assert_eq!(m.str_field("model"), Some("hotpotato-8x8"));
        assert_eq!(m.u64_field("n_pes"), Some(2));
        assert_eq!(m.u64_field("seed"), Some(42));
        assert_eq!(m.u64_field("max_lookahead"), Some(lookahead), "{run}");

        // The run rolls its own total into the closing pulse.
        let last = closing_pulse(&run_dir);
        assert_eq!(last.str_field("state"), Some("end"), "{run}");
        assert_eq!(
            last.u64_field("committed"),
            Some(par.stats.events_committed),
            "{run}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With no bound set, a hot-potato run takes the model's one-step epoch as
/// its bound: on 2 PEs it runs windowed, commits the oracle without a single
/// rollback, and its manifest records the bound it resolved to.
#[test]
fn a_default_config_runs_at_the_models_epoch() {
    let dir = scratch("default-bound");
    let run_dir = dir.join("run-00");
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 32).with_injectors(0.4));
    let engine = EngineConfig::new(model.end_time())
        .with_seed(42)
        .with_pes(2);
    let oracle = model.run(&engine).sequential().go().unwrap();
    let metrics = ObsConfig::default().with_metrics_path(run_dir.join("metrics.jsonl"));
    let par = model.run(&engine.with_obs(metrics)).go().unwrap();
    assert_eq!(par.output, oracle.output);
    assert_eq!(par.stats.total_rollbacks(), 0);
    assert_eq!(par.stats.events_processed, par.stats.events_committed);
    assert_eq!(
        manifest(&run_dir).u64_field("max_lookahead"),
        Some(VirtualTime::STEP)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_kernel_registers_too() {
    let dir = scratch("e2e-seq");
    let run_dir = dir.join("seq-00");
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 24).with_injectors(0.4));
    let engine = EngineConfig::new(model.end_time())
        .with_seed(7)
        .with_obs(ObsConfig::default().with_metrics_path(run_dir.join("metrics.jsonl")));
    let res = model.run(&engine).sequential().go().unwrap();

    assert_eq!(manifest(&run_dir).str_field("kernel"), Some("sequential"));
    let last = closing_pulse(&run_dir);
    assert_eq!(last.str_field("state"), Some("end"));
    assert_eq!(
        last.u64_field("committed"),
        Some(res.stats.events_committed)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failing sequential run goes through the same teardown as a parallel
/// one: the stream closes with a flushed `fail` heartbeat at the round it
/// died in, so a reader sees the run as failed, not as merely silent.
#[test]
fn failed_sequential_run_closes_the_stream_with_fail() {
    let dir = scratch("e2e-seq-fail");
    let run_dir = dir.join("seq-00");
    // A checkpoint directory *under a regular file*: the first snapshot
    // write (round 1) fails with an I/O error mid-run.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 24).with_injectors(0.4));
    let engine = EngineConfig::new(model.end_time())
        .with_seed(7)
        .with_gvt_interval(64)
        .with_checkpoint_every(1)
        .with_checkpoint_dir(blocker.join("ckpt"))
        .with_obs(ObsConfig::default().with_metrics_path(run_dir.join("metrics.jsonl")));
    let err = model.run(&engine).sequential().go().unwrap_err();
    assert!(matches!(err, RunError::Checkpoint { .. }), "got {err}");

    manifest(&run_dir);
    let last = closing_pulse(&run_dir);
    assert_eq!(last.str_field("state"), Some("fail"));
    assert_eq!(
        (last.u64_field("round"), last.u64_field("committed")),
        (Some(1), Some(64))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The closing heartbeat reports the round the run actually reached — on
/// the sequential kernel, Time Warp and the windowed arm, for `end` and for
/// `fail` — not a hard-coded 0, and `end` carries the run's committed total.
#[test]
fn closing_heartbeat_carries_the_last_round() {
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 24).with_injectors(0.4));
    let engine = |sink: &std::sync::Arc<MemorySink>| {
        EngineConfig::new(model.end_time())
            .with_seed(7)
            .with_pes(2)
            .with_kps(8)
            .with_gvt_interval(64)
            .with_obs(ObsConfig::default().with_sink(sink.clone()))
    };
    let max_round = |sink: &MemorySink, pe: Option<usize>| {
        let snaps = sink.snapshots();
        let of_pe = snaps.iter().filter(|s| pe.is_none_or(|pe| s.pe == pe));
        of_pe.map(|s| s.round).max().unwrap()
    };

    // The default bound is the model's epoch: a parallel run without one is
    // windowed, and Time Warp is the explicit unbounded opt-in.
    for kernel in ["sequential", "parallel", "windowed"] {
        let sink = std::sync::Arc::new(MemorySink::new(1 << 20));
        let res = match kernel {
            "sequential" => model.run(&engine(&sink)).sequential().go(),
            "parallel" => model.run(&engine(&sink).with_lookahead(u64::MAX)).go(),
            _ => model.run(&engine(&sink)).go(),
        }
        .unwrap();
        if kernel == "windowed" {
            assert_eq!(res.stats.total_rollbacks(), 0, "the leg ran windowed");
        }
        let hbs = sink.heartbeats();
        assert_eq!(hbs[0].phase, RunPhase::Run, "{kernel}");
        let last = hbs.last().unwrap();
        assert_eq!(last.phase, RunPhase::End, "{kernel}");
        assert!(last.round > 1, "{kernel}: fixture too short");
        assert_eq!(last.round, max_round(&sink, None), "{kernel}");
        assert_eq!(last.committed, res.stats.events_committed, "{kernel}");
    }

    // A parallel run killed mid-flight: `fail` carries PE 0's last round.
    let sink = std::sync::Arc::new(MemorySink::new(1 << 20));
    let plan = FaultPlan::new(1).with_kill(1, 900);
    let err = model
        .run(&engine(&sink).with_lookahead(u64::MAX).with_faults(plan))
        .go()
        .unwrap_err();
    assert!(matches!(err, RunError::PePanic { .. }), "got {err}");
    let hbs = sink.heartbeats();
    let last = hbs.last().unwrap();
    assert_eq!(last.phase, RunPhase::Fail);
    assert!(last.round > 0);
    assert_eq!(last.round, max_round(&sink, Some(0)));
}
