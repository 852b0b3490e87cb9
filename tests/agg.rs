//! Integration suite for the multi-run telemetry hub (`pdes::obs::agg`):
//! manifest registry round-trips, partial-line-tolerant stream tailing,
//! byte-deterministic fleet rollups, injected-fault health events, and the
//! end-to-end instrumented-run → ingest loop on the real hot-potato model.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::obs::json;
use pdes::{
    EngineConfig, FaultPlan, FleetMonitor, HealthDetector, HealthPolicy, MemorySink, ObsConfig,
    RoundSnapshot, RunError, RunIngest, RunManifest, RunPhase, RunState, StreamTail, VirtualTime,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdes-agg-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A synthetic run directory: kernel-authored manifest + supplied stream.
fn synth_run(dir: &Path, run_id: &str, lines: &str) -> PathBuf {
    let run = dir.join(run_id);
    std::fs::create_dir_all(&run).unwrap();
    let metrics = run.join("metrics.jsonl");
    let cfg = EngineConfig::new(VirtualTime::from_steps(4));
    RunManifest::for_run(&cfg, 16, "synthetic", &metrics)
        .write(&run)
        .unwrap();
    std::fs::write(&metrics, lines).unwrap();
    run
}

fn snap_line(round: u64, pe: usize, gvt: u64, lvt: u64) -> String {
    let mut s = json::snapshot_json(&RoundSnapshot {
        round,
        pe,
        gvt,
        lvt,
        events_processed: round * 100,
        events_committed: round * 90,
        queue_depth: 5,
        ..Default::default()
    });
    s.push('\n');
    s
}

// ---------------------------------------------------------------------------
// Stream tailing
// ---------------------------------------------------------------------------

#[test]
fn stream_tail_holds_torn_lines_until_complete() {
    let dir = scratch("torn");
    let path = dir.join("stream.jsonl");
    let mut tail = StreamTail::new(&path);
    // Missing file: empty, not an error (the run may not have started yet).
    assert_eq!(tail.poll().unwrap(), Vec::<String>::new());

    let mut f = File::create(&path).unwrap();
    f.write_all(b"{\"a\":1}\n{\"b\":").unwrap();
    f.flush().unwrap();
    let lines = tail.poll().unwrap();
    assert_eq!(lines, vec!["{\"a\":1}".to_string()]);
    // The torn half stays buffered; a poll with no new bytes returns nothing.
    assert_eq!(tail.poll().unwrap(), Vec::<String>::new());

    f.write_all(b"2}\n").unwrap();
    f.flush().unwrap();
    assert_eq!(tail.poll().unwrap(), vec!["{\"b\":2}".to_string()]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_tail_survives_appends_across_many_polls() {
    let dir = scratch("append");
    let path = dir.join("stream.jsonl");
    std::fs::write(&path, "").unwrap();
    let mut tail = StreamTail::new(&path);
    let mut collected = Vec::new();
    for i in 0..50 {
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        // Split every line into two appends to exercise the partial buffer.
        let line = format!("{{\"i\":{i}}}");
        let (head, rest) = line.split_at(line.len() / 2);
        f.write_all(head.as_bytes()).unwrap();
        f.flush().unwrap();
        collected.extend(tail.poll().unwrap());
        f.write_all(rest.as_bytes()).unwrap();
        f.write_all(b"\n").unwrap();
        f.flush().unwrap();
        collected.extend(tail.poll().unwrap());
    }
    assert_eq!(collected.len(), 50);
    assert_eq!(collected[49], "{\"i\":49}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[test]
fn manifest_version_mismatch_is_refused_by_the_monitor() {
    let dir = scratch("version");
    let run = synth_run(&dir, "old", "");
    // Rewrite the manifest claiming a future schema version.
    let text = std::fs::read_to_string(run.join("run-manifest.json")).unwrap();
    let bumped = text.replace("\"manifest_version\":1", "\"manifest_version\":999");
    assert_ne!(text, bumped, "fixture must actually bump the version");
    std::fs::write(run.join("run-manifest.json"), bumped).unwrap();

    let mut monitor = FleetMonitor::new(HealthPolicy::default());
    let err = monitor.add_run_dir(&run, 0).unwrap_err();
    assert!(
        err.to_string().contains("manifest_version 999"),
        "unexpected error: {err}"
    );
    // scan_farm refuses the whole farm rather than silently skipping the
    // incompatible run — a partial fleet view is worse than a loud error.
    assert!(monitor.scan_farm(&dir, 0).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_run_ids_are_refused() {
    let dir = scratch("dup");
    let a = synth_run(&dir, "twin", "");
    let b_parent = dir.join("other");
    std::fs::create_dir_all(&b_parent).unwrap();
    let b = b_parent.join("twin");
    std::fs::create_dir_all(&b).unwrap();
    std::fs::copy(a.join("run-manifest.json"), b.join("run-manifest.json")).unwrap();
    std::fs::write(b.join("metrics.jsonl"), "").unwrap();

    let mut monitor = FleetMonitor::new(HealthPolicy::default());
    monitor.add_run_dir(&a, 0).unwrap();
    let err = monitor.add_run_dir(&b, 0).unwrap_err();
    assert!(err.to_string().contains("duplicate run_id"), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Fold semantics
// ---------------------------------------------------------------------------

fn ingest_of(lines: &[String]) -> RunIngest {
    let cfg = EngineConfig::new(VirtualTime::from_steps(4));
    let manifest = RunManifest::for_run(&cfg, 16, "synthetic", Path::new("x/metrics.jsonl"));
    let mut ingest = RunIngest::new(manifest, PathBuf::from("x/metrics.jsonl"), 0);
    let policy = HealthPolicy::default();
    let mut events = Vec::new();
    for line in lines {
        ingest.absorb_line(line.trim_end(), &policy, 0, &mut events);
    }
    ingest
}

#[test]
fn out_of_order_rounds_are_counted_and_excluded() {
    let lines: Vec<String> = [
        snap_line(5, 0, 50, 60),
        snap_line(3, 0, 30, 40), // stale: older round for PE 0
        snap_line(6, 0, 60, 70),
    ]
    .into_iter()
    .collect();
    let ingest = ingest_of(&lines);
    assert_eq!(ingest.out_of_order(), 1);
    assert_eq!(ingest.malformed(), 0);
    // The stale round must not have regressed the fold.
    assert!(ingest.rollup_json().contains("\"gvt\":60"));
}

#[test]
fn rollup_bytes_are_identical_across_ingestion_chunkings() {
    // One fixed per-stream line sequence, absorbed three ways: line by
    // line, all at once, and with a malformed line injected mid-stream in
    // both (the malformed count is part of the rollup, so keep it equal).
    let mut lines: Vec<String> = Vec::new();
    for round in 1..=20 {
        lines.push(snap_line(round, 0, round * 10, round * 10 + 7));
        lines.push(snap_line(round, 1, round * 10, round * 10 + 3));
    }
    lines.insert(7, "{\"torn\":".to_string());
    let rollup_a = ingest_of(&lines).rollup_json();
    let rollup_b = ingest_of(&lines).rollup_json();
    assert_eq!(rollup_a, rollup_b);
    json::validate(&rollup_a).unwrap();
    assert!(rollup_a.contains("\"malformed\":1"));
}

#[test]
fn fleet_rollup_is_byte_deterministic_across_interleavings() {
    let dir_a = scratch("fleet-a");
    let dir_b = scratch("fleet-b");
    let mut streams: Vec<String> = Vec::new();
    for run in 0..3u64 {
        let mut s = String::new();
        for round in 1..=10 {
            s.push_str(&snap_line(round, 0, round * 10 + run, round * 12 + run));
        }
        streams.push(s);
    }
    // Farm A: streams complete before the monitor ever looks.
    for (i, s) in streams.iter().enumerate() {
        synth_run(&dir_a, &format!("run-{i}"), s);
    }
    let mut mon_a = FleetMonitor::new(HealthPolicy::default());
    mon_a.scan_farm(&dir_a, 0).unwrap();
    mon_a.poll(0).unwrap();

    // Farm B: the same bytes dribble in line by line, with the monitor
    // polling between every append and runs registered at different times.
    for (i, s) in streams.iter().enumerate() {
        synth_run(&dir_b, &format!("run-{i}"), if i == 0 { s } else { "" });
    }
    let mut mon_b = FleetMonitor::new(HealthPolicy::default());
    mon_b.scan_farm(&dir_b, 0).unwrap();
    for (i, s) in streams.iter().enumerate().skip(1) {
        for line in s.lines() {
            let path = dir_b.join(format!("run-{i}")).join("metrics.jsonl");
            let mut f = OpenOptions::new().append(true).open(path).unwrap();
            f.write_all(line.as_bytes()).unwrap();
            f.write_all(b"\n").unwrap();
            drop(f);
            mon_b.poll(0).unwrap();
        }
    }
    mon_b.poll(0).unwrap();

    assert_eq!(mon_a.rollup_json(), mon_b.rollup_json());
    json::validate(&mon_a.rollup_json()).unwrap();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

// ---------------------------------------------------------------------------
// Injected faults → health events
// ---------------------------------------------------------------------------

#[test]
fn injected_gvt_stall_fires_exactly_one_event() {
    let dir = scratch("stall");
    let policy = HealthPolicy::default();
    let mut s = String::new();
    for round in 1..=(policy.gvt_stall_rounds + 10) {
        s.push_str(&snap_line(round, 0, 7, 1_000));
    }
    synth_run(&dir, "stall", &s);
    let mut monitor = FleetMonitor::new(policy);
    monitor.scan_farm(&dir, 0).unwrap();
    monitor.poll(0).unwrap();
    let stalls: Vec<_> = monitor
        .events()
        .iter()
        .filter(|ev| ev.detector == HealthDetector::GvtStall)
        .collect();
    assert_eq!(stalls.len(), 1, "stall must latch after firing once");
    assert_eq!(stalls[0].run, "stall");
    assert_eq!(
        stalls[0].threshold,
        HealthPolicy::default().gvt_stall_rounds
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_silent_stream_fires_on_the_monitor_clock() {
    let dir = scratch("silent");
    let policy = HealthPolicy::default();
    synth_run(
        &dir,
        "quiet",
        "{\"hb\":1,\"pe\":0,\"wall_us\":0,\"round\":0,\"gvt\":0,\"committed\":0,\"state\":\"run\"}\n",
    );
    let mut monitor = FleetMonitor::new(policy);
    monitor.scan_farm(&dir, 0).unwrap();
    monitor.poll(0).unwrap();
    assert!(
        monitor.events().is_empty(),
        "no event while within the silent budget"
    );
    monitor.poll(policy.silent_ms - 1).unwrap();
    assert!(monitor.events().is_empty());
    monitor.poll(policy.silent_ms).unwrap();
    let evs = monitor.events();
    assert_eq!(evs.len(), 1);
    assert_eq!(evs[0].detector, HealthDetector::SilentStream);
    assert_eq!(evs[0].run, "quiet");
    // Terminal runs stop the clock: an ended run is quiet, not wedged.
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// End to end on the real model
// ---------------------------------------------------------------------------

#[test]
fn instrumented_run_registers_streams_and_rolls_up() {
    let dir = scratch("e2e");
    let run_dir = dir.join("run-00");
    let model = HotPotatoModel::torus(HotPotatoConfig::new(8, 32).with_injectors(0.4));
    let engine = EngineConfig::new(model.end_time())
        .with_seed(42)
        .with_pes(2)
        .with_kps(8)
        .with_obs(
            ObsConfig::default()
                .with_metrics_path(run_dir.join("metrics.jsonl"))
                .with_model_label("hotpotato-8x8"),
        );
    let par = model.run(&engine).go().unwrap();

    // Instrumentation must not perturb the committed history.
    let dark = EngineConfig::new(model.end_time())
        .with_seed(42)
        .with_pes(2)
        .with_kps(8);
    let oracle = model.run(&dark).sequential().go().unwrap();
    assert_eq!(par.output, oracle.output);

    // Registry entry: validates as JSON, parses back, digest matches a
    // recomputation from the same engine config.
    let manifest_text = std::fs::read_to_string(run_dir.join("run-manifest.json")).unwrap();
    json::validate(manifest_text.trim()).unwrap();
    let manifest = RunManifest::parse(&manifest_text).unwrap();
    assert_eq!(manifest.run_id, "run-00");
    assert_eq!(manifest.kernel, "parallel");
    assert_eq!(manifest.n_pes, 2);
    assert_eq!(manifest.model, "hotpotato-8x8");

    // Stream: every line parses; heartbeats open and close the run.
    let metrics = std::fs::read_to_string(run_dir.join("metrics.jsonl")).unwrap();
    json::validate_jsonl(&metrics).unwrap();
    assert!(metrics.lines().next().unwrap().contains("\"hb\":1"));
    assert!(metrics
        .lines()
        .last()
        .unwrap()
        .contains("\"state\":\"end\""));

    // Ingest loop: the rollup's committed total must equal the run's.
    let mut monitor = FleetMonitor::new(HealthPolicy::default());
    monitor.scan_farm(&dir, 0).unwrap();
    monitor.poll(0).unwrap();
    assert!(monitor.all_done());
    let (_, ingest) = monitor.runs().next().unwrap();
    assert_eq!(ingest.state(), RunState::Ended);
    assert_eq!(
        ingest.last_heartbeat().unwrap().committed,
        par.stats.events_committed
    );
    json::validate(&monitor.rollup_json()).unwrap();
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

    let manifest = RunManifest::load(&run_dir).unwrap();
    assert_eq!(manifest.kernel, "sequential");
    let metrics = std::fs::read_to_string(run_dir.join("metrics.jsonl")).unwrap();
    json::validate_jsonl(&metrics).unwrap();
    assert!(metrics
        .lines()
        .last()
        .unwrap()
        .contains("\"state\":\"end\""));

    let mut monitor = FleetMonitor::new(HealthPolicy::default());
    monitor.add_run_dir(&run_dir, 0).unwrap();
    monitor.poll(0).unwrap();
    let (_, ingest) = monitor.runs().next().unwrap();
    assert_eq!(ingest.state(), RunState::Ended);
    assert_eq!(
        ingest.last_heartbeat().unwrap().committed,
        res.stats.events_committed
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failing sequential run goes through the same teardown as a parallel
/// one: the stream closes with a flushed `fail` heartbeat, so the hub sees
/// the run as failed (at the round it died in), not as merely silent.
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

    let metrics = std::fs::read_to_string(run_dir.join("metrics.jsonl")).unwrap();
    json::validate_jsonl(&metrics).unwrap();
    assert!(metrics
        .lines()
        .last()
        .unwrap()
        .contains("\"state\":\"fail\""));

    let mut monitor = FleetMonitor::new(HealthPolicy::default());
    monitor.add_run_dir(&run_dir, 0).unwrap();
    monitor.poll(0).unwrap();
    let (_, ingest) = monitor.runs().next().unwrap();
    assert_eq!(ingest.state(), RunState::Failed);
    let last = ingest.last_heartbeat().unwrap();
    assert_eq!((last.round, last.committed), (1, 64));
    let failed: Vec<_> = monitor
        .events()
        .iter()
        .filter(|ev| ev.detector == HealthDetector::RunFailed)
        .collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(
        failed[0].value, 1,
        "the event reports the heartbeat's round"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The closing heartbeat reports the round the run actually reached — on
/// both kernels, for `end` and for `fail` — not a hard-coded 0.
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

    for kernel in ["sequential", "parallel"] {
        let sink = std::sync::Arc::new(MemorySink::new(1 << 20));
        match kernel {
            "sequential" => model.run(&engine(&sink)).sequential().go().map(drop),
            _ => model.run(&engine(&sink)).go().map(drop),
        }
        .unwrap();
        let hbs = sink.heartbeats();
        assert_eq!(hbs[0].phase, RunPhase::Run, "{kernel}");
        let last = hbs.last().unwrap();
        assert_eq!(last.phase, RunPhase::End, "{kernel}");
        assert!(last.round > 1, "{kernel}: fixture too short");
        assert_eq!(last.round, max_round(&sink, None), "{kernel}");
    }

    // A parallel run killed mid-flight: `fail` carries PE 0's last round.
    let sink = std::sync::Arc::new(MemorySink::new(1 << 20));
    let plan = FaultPlan::new(1).with_kill(1, 900);
    let err = model
        .run(&engine(&sink).with_faults(plan))
        .go()
        .unwrap_err();
    assert!(matches!(err, RunError::PePanic { .. }), "got {err}");
    let hbs = sink.heartbeats();
    let last = hbs.last().unwrap();
    assert_eq!(last.phase, RunPhase::Fail);
    assert!(last.round > 0);
    assert_eq!(last.round, max_round(&sink, Some(0)));
}
