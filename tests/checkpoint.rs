//! Checkpoint/restore and crash-recovery matrix: a run that is killed
//! mid-flight and resumed from its last intact snapshot must commit output
//! **bit-identical** to an uninterrupted run, under the default scheduler
//! and the heap reference at every PE count — and corrupted snapshots must
//! be detected and skipped, falling back to an older snapshot or a cold
//! restart.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use hotpotato::{HotPotatoConfig, HotPotatoModel, NetStats};
use pdes::{
    list_snapshots, read_snapshot, EngineConfig, FaultPlan, GvtMode, LinearMapping, RunResult,
    SchedulerKind, SupervisorPolicy,
};
use topo::Torus;

/// The default pending set and the binary heap it is checked against.
fn schedulers() -> [SchedulerKind; 2] {
    [SchedulerKind::default(), SchedulerKind::Heap]
}

fn model(n: u32, steps: u64) -> HotPotatoModel<Torus> {
    HotPotatoModel::torus(HotPotatoConfig::new(n, steps))
}

fn engine(seed: u64, dir: &std::path::Path) -> EngineConfig {
    // Horizon is overwritten by `HotPotatoModel::run` from the model.
    // Unbounded Time Warp, so snapshots capture real speculation.
    EngineConfig::new(pdes::VirtualTime::from_steps(1))
        .with_seed(seed)
        .with_gvt_interval(48)
        .with_batch(4)
        .with_lookahead(u64::MAX)
        .with_checkpoint_every(2)
        .with_checkpoint_dir(dir)
}

/// What the supervisor did to keep a run alive, read back from where it
/// records it: a crash is a retry, a rejected snapshot is a restore attempt
/// that did not succeed, and a cold restart is a retry that resumed from
/// nothing.
#[derive(Debug)]
struct Recovery {
    crashes: u64,
    snapshots_rejected: u64,
    cold_restarts: u64,
    resumed_rounds: Vec<u64>,
}

/// Run `m` under the default supervisor policy.
fn supervised(m: &HotPotatoModel<Torus>, cfg: &EngineConfig) -> (RunResult<NetStats>, Recovery) {
    let result = m
        .run(cfg)
        .supervised(SupervisorPolicy::default())
        .go()
        .unwrap();
    let s = &result.stats;
    let report = Recovery {
        crashes: s.recovery_retries,
        snapshots_rejected: s.restores_attempted - s.restores_succeeded,
        cold_restarts: s.recovery_retries - s.restores_succeeded,
        resumed_rounds: result.telemetry.resumed_rounds.clone(),
    };
    assert_eq!(s.restores_succeeded, report.resumed_rounds.len() as u64);
    (result, report)
}

/// Fresh private snapshot directory per test case (process-unique +
/// call-unique so parallel test threads never share state).
fn ckpt_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pdes-ckpt-test-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Clean resume: interrupt nothing, just re-load the newest snapshot and run
/// the tail — the stitched run must commit the oracle output on every
/// scheduler × PE combination.
#[test]
fn clean_resume_matches_oracle_across_matrix() {
    let m = model(8, 26);
    for sched in schedulers() {
        let dir = ckpt_dir("clean");
        let cfg = engine(7, &dir).with_scheduler(sched);
        let oracle = m.run(&cfg).sequential().go().unwrap();

        for pes in [1usize, 2, 4] {
            let dir = ckpt_dir("clean");
            let cfg = engine(7, &dir)
                .with_scheduler(sched)
                .with_pes(pes)
                .with_kps(16);
            let full = m.run(&cfg).go().unwrap();
            assert_eq!(full.output, oracle.output, "{sched:?} pes={pes} full run");
            assert!(
                full.stats.checkpoints_written > 0,
                "{sched:?} pes={pes}: no snapshots written"
            );

            let snaps = list_snapshots(&dir);
            assert!(!snaps.is_empty(), "{sched:?} pes={pes}: no snapshot files");
            let snap = read_snapshot(&snaps[0]).unwrap();
            let resumed = m.run(&cfg).resume(&snap).go().unwrap();
            assert_eq!(
                resumed.output, oracle.output,
                "{sched:?} pes={pes}: resumed tail diverged from oracle"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// State saving resumes too: every mid-run frame a state-saving run
/// captures boots a state-saving continuation that commits the oracle.
#[test]
fn state_saving_resume_matches_oracle() {
    let m = model(8, 26);
    let oracle = m
        .run(&engine(47, &ckpt_dir("ss-oracle")))
        .sequential()
        .go()
        .unwrap();
    let dir = ckpt_dir("state-saving");
    let cfg = engine(47, &dir).with_pes(2).with_kps(16);
    let full = m.run(&cfg).state_saving().go().unwrap();
    assert_eq!(full.output, oracle.output, "uninterrupted state-saving run");
    let snaps = list_snapshots(&dir);
    assert!(!snaps.is_empty(), "no snapshot written");
    // The continuations write no snapshots of their own: those would prune
    // the files still to be resumed from.
    let tail = cfg.without_checkpoints();
    for path in &snaps {
        let snap = read_snapshot(path).unwrap();
        assert!(snap.gvt() > 0 && snap.gvt() < m.end_time().0, "{path:?}");
        let resumed = m.run(&tail).state_saving().resume(&snap).go().unwrap();
        assert_eq!(resumed.output, oracle.output, "resumed from {path:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot taken by a *sequential* run resumes on the *parallel* kernel
/// (and vice versa): the snapshot format is kernel-portable.
#[test]
fn snapshots_are_kernel_portable() {
    let m = model(8, 24);
    let dir = ckpt_dir("portable");
    let cfg = engine(13, &dir);
    let oracle = m.run(&cfg).sequential().go().unwrap();
    assert!(oracle.stats.checkpoints_written > 0);

    let snap = read_snapshot(&list_snapshots(&dir)[0]).unwrap();
    let par_cfg = cfg.clone().with_pes(2).with_kps(16);
    let par = m.run(&par_cfg).resume(&snap).go().unwrap();
    assert_eq!(par.output, oracle.output, "seq snapshot → parallel resume");

    let seq = m.run(&cfg).sequential().resume(&snap).go().unwrap();
    assert_eq!(seq.output, oracle.output, "seq snapshot → seq resume");

    // Vice versa: a frame captured by a 2-PE parallel run resumes on the
    // sequential kernel.
    let par_dir = ckpt_dir("portable-par");
    let full = m
        .run(&engine(13, &par_dir).with_pes(2).with_kps(16))
        .go()
        .unwrap();
    assert!(full.stats.checkpoints_written > 0);
    let par_snap = read_snapshot(&list_snapshots(&par_dir)[0]).unwrap();
    let seq = m.run(&cfg).sequential().resume(&par_snap).go().unwrap();
    assert_eq!(seq.output, oracle.output, "parallel snapshot → seq resume");
    let _ = std::fs::remove_dir_all(&par_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mid-run PE kill: the supervisor restarts from the newest intact snapshot
/// and the recovered run is bit-identical to the uninterrupted oracle, on
/// every scheduler × PE-count combination of the matrix.
#[test]
fn killed_run_recovers_bit_identical() {
    let m = model(8, 26);
    for sched in schedulers() {
        let oracle = m
            .run(&engine(23, &ckpt_dir("oracle")))
            .sequential()
            .go()
            .unwrap();
        for pes in [1usize, 2, 4] {
            let dir = ckpt_dir("kill");
            let plan = FaultPlan::new(1).with_kill(pes as u32 - 1, 900);
            let cfg = engine(23, &dir)
                .with_scheduler(sched)
                .with_pes(pes)
                .with_kps(16)
                .with_faults(plan);
            let (result, report) = supervised(&m, &cfg);
            assert_eq!(
                result.output, oracle.output,
                "{sched:?} pes={pes}: recovered output diverged"
            );
            assert_eq!(report.crashes, 1, "{sched:?} pes={pes}: kill did not fire");
            assert_eq!(
                report.resumed_rounds.len() + report.cold_restarts as usize,
                1,
                "{sched:?} pes={pes}: exactly one recovery expected"
            );
            assert_eq!(result.stats.recovery_retries, 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Supervision keeps the run's mapping. At 8 KPs over 4 PEs the block
/// mapping deals each PE a quadrant of the grid where the linear default
/// deals it a band of rows. A killed block-mapped run restarts cold (no
/// snapshots) on the same mapping: it commits the oracle, and each PE's
/// committed count in the telemetry is the clean block-mapped run's, not
/// the linear run's.
#[test]
fn supervised_run_keeps_its_mapping() {
    let m = model(8, 26);
    let oracle = m
        .run(&engine(43, &ckpt_dir("moracle")))
        .sequential()
        .go()
        .unwrap();
    // Barrier GVT samples every PE after its final commit, so each PE's
    // last round in the telemetry carries its total.
    let mut cfg = engine(43, &ckpt_dir("mapped"))
        .with_pes(4)
        .with_kps(8)
        .with_gvt_mode(GvtMode::Barrier);
    cfg.checkpoint_every = None;
    let block = m.run(&cfg).go().unwrap();
    let linear = m
        .run(&cfg)
        .mapping(LinearMapping::new(64, 8, 4))
        .go()
        .unwrap();

    let (result, report) = supervised(&m, &cfg.with_faults(FaultPlan::new(1).with_kill(3, 300)));
    assert_eq!(result.output, oracle.output, "recovered output diverged");
    assert_eq!((report.crashes, report.cold_restarts), (1, 1), "{report:?}");
    let per_pe = |r: &RunResult<NetStats>| -> Vec<u64> {
        (0..4)
            .map(|pe| {
                r.telemetry
                    .rounds_for(pe)
                    .map(|s| s.events_committed)
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    };
    assert_eq!(
        per_pe(&result).iter().sum::<u64>(),
        result.stats.events_committed
    );
    assert_eq!(per_pe(&result), per_pe(&block), "not the block mapping");
    assert_ne!(
        per_pe(&block),
        per_pe(&linear),
        "mappings indistinguishable"
    );
}

/// Poisoned snapshot: the newest file on disk is torn mid-write, so recovery
/// must reject it (checksum) and fall back to the older intact snapshot.
/// The snapshot set is staged by a clean run (checkpointing is off during
/// the crashing run) so the scan outcome is fully deterministic.
#[test]
fn poisoned_snapshot_falls_back_to_older() {
    let m = model(8, 26);
    let dir = ckpt_dir("poison");
    let oracle = m
        .run(&engine(31, &ckpt_dir("poracle")))
        .sequential()
        .go()
        .unwrap();

    // Stage: a clean run leaves its two newest snapshots behind; tear the
    // newest one mid-file.
    m.run(&engine(31, &dir).with_pes(2).with_kps(16))
        .go()
        .unwrap();
    let snaps = list_snapshots(&dir);
    assert!(snaps.len() >= 2, "need two snapshots to prove fallback");
    pdes::ckpt::poison_file(&snaps[0]).unwrap();
    let older_round = read_snapshot(&snaps[1]).unwrap().round();

    // Crash run: same seed, checkpointing off so the staged files survive.
    let mut cfg = engine(31, &dir).with_pes(2).with_kps(16);
    cfg.checkpoint_every = None;
    cfg.fault_plan = Some(FaultPlan::new(1).with_kill(1, 50));
    let (result, report) = supervised(&m, &cfg);
    assert_eq!(result.output, oracle.output, "fallback resume diverged");
    assert_eq!(report.crashes, 1);
    assert_eq!(
        report.snapshots_rejected, 1,
        "poisoned snapshot was not rejected: {report:?}"
    );
    assert_eq!(
        report.resumed_rounds,
        vec![older_round],
        "expected fallback resume from the older snapshot: {report:?}"
    );
    assert_eq!(report.cold_restarts, 0, "{report:?}");
    assert_eq!(result.stats.restores_attempted, 2);
    assert_eq!(result.stats.restores_succeeded, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every snapshot corrupt (first write poisoned, then the PE killed before a
/// second write): the supervisor detects it and cold-restarts, still
/// converging to the oracle output.
#[test]
fn all_snapshots_corrupt_forces_cold_restart() {
    let m = model(6, 20);
    let dir = ckpt_dir("cold");
    // Poison the very first snapshot and kill shortly after it lands, so
    // (usually) no intact snapshot exists when the supervisor scans.
    let plan = FaultPlan::new(1).with_kill(0, 120).with_poison_ckpt(0);
    let cfg = engine(37, &dir).with_pes(2).with_kps(12).with_faults(plan);
    let oracle = m
        .run(&engine(37, &ckpt_dir("coracle")))
        .sequential()
        .go()
        .unwrap();

    let (result, report) = supervised(&m, &cfg);
    assert_eq!(result.output, oracle.output, "cold restart diverged");
    assert_eq!(report.crashes, 1);
    if report.cold_restarts == 1 {
        assert!(report.snapshots_rejected >= 1, "{report:?}");
        assert!(report.resumed_rounds.is_empty(), "{report:?}");
    } else {
        // Timing let a second (intact) snapshot land before the kill — the
        // fallback path is then equivalent to `poisoned_snapshot_falls_back`.
        assert_eq!(report.resumed_rounds.len(), 1, "{report:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The poison fault fires on the sequential kernel too (same shared write
/// step as PE 0): the run itself is unharmed, and the one snapshot it leaves
/// behind is torn, so `read_snapshot` must reject it by checksum.
#[test]
fn sequential_poisoned_snapshot_is_rejected_by_checksum() {
    let m = model(6, 20);
    let dir = ckpt_dir("seq-poison");
    let mut clean_cfg = engine(61, &dir);
    clean_cfg.checkpoint_every = None;
    let clean = m.run(&clean_cfg).sequential().go().unwrap();

    // One interval boundary in the whole run => exactly one snapshot (so the
    // poisoned first write is not pruned by a later one).
    let cfg = engine(61, &dir)
        .with_gvt_interval(clean.stats.events_committed / 2 + 1)
        .with_checkpoint_every(1)
        .with_faults(FaultPlan::new(1).with_poison_ckpt(0));
    let run = m.run(&cfg).sequential().go().unwrap();
    assert_eq!(
        run.output, clean.output,
        "poisoning a file perturbed the run"
    );
    assert_eq!(run.stats.checkpoints_written, 1);

    let snaps = list_snapshots(&dir);
    assert_eq!(snaps.len(), 1);
    let err = read_snapshot(&snaps[0]).unwrap_err();
    assert!(
        err.to_string().contains("checksum mismatch"),
        "torn snapshot not rejected by checksum: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot self-description is validated on restore: resuming under a
/// different seed or a different model size is refused loudly instead of
/// silently producing garbage.
#[test]
fn mismatched_resume_is_refused() {
    let m = model(6, 20);
    let dir = ckpt_dir("mismatch");
    let cfg = engine(41, &dir).with_pes(2).with_kps(12);
    m.run(&cfg).go().unwrap();
    let snap = read_snapshot(&list_snapshots(&dir)[0]).unwrap();

    let wrong_seed = engine(42, &dir).with_pes(2).with_kps(12);
    assert!(
        m.run(&wrong_seed).resume(&snap).go().is_err(),
        "seed mismatch accepted"
    );
    let bigger = model(8, 20);
    let wrong_cfg = engine(41, &dir).with_pes(2).with_kps(16);
    assert!(
        bigger.run(&wrong_cfg).resume(&snap).go().is_err(),
        "LP-count mismatch accepted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpointing itself must not perturb the committed result: with
/// snapshots on, the run (parallel, 4 PEs) still matches the oracle and the
/// telemetry counters account for the bytes written.
#[test]
fn checkpointing_does_not_perturb_results() {
    let m = model(8, 26);
    let dir = ckpt_dir("inert");
    let base = engine(53, &ckpt_dir("inert-off"));
    let mut off = base.clone();
    off.checkpoint_every = None;
    let without = m.run(&off.clone().with_pes(4).with_kps(16)).go().unwrap();
    let with = m
        .run(&engine(53, &dir).with_pes(4).with_kps(16))
        .go()
        .unwrap();
    assert_eq!(with.output, without.output, "snapshots perturbed the run");
    assert!(with.stats.checkpoints_written > 0);
    assert!(with.stats.checkpoint_bytes > 0);
    assert_eq!(without.stats.checkpoints_written, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
