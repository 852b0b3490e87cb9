//! The windowed conservative arm: a hot-potato run whose optimism bound is
//! the model's one-step epoch executes one step-wide window at a time and
//! never rolls back. Every run here must commit the sequential oracle's
//! output exactly — across PE counts and mappings, under message chaos,
//! with the auditor on, in its packet lineage, through a supervised crash,
//! and when resumed from a Time Warp snapshot taken in the middle of a step
//! — while processing each event exactly once.

use hotpotato::{HotPotatoConfig, HotPotatoModel, NetStats};
use pdes::{
    list_snapshots, read_snapshot, EngineConfig, FaultPlan, KpId, LpId, Mapping, ObsConfig, PeId,
    Run, RunResult, SupervisorPolicy, VirtualTime, TRACE_UNBOUNDED,
};

/// `(row + col) mod 2` picks the PE of an `n × n` grid (`n` even), so every
/// torus link is remote; each PE's routers are dealt over `kps / 2` KPs.
struct Checker {
    n: u32,
    kps: u32,
}

impl Mapping for Checker {
    fn n_lps(&self) -> u32 {
        self.n * self.n
    }
    fn n_kps(&self) -> u32 {
        self.kps
    }
    fn n_pes(&self) -> usize {
        2
    }
    fn kp_of(&self, lp: LpId) -> KpId {
        let (row, col) = (lp / self.n, lp % self.n);
        2 * (row % (self.kps / 2)) + (row + col) % 2
    }
    fn pe_of(&self, kp: KpId) -> PeId {
        (kp % 2) as PeId
    }
}

const N: u32 = 8;
const CHECKER: Checker = Checker { n: N, kps: 8 };

fn model(steps: u64) -> HotPotatoModel<topo::Torus> {
    HotPotatoModel::torus(HotPotatoConfig::new(N, steps).with_injectors(0.5))
}

/// One step of optimism: the model's epoch, so parallel runs are windowed.
fn windowed(m: &HotPotatoModel<topo::Torus>, seed: u64) -> EngineConfig {
    EngineConfig::new(m.end_time())
        .with_seed(seed)
        .with_kps(8)
        .with_gvt_interval(64)
        .with_lookahead(VirtualTime::STEP)
}

/// The run committed the oracle, and did so without speculating: no
/// rollback, every processed event committed, nothing fossil-collected
/// (the windowed arm commits on the spot; Time Warp commits by fossil
/// collection).
fn assert_windowed(run: &RunResult<NetStats>, oracle: &RunResult<NetStats>, what: &str) {
    assert_eq!(run.output, oracle.output, "{what}");
    assert_eq!(
        run.stats.events_committed, oracle.stats.events_committed,
        "{what}"
    );
    assert_eq!(run.stats.primary_rollbacks, 0, "{what}");
    assert_eq!(run.stats.fossils_collected, 0, "{what}");
    assert_eq!(
        run.stats.events_processed, run.stats.events_committed,
        "{what}: {:?}",
        run.stats
    );
}

#[test]
fn block_and_checkerboard_mappings_commit_the_oracle() {
    let m = model(50);
    for seed in [3u64, 4] {
        let cfg = windowed(&m, seed);
        let oracle = m.run(&cfg).sequential().go().unwrap();
        for pes in [1usize, 2, 4] {
            let run = m.run(&cfg.clone().with_pes(pes)).go().unwrap();
            assert_windowed(&run, &oracle, &format!("seed {seed}, block, {pes} PEs"));
            // One agreement per step, and the run's telemetry was sampled.
            assert!(run.stats.gvt_rounds >= 50, "{:?}", run.stats);
            assert!(!run.telemetry.rounds.is_empty());
        }
        let run = Run::new(&m, &cfg.clone().with_pes(2))
            .mapping(&CHECKER)
            .go()
            .unwrap();
        assert_windowed(&run, &oracle, &format!("seed {seed}, checkerboard"));
        assert!(run.stats.remote_events > 0);
    }
}

/// Delayed, duplicated and reordered messages are waited out at the window
/// boundary instead of rolled back; the duplicate filter forgets each
/// window's ids once the boundary has delivered every copy.
#[test]
fn message_chaos_is_waited_out_not_rolled_back() {
    let m = model(50);
    let plan = FaultPlan::new(0xC4A0)
        .with_delay(0.3)
        .with_duplicate(0.2)
        .with_reorder(0.5);
    for seed in [5u64, 6] {
        let cfg = windowed(&m, seed).with_pes(2).with_faults(plan);
        let oracle = m.run(&cfg).sequential().go().unwrap();
        let run = Run::new(&m, &cfg).mapping(&CHECKER).go().unwrap();
        assert_windowed(&run, &oracle, &format!("seed {seed}, chaos"));
        let s = &run.stats;
        assert!(
            s.injected_delays > 0 && s.injected_duplicates > 0 && s.injected_reorders > 0,
            "{s:?}"
        );
        assert_eq!(s.duplicates_dropped, s.injected_duplicates, "{s:?}");
    }
}

/// The auditor runs as it does on the sequential kernel: the reverse-replay
/// probe before every event (full tier only) and the scheduler mirror.
#[test]
fn both_audit_tiers_observe_without_perturbing() {
    let m = model(40);
    for probe in [true, false] {
        let cfg = windowed(&m, 7)
            .with_pes(2)
            .with_audit(true)
            .with_audit_probe(probe);
        let oracle = m.run(&cfg).sequential().go().unwrap();
        let run = Run::new(&m, &cfg).mapping(&CHECKER).go().unwrap();
        assert_windowed(&run, &oracle, &format!("audit probe {probe}"));
    }
}

#[test]
fn committed_packet_lineage_matches_the_oracle() {
    let m = model(50);
    let cfg = windowed(&m, 8).with_obs(ObsConfig::default().with_packet_trace(TRACE_UNBOUNDED));
    let oracle = m.run(&cfg).sequential().go().unwrap();
    assert!(oracle.telemetry.trace.len() > 100);
    for pes in [2usize, 4] {
        let run = m.run(&cfg.clone().with_pes(pes)).go().unwrap();
        assert_windowed(&run, &oracle, &format!("traced, {pes} PEs"));
        assert_eq!(run.telemetry.trace.dropped, 0);
        assert_eq!(
            run.telemetry.trace.to_jsonl(),
            oracle.telemetry.trace.to_jsonl(),
            "{pes} PEs: committed lineage diverged"
        );
    }
}

#[test]
fn a_supervised_crash_recovers_bit_identically() {
    let m = model(50);
    let cfg = windowed(&m, 9).with_pes(2);
    let oracle = m.run(&cfg).sequential().go().unwrap();
    let run = m
        .run(&cfg.clone().with_faults(FaultPlan::new(1).with_kill(1, 500)))
        .supervised(SupervisorPolicy::default())
        .go()
        .unwrap();
    assert_eq!(run.stats.recovery_retries, 1);
    assert_windowed(&run, &oracle, "supervised");
}

/// A Time Warp snapshot's GVT is the frontier's head, almost always inside
/// a step; the windowed run that resumes it first finishes that step's
/// remainder as a partial window.
#[test]
fn resuming_a_time_warp_snapshot_taken_mid_step_commits_the_oracle() {
    let m = model(40);
    let dir = std::env::temp_dir().join(format!("pdes-conservative-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = windowed(&m, 10).with_pes(2);
    let oracle = m.run(&cfg).sequential().go().unwrap();
    // Checkpointing runs take barriered Time Warp.
    let tw = cfg
        .clone()
        .with_checkpoint_every(8)
        .with_checkpoint_dir(&dir);
    let full = m.run(&tw).go().unwrap();
    assert_eq!(full.output, oracle.output);
    let mut mid_step = 0;
    for path in list_snapshots(&dir) {
        let snap = read_snapshot(&path).unwrap();
        if snap.gvt().is_multiple_of(VirtualTime::STEP) {
            continue;
        }
        mid_step += 1;
        let run = m.run(&cfg).resume(&snap).go().unwrap();
        // A resumed run's counters start from the snapshot's Time Warp
        // history; the sequential kernel resumed from the same frame adds
        // exactly one processed, committed event per event and no rollback.
        let seq = m.run(&cfg).sequential().resume(&snap).go().unwrap();
        assert_eq!(run.output, oracle.output, "resumed from {path:?}");
        assert_eq!(seq.output, oracle.output, "resumed from {path:?}");
        let (r, q) = (&run.stats, &seq.stats);
        assert_eq!(
            (r.events_committed, r.events_processed, r.primary_rollbacks),
            (q.events_committed, q.events_processed, q.primary_rollbacks),
            "resumed from {path:?}"
        );
        assert_eq!(
            r.fossils_collected, q.fossils_collected,
            "resumed from {path:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(mid_step > 0, "no snapshot was captured mid-step");
}
