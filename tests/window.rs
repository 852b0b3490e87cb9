//! The self-narrowing optimism window steers speculation only: on the
//! mapping it exists for — a checkerboard, where every hop crosses the PE
//! boundary — with an 8-step ceiling and delay + reorder faults, the kernel
//! halves and regrows each PE's window from its own rollback ratio, and the
//! committed output must stay bit-identical to the sequential oracle, also
//! across a checkpoint taken mid-run.

use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::{
    list_snapshots, read_snapshot, EngineConfig, FaultPlan, KpId, LpId, Mapping, PeId, Run,
    VirtualTime,
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
const MAPPING: Checker = Checker { n: N, kps: 8 };

fn model(steps: u64) -> HotPotatoModel<topo::Torus> {
    HotPotatoModel::torus(HotPotatoConfig::new(N, steps))
}

/// 2 PEs, an 8-step ceiling, rounds every 64 events (hundreds of controller
/// decisions per run), every fourth remote message late and half the
/// batches shuffled.
fn adverse(m: &HotPotatoModel<topo::Torus>, seed: u64) -> EngineConfig {
    EngineConfig::new(m.end_time())
        .with_seed(seed)
        .with_pes(2)
        .with_kps(MAPPING.kps)
        .with_gvt_interval(64)
        .with_batch(4)
        .with_lookahead(8 * VirtualTime::STEP)
        .with_faults(FaultPlan::new(seed).with_delay(0.25).with_reorder(0.5))
}

#[test]
fn narrowing_window_commits_the_oracle_under_delay_and_reorder() {
    let m = model(60);
    for seed in [5u64, 6] {
        let oracle = m.run(&adverse(&m, seed)).sequential().go().unwrap();
        let par = Run::new(&m, &adverse(&m, seed))
            .mapping(&MAPPING)
            .go()
            .unwrap();
        assert_eq!(par.output, oracle.output, "seed={seed}");
        assert_eq!(
            par.stats.events_committed, oracle.stats.events_committed,
            "seed={seed}"
        );
        // The signal the controller narrows on was there to be read.
        assert!(
            par.stats.events_rolled_back > 0 && par.stats.gvt_rounds > 8,
            "seed={seed}: {:?}",
            par.stats
        );
    }
}

/// The window is deliberately not part of a snapshot: a run resumed from a
/// frame captured while the window was narrowed restarts at the ceiling and
/// must still commit the oracle's suffix. The window cannot be observed from
/// outside, but its arithmetic pins it: under an 8-step ceiling on this
/// mapping the first rounds roll back far more than the threshold, each
/// such round halves the window, and winning one step back takes 128 calm
/// rounds — so the snapshots at rounds 100 and 200 (of ~250 per PE) are
/// captured several steps below the ceiling.
#[test]
fn resume_from_a_snapshot_taken_under_a_narrowed_window_matches_the_oracle() {
    let m = model(40);
    let dir = std::env::temp_dir().join(format!("pdes-window-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = adverse(&m, 9)
        .with_checkpoint_every(100)
        .with_checkpoint_dir(&dir);
    let oracle = m
        .run(&cfg.clone().without_checkpoints())
        .sequential()
        .go()
        .unwrap();

    let full = Run::new(&m, &cfg).mapping(&MAPPING).go().unwrap();
    assert_eq!(full.output, oracle.output);
    assert!(full.stats.events_rolled_back > 0, "{:?}", full.stats);
    let snaps = list_snapshots(&dir);
    assert!(!snaps.is_empty(), "no snapshot written");

    for path in &snaps {
        let snap = read_snapshot(path).unwrap();
        let resumed = Run::new(&m, &cfg.clone().without_checkpoints())
            .mapping(&MAPPING)
            .resume(&snap)
            .go()
            .unwrap();
        assert_eq!(resumed.output, oracle.output, "resumed from {path:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
