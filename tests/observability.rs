//! The observability layer's own guarantees: recording is *bounded* (a
//! flight recorder never outgrows its ring, a round series never outgrows
//! its capacity, a memory sink never outgrows its cap — no matter how long
//! or hostile the run) and *passive* (a fully instrumented chaos run still
//! commits the sequential oracle's output bit-for-bit). The exporters are
//! exercised end-to-end on real telemetry and their files re-validated as
//! JSON.

use std::sync::Arc;

use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::obs::{chrome, json};
use pdes::{EngineConfig, FaultPlan, MemorySink, ObsCategory, ObsConfig, RoundSnapshot, Telemetry};

fn model(n: u32, steps: u64) -> HotPotatoModel<topo::Torus> {
    HotPotatoModel::torus(HotPotatoConfig::new(n, steps))
}

/// Small GVT interval so even a short run crosses many sampling rounds.
fn engine(m: &HotPotatoModel<topo::Torus>, seed: u64) -> EngineConfig {
    EngineConfig::new(m.end_time())
        .with_seed(seed)
        .with_gvt_interval(32)
        .with_batch(4)
}

/// A chaos storm under a deliberately tiny recorder (256 records) and
/// series (16 snapshots): memory stays bounded, overflow is accounted for
/// rather than hidden, and the committed output is untouched.
#[test]
fn chaos_storm_with_tiny_recorder_stays_bounded_and_deterministic() {
    const RECORDER_CAP: usize = 256;
    const SERIES_CAP: usize = 16;

    let m = model(6, 60);
    let seq = m.run(&engine(&m, 0x0B5)).sequential().go().unwrap();

    let sink = Arc::new(MemorySink::new(8));
    let plan = FaultPlan::new(0xF00D)
        .with_delay(0.3)
        .with_duplicate(0.2)
        .with_reorder(0.5);
    let obs = ObsConfig::verbose()
        .with_recorder_capacity(RECORDER_CAP)
        .with_series_capacity(SERIES_CAP)
        .with_sink(sink.clone());
    let par = m
        .run(
            &engine(&m, 0x0B5)
                .with_pes(4)
                .with_kps(12)
                .with_faults(plan)
                .with_obs(obs),
        )
        .go()
        .unwrap();

    // Passive: observation changed nothing the model committed.
    assert_eq!(
        par.output, seq.output,
        "instrumented chaos run diverged from oracle"
    );
    assert_eq!(par.stats.events_committed, seq.stats.events_committed);

    let t = &par.telemetry;
    assert_eq!(t.recorders.len(), 4, "one recorder summary per PE");
    for r in &t.recorders {
        // Bounded: the ring never holds more than its capacity, and a busy
        // chaos run must have wrapped it — with the books balancing.
        assert_eq!(r.capacity, RECORDER_CAP);
        assert!(r.len <= RECORDER_CAP, "pe {}: {} records kept", r.pe, r.len);
        assert!(
            r.recorded > RECORDER_CAP as u64,
            "pe {}: only {} records — the run never wrapped the ring",
            r.pe,
            r.recorded
        );
        assert_eq!(r.overwritten, r.recorded - r.len as u64);
    }
    for pe in 0..4 {
        let kept = t.rounds_for(pe).count();
        assert!(
            kept <= SERIES_CAP,
            "pe {pe}: {kept} snapshots exceed capacity {SERIES_CAP}"
        );
        assert!(kept > 0, "pe {pe}: series empty despite many GVT rounds");
    }
    assert!(
        t.rounds_dropped > 0,
        "expected stride decimation on a {SERIES_CAP}-snapshot series"
    );
    // The sink saw every offered snapshot but kept only its cap.
    assert!(sink.total_seen() > sink.snapshots().len() as u64);
    assert!(sink.snapshots().len() <= 8);
}

/// Per-PE snapshot streams are internally consistent: cumulative counters
/// never decrease, GVT never regresses, and the sampled GVT round index
/// strictly increases.
#[test]
fn round_snapshots_are_monotonic_per_pe() {
    let m = model(6, 50);
    let par = m
        .run(
            &engine(&m, 0xA11)
                .with_pes(2)
                .with_kps(8)
                .with_obs(ObsConfig::verbose()),
        )
        .go()
        .unwrap();
    let t = &par.telemetry;
    assert!(t.n_pes() == 2 && !t.rounds.is_empty());
    for pe in 0..2 {
        let snaps: Vec<&RoundSnapshot> = t.rounds_for(pe).collect();
        for w in snaps.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert!(b.round > a.round, "pe {pe}: round regressed");
            assert!(b.gvt >= a.gvt, "pe {pe}: GVT regressed");
            assert!(b.wall_us >= a.wall_us, "pe {pe}: wall clock regressed");
            assert!(b.events_committed >= a.events_committed, "pe {pe}");
            assert!(b.events_processed >= a.events_processed, "pe {pe}");
            assert!(b.events_rolled_back >= a.events_rolled_back, "pe {pe}");
            assert!(b.rollbacks >= a.rollbacks, "pe {pe}");
        }
        // Final snapshot is cumulative, so processed ≥ committed share.
        let last = snaps.last().unwrap();
        assert!(last.events_processed >= last.events_committed / 2);
    }
}

/// The sequential kernel fills the same telemetry surface: snapshots with
/// gvt == lvt (everything commits immediately) and a PE-0 recorder summary.
#[test]
fn sequential_kernel_produces_telemetry() {
    let m = model(6, 50);
    let cfg = engine(&m, 0x5E9).with_obs(ObsConfig::verbose());
    let seq = m.run(&cfg).sequential().go().unwrap();
    let t = &seq.telemetry;
    assert_eq!(t.n_pes(), 1);
    assert!(!t.rounds.is_empty(), "sequential run produced no snapshots");
    for s in &t.rounds {
        assert_eq!(s.pe, 0);
        assert_eq!(s.gvt, s.lvt, "sequential kernel commits immediately");
        assert_eq!(s.events_rolled_back, 0);
    }
    assert_eq!(t.recorders.len(), 1);
    assert!(t.recorders[0].recorded > 0, "verbose recorder saw nothing");
}

/// Category filtering reaches the kernel: a Model-only mask records the
/// hot-potato model's notes and nothing else.
#[test]
fn category_mask_filters_kernel_records() {
    let m = model(6, 30);
    let obs =
        ObsConfig::verbose().with_categories(pdes::CategoryMask::NONE.with(ObsCategory::Model));
    let par = m
        .run(&engine(&m, 0xCA7).with_pes(2).with_kps(8).with_obs(obs))
        .go()
        .unwrap();
    for r in &par.telemetry.recorders {
        assert!(
            r.recorded > 0,
            "pe {}: hot-potato model notes never reached the recorder",
            r.pe
        );
    }

    // The same run with the Model category excluded records kernel events
    // but no notes — so strictly more with everything enabled.
    let all = m
        .run(
            &engine(&m, 0xCA7)
                .with_pes(2)
                .with_kps(8)
                .with_obs(ObsConfig::verbose()),
        )
        .go()
        .unwrap();
    let notes_only: u64 = par.telemetry.recorders.iter().map(|r| r.recorded).sum();
    let everything: u64 = all.telemetry.recorders.iter().map(|r| r.recorded).sum();
    assert!(
        everything > notes_only,
        "full mask should outrecord Model-only mask"
    );
}

/// Exporters round-trip real telemetry through disk and survive the
/// repo's own JSON validator.
#[test]
fn exporters_write_valid_files_from_real_run() {
    let m = model(6, 40);
    let par = m
        .run(
            &engine(&m, 0xE4)
                .with_pes(2)
                .with_kps(8)
                .with_obs(ObsConfig::verbose()),
        )
        .go()
        .unwrap();
    let t: &Telemetry = &par.telemetry;

    let dir = std::env::temp_dir();
    let trace = dir.join("pdes_obs_test_trace.json");
    let metrics = dir.join("pdes_obs_test_metrics.jsonl");
    chrome::write_chrome_trace(t, &trace).unwrap();
    json::write_metrics_jsonl(t, &metrics).unwrap();

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    json::validate(&trace_text).expect("Chrome trace must be valid JSON");
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    let lines = json::validate_jsonl(&metrics_text).expect("metrics must be valid JSONL");
    assert_eq!(
        lines,
        t.rounds.len(),
        "one JSONL line per retained snapshot"
    );

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}
