//! Instrumented smoke run: execute a hot-potato torus under maximum
//! observability, render a per-PE health summary (Korniss virtual-time
//! roughness, rollbacks, comm pressure, pool hit rate, recorder occupancy),
//! and optionally export the run as a Chrome/Perfetto trace and a metrics
//! JSONL stream. Every file written is re-read and validated as JSON before
//! the binary exits 0, so CI can use it as an end-to-end check of the
//! export pipeline. Optimism is bounded to the model's one-step epoch, so
//! the run takes the rollback-free windowed arm and its rollback columns
//! read zero; `rollback_report` is the Time Warp counterpart.
//!
//! ```sh
//! cargo run --release -p bench --bin obs_report -- \
//!     --trace=artifacts/trace.json --metrics=artifacts/metrics.jsonl
//! ```
//!
//! Flags:
//! * `--n=<u32>` — torus side (default 16).
//! * `--steps=<u64>` — simulated steps (default 96).
//! * `--pes=<usize>` — worker threads (default 4).
//! * `--load=<f64>` — injector fraction (default 0.4).
//! * `--seed=<u64>` — engine seed (default 0xBE9C_0702).
//! * `--trace=<path>` — write a Chrome `trace_event` JSON here (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>).
//! * `--metrics=<path>` — stream every GVT-round snapshot here as JSONL
//!   (one JSON object per line, via [`JsonlSink`]).
//! * `--summary-json=<path>` — write a one-object machine-readable run
//!   summary (phase shares and quantiles, optimism efficiency, per-PE
//!   roughness, recorder totals) here, validated before exit.
//! * `--flows=<path>` — enable packet tracing and write the committed
//!   lineage as Chrome flow events on the virtual-time axis.
//! * `--lineage=<path>` — enable packet tracing and dump the committed
//!   lineage as JSONL (one hop per line).
//! * `--progress=<u64>` — print a stderr progress line every K rounds.

use std::sync::Arc;

use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::obs::{chrome, json};
use pdes::{
    EngineConfig, EngineStats, JsonlSink, ObsConfig, Phase, Telemetry, VirtualTime, TRACE_UNBOUNDED,
};

fn main() {
    let mut n: u32 = 16;
    let mut steps: u64 = 96;
    let mut pes: usize = 4;
    let mut load: f64 = 0.4;
    let mut seed: u64 = 0xBE9C_0702;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    let mut flows_path: Option<String> = None;
    let mut lineage_path: Option<String> = None;
    let mut progress: Option<u64> = None;
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--n=") {
            n = v.parse().expect("--n=<u32>");
        } else if let Some(v) = a.strip_prefix("--steps=") {
            steps = v.parse().expect("--steps=<u64>");
        } else if let Some(v) = a.strip_prefix("--pes=") {
            pes = v.parse().expect("--pes=<usize>");
        } else if let Some(v) = a.strip_prefix("--load=") {
            load = v.parse().expect("--load=<f64>");
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = v.parse().expect("--seed=<u64>");
        } else if let Some(v) = a.strip_prefix("--trace=") {
            trace_path = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--metrics=") {
            metrics_path = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--summary-json=") {
            summary_path = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--flows=") {
            flows_path = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--lineage=") {
            lineage_path = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--progress=") {
            progress = Some(v.parse().expect("--progress=<u64>"));
        } else {
            eprintln!(
                "flags: --n=<u32> --steps=<u64> --pes=<usize> --load=<f64> --seed=<u64> \
                 --trace=<path> --metrics=<path> --summary-json=<path> --flows=<path> \
                 --lineage=<path> --progress=<u64>"
            );
            std::process::exit(2);
        }
    }

    let model = HotPotatoModel::torus(HotPotatoConfig::new(n, steps).with_injectors(load));
    let mut obs = ObsConfig::verbose();
    if let Some(k) = progress {
        obs = obs.with_progress_every(k);
    }
    if let Some(path) = &metrics_path {
        let sink = JsonlSink::create(path).expect("create metrics JSONL file");
        obs = obs.with_sink(Arc::new(sink));
    }
    if flows_path.is_some() || lineage_path.is_some() {
        obs = obs.with_packet_trace(TRACE_UNBOUNDED);
    }
    let engine = EngineConfig::new(model.end_time())
        .with_seed(seed)
        .with_pes(pes)
        .with_kps(64)
        .with_lookahead(VirtualTime::STEP)
        .with_obs(obs);

    let run = model.run(&engine).go().expect("parallel run failed");
    print_summary(&run.telemetry, &run.stats.to_string());

    if let Some(path) = &trace_path {
        chrome::write_chrome_trace(&run.telemetry, path).expect("write Chrome trace");
        let text = std::fs::read_to_string(path).expect("re-read Chrome trace");
        json::validate(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
        println!("wrote {path} ({} bytes, valid JSON)", text.len());
    }
    if let Some(path) = &metrics_path {
        let text = std::fs::read_to_string(path).expect("re-read metrics JSONL");
        let lines = json::validate_jsonl(&text)
            .unwrap_or_else(|e| panic!("{path} is not valid JSONL: {e}"));
        println!("wrote {path} ({lines} snapshots, valid JSONL)");
    }
    if let Some(path) = &summary_path {
        let text = summary_json(&run.stats, &run.telemetry);
        json::validate(&text).unwrap_or_else(|e| panic!("summary is not valid JSON: {e}"));
        std::fs::write(path, &text).expect("write summary JSON");
        println!("wrote {path} ({} bytes, valid JSON)", text.len());
    }
    if let Some(path) = &flows_path {
        chrome::write_packet_flow(&run.telemetry.trace, path).expect("write packet flows");
        let text = std::fs::read_to_string(path).expect("re-read packet flows");
        json::validate(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
        println!(
            "wrote {path} ({} hops as flow events, valid JSON)",
            run.telemetry.trace.len()
        );
    }
    if let Some(path) = &lineage_path {
        run.telemetry
            .trace
            .write_jsonl(path)
            .expect("write lineage JSONL");
        let text = std::fs::read_to_string(path).expect("re-read lineage JSONL");
        let lines = json::validate_jsonl(&text)
            .unwrap_or_else(|e| panic!("{path} is not valid JSONL: {e}"));
        println!("wrote {path} ({lines} hops, valid JSONL)");
    }
}

/// One machine-readable JSON object summarizing the run: engine totals, the
/// phase-share table, per-PE roughness, and recorder totals. Built by hand
/// (integers and fixed-precision floats only) and validated by the caller.
fn summary_json(stats: &EngineStats, t: &Telemetry) -> String {
    let mut s = String::with_capacity(2048);
    s.push('{');
    s.push_str(&format!(
        "\"events_committed\":{},\"events_processed\":{},\"events_rolled_back\":{},\
         \"gvt_rounds\":{},\"wall_s\":{:.6},\"event_rate\":{:.1}",
        stats.events_committed,
        stats.events_processed,
        stats.events_rolled_back,
        stats.gvt_rounds,
        stats.wall_time.as_secs_f64(),
        stats.event_rate()
    ));
    s.push_str(&format!(
        ",\"profiler\":{{\"busy_ns\":{}",
        stats.prof.busy_ns()
    ));
    s.push_str(",\"phases\":{");
    for (i, ph) in Phase::ALL.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let p = stats.prof.phase(*ph);
        s.push_str(&format!(
            "\"{}\":{{\"count\":{},\"est_ns\":{},\"share\":{:.9},\"p50_ns\":{},\"p99_ns\":{}}}",
            ph.name(),
            p.count,
            p.est_total_ns(),
            stats.prof.share(*ph),
            p.hist.quantile(0.5),
            p.hist.quantile(0.99)
        ));
    }
    s.push('}');
    match stats.optimism_efficiency() {
        Some(e) => s.push_str(&format!(",\"optimism_efficiency\":{e:.6}}}")),
        None => s.push_str(",\"optimism_efficiency\":null}"),
    }
    s.push_str(",\"roughness\":[");
    for pe in 0..t.n_pes() {
        if pe > 0 {
            s.push(',');
        }
        let (mean, max) = t.roughness(pe).unwrap_or((0.0, 0));
        s.push_str(&format!("{{\"pe\":{pe},\"mean\":{mean:.3},\"max\":{max}}}"));
    }
    s.push(']');
    let (recorded, overwritten, kept) = t.recorders.iter().fold((0u64, 0u64, 0usize), |a, r| {
        (a.0 + r.recorded, a.1 + r.overwritten, a.2 + r.len)
    });
    s.push_str(&format!(
        ",\"recorders\":{{\"recorded\":{recorded},\"overwritten\":{overwritten},\"kept\":{kept}}}"
    ));
    s.push_str(&format!(
        ",\"packet_trace\":{{\"hops\":{},\"dropped\":{}}}",
        t.trace.len(),
        t.trace.dropped
    ));
    s.push('}');
    s
}

fn print_summary(t: &Telemetry, stats: &str) {
    println!("=== engine counters ===\n{stats}");
    println!(
        "=== per-PE telemetry ({} rounds retained, {} decimated) ===",
        t.rounds.len(),
        t.rounds_dropped
    );
    println!(
        "{:>3} {:>7} {:>14} {:>9} {:>10} {:>9} {:>10} {:>9}",
        "pe",
        "rounds",
        "roughness(avg)",
        "rough(max)",
        "committed",
        "rollbacks",
        "ring_stall",
        "pool_hit"
    );
    for pe in 0..t.n_pes() {
        let rounds = t.rounds_for(pe).count();
        let last = t.rounds_for(pe).last();
        let (mean, max) = t.roughness(pe).unwrap_or((0.0, 0));
        println!(
            "{:>3} {:>7} {:>14.1} {:>9} {:>10} {:>9} {:>10} {:>8.1}%",
            pe,
            rounds,
            mean,
            max,
            last.map_or(0, |s| s.events_committed),
            last.map_or(0, |s| s.rollbacks),
            last.map_or(0, |s| s.ring_full_stalls),
            last.map_or(0.0, |s| s.pool_hit_rate() * 100.0),
        );
    }
    if !t.recorders.is_empty() {
        println!("=== flight recorders ===");
        for r in &t.recorders {
            println!(
                "pe {:>2}: {} records kept of {} ({} overwritten, capacity {})",
                r.pe, r.len, r.recorded, r.overwritten, r.capacity
            );
        }
    }
}
