//! Allocation smoke test: the arena/zero-copy hot path must not allocate
//! per committed event. A counting `#[global_allocator]` wraps the system
//! allocator; after a warm-up run, a measured run's *total* allocation count
//! — including all per-run setup (threads, arenas, rings, queue growth) —
//! is divided by committed events. The run keeps the default optimism
//! bound, the model's one-step epoch, so it takes the rollback-free
//! windowed arm.
//! Setup is most of the ~0.008 allocs/event this run makes; the
//! steady-state event loop itself contributes ~0: payloads live in the
//! preallocated arena, schedulers order `Copy` handles in recycled bucket
//! vectors, and remote sends recycle pooled buffers. The 0.02 budget is tight
//! on purpose: a leak of one small allocation per event (~171k/run on this
//! workload) blows it 50×, and one per scheduler bucket (~23k/run) 7×.
//!
//! ```sh
//! cargo run --release -p bench --bin alloc_smoke
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hotpotato::{HotPotatoConfig, HotPotatoModel};
use pdes::{EngineConfig, ObsConfig};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator with a relaxed allocation counter. `realloc` counts as
/// one allocation (it may move), `dealloc` is free.
struct CountingAlloc;

// SAFETY: defers every operation to `System`, which upholds the contract;
// the counter has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds the layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const MAX_ALLOCS_PER_EVENT: f64 = 0.02;

fn main() {
    let model = HotPotatoModel::torus(HotPotatoConfig::new(16, 96).with_injectors(0.4));
    let cfg = EngineConfig::new(model.end_time())
        .with_seed(0xBE9C_0702)
        .with_pes(4)
        .with_kps(64)
        .with_obs(ObsConfig::disabled())
        .with_audit(false);

    // Warm-up: faults the binary's lazy init (thread stacks, allocator
    // arenas) so the measured run sees only the engine's own behavior.
    let warm = model.run(&cfg).go().expect("warm-up run failed");
    std::hint::black_box(&warm.output);

    let before = ALLOCS.load(Ordering::Relaxed);
    let run = model.run(&cfg).go().expect("measured run failed");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    println!(
        "stats: processed={} committed={} rolled_back={} remote={} pool_hits={} pool_misses={} batches={} arena_peak={}",
        run.stats.events_processed,
        run.stats.events_committed,
        run.stats.events_rolled_back,
        run.stats.remote_events,
        run.stats.pool_hits,
        run.stats.pool_misses,
        run.stats.batches_flushed,
        run.stats.arena_peak_slots,
    );
    let committed = run.stats.events_committed;
    let per_event = allocs as f64 / committed as f64;
    println!(
        "alloc_smoke: {allocs} allocations / {committed} committed events = {per_event:.4} per event \
         (budget {MAX_ALLOCS_PER_EVENT})"
    );

    if per_event > MAX_ALLOCS_PER_EVENT {
        eprintln!(
            "allocation hot path regressed: {per_event:.4} allocs per committed event \
             exceeds the {MAX_ALLOCS_PER_EVENT} budget"
        );
        std::process::exit(1);
    }
}
