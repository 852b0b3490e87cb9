#!/usr/bin/env bash
# Local CI gate: release build, full test suite, clippy with warnings denied.
# Mirrors what reviewers run before merging; keep it green.
set -euo pipefail
cd "$(dirname "$0")/.."

# Stage bookkeeping for the closing summary line.
stages=0
stage() { stages=$((stages + 1)); echo "== $* =="; }

stage "cargo fmt --check"
cargo fmt --check

stage "cargo build --release"
cargo build --release

stage "cargo test -q"
cargo test -q

stage "examples: the public run API end to end (release)"
# The four examples are the surface a user copies from, and each starts its
# runs through `pdes::Run` / `HotPotatoModel::run`. quickstart and
# custom_model assert that the sequential and parallel outputs are equal and
# exit non-zero otherwise.
for example in quickstart custom_model optical_switch static_routing; do
    cargo run --release -q --example "$example" >/dev/null
done
# The environment layer end to end, which no test can reach (EngineConfig::new
# reads the environment once per process): the three variables it reads
# register, trace and audit a stock binary without a warning, and a variable
# it no longer reads warns exactly once, by name.
env_dir="$(mktemp -d "${TMPDIR:-/tmp}/pdes-ci-env.XXXXXX")"
trap 'rm -rf "$env_dir"' EXIT
PDES_OBS_METRICS="$env_dir/run/metrics.jsonl" PDES_TRACE=1 PDES_AUDIT=fast \
    ./target/release/examples/quickstart >/dev/null 2>"$env_dir/stderr"
test -f "$env_dir/run/run-manifest.json"
tail -n 1 "$env_dir/run/metrics.jsonl" | grep -q '"state":"end"'
if command -v python3 >/dev/null 2>&1; then
    python3 - "$env_dir/run/run-manifest.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
assert m["manifest_version"] == 1 and m["metrics"] == "metrics.jsonl", m
EOF
fi
if grep 'pdes: warning' "$env_dir/stderr"; then
    echo "the three PDES_* variables the engine reads must not warn" >&2
    exit 1
fi
PDES_GVT=barrier ./target/release/examples/quickstart >/dev/null 2>"$env_dir/stderr"
if [ "$(grep -c 'pdes: warning.*PDES_GVT' "$env_dir/stderr")" != 1 ] ||
    [ "$(grep -c 'pdes: warning' "$env_dir/stderr")" != 1 ]; then
    cat "$env_dir/stderr" >&2
    echo "PDES_GVT must warn exactly once" >&2
    exit 1
fi
echo "environment layer: 3 variables read silently, PDES_GVT warned once"
rm -rf "$env_dir"
trap - EXIT

stage "cargo test -q -p bench (shared statistics; outside default-members)"
cargo test -q -p bench

stage "cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

stage "lint_reversible: self-test + model-tree scan"
# Static reversibility lint (crates/bench/src/bin/lint_reversible.rs):
# proves its four rules fire on the in-tree fixtures, then requires the
# model crates to scan clean (allowlist: scripts/lint_reversible.allow).
cargo build --release -p bench --bin lint_reversible
./target/release/lint_reversible --self-test
./target/release/lint_reversible

stage "lint_atomics: self-test + kernel scan"
# Static memory-ordering lint (crates/bench/src/bin/lint_atomics.rs): every
# atomic op in crates/pdes/src must carry an `// ORDER:` rationale. Proves
# the rule fires on the fixtures first (allowlist:
# scripts/lint_atomics.allow, deliberately empty).
cargo build --release -p bench --bin lint_atomics
./target/release/lint_atomics --self-test
./target/release/lint_atomics

stage "mcheck: exhaustive concurrency model checking (--cfg mcheck)"
# mcheck + lint_atomics above are the concurrency gate. Miri and TSan are
# not stages: they need nightly components an offline box cannot install,
# and a permanently skipped stage is not a gate (one-line commands for a
# box that has them: DESIGN.md, "Runtime reversibility auditor").
# The in-tree model checker (pdes::mcheck) explores every bounded
# interleaving + weak-memory read choice of the lock-free protocols: SPSC
# ring transfer (incl. index wraparound), spill/drain conservation,
# Time Warp's GVT quiescence check (agreement on quiet, nothing left in
# flight, a safe minimum), abortable-barrier liveness, and the windowed
# arm's hand-off (flush before done, parity report slots, a fault-held
# message the verbatim drain must release). Budgets are fixed in
# models::default_cfg, so the stage is deterministic; `complete=true` for
# every model is asserted via the JSON below. The separate target dir keeps
# the native cargo cache warm. Unconditional: no nightly toolchain needed.
mkdir -p artifacts
RUSTFLAGS="--cfg mcheck" CARGO_TARGET_DIR=target/mcheck \
    cargo test --release -q -p pdes --lib
RUSTFLAGS="--cfg mcheck" CARGO_TARGET_DIR=target/mcheck \
    cargo build --release -q -p bench --bin mcheck
./target/mcheck/release/mcheck --out=artifacts/mcheck.json
# Mutation kill gate: each seeded concurrency bug (Relaxed publication,
# quiescence counters sampled before B2, swallowed spill, notify-free
# abort, window done before flush, Relaxed done counter, one report slot)
# must be caught by its covering model, with the failing interleaving
# printed.
./target/mcheck/release/mcheck --self-test --out=artifacts/mcheck_selftest.json
if command -v python3 >/dev/null 2>&1; then
    python3 - artifacts/mcheck.json artifacts/mcheck_selftest.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    models = json.load(f)["models"]
assert len(models) == 5, models
for m in models:
    assert m["complete"], f"{m['name']}: state space not exhausted"
    assert m["violation"] is None, f"{m['name']}: {m['violation']}"
    assert m["schedules"] > 1, f"{m['name']}: trivial exploration"
with open(sys.argv[2]) as f:
    muts = json.load(f)["mutations"]
assert len(muts) == 7, muts
for mu in muts:
    assert mu["killed"], f"mutation {mu['mutation']} survived {mu['model']}"
print(f"mcheck.json: {len(models)} models complete "
      f"({sum(m['schedules'] for m in models)} schedules, "
      f"{sum(m['transitions'] for m in models)} transitions); "
      f"{len(muts)}/7 mutations killed")
EOF
fi

stage "repo benchmark: build + contract tests (benchmark/)"
# The benchmark package pins a large slice of the public API (every
# EngineConfig field, the scheduler kinds, EventQueue, pdes::obs::json) and
# lives outside this workspace; build and test it here so an API break is
# caught before the pipeline's parent-vs-change run. Reads benchmark/,
# changes nothing in it (output goes to the ignored benchmark/target).
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test --release -q --manifest-path benchmark/Cargo.toml

stage "instrumented smoke: trace + metrics export (artifacts/)"
# Full-verbosity run with both exporters on; obs_report itself re-validates
# everything it writes with the in-tree JSON validator before exiting 0.
cargo build --release -p bench
./target/release/obs_report \
    --steps=48 --progress=16 \
    --trace=artifacts/trace.json --metrics=artifacts/metrics.jsonl \
    --summary-json=artifacts/summary.json \
    --flows=artifacts/packet_flows.json --lineage=artifacts/lineage.jsonl
# Belt and braces: confirm the artifacts parse with an *independent* JSON
# implementation too, when one is available on the box.
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool artifacts/trace.json >/dev/null
    python3 -m json.tool artifacts/packet_flows.json >/dev/null
    python3 - artifacts/metrics.jsonl artifacts/lineage.jsonl <<'EOF'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        n = sum(1 for line in f if line.strip() and json.loads(line))
    assert n > 0, f"{path} is empty"
    print(f"{path}: {n} lines parsed")
EOF
    python3 - artifacts/summary.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    s = json.load(f)
assert s["events_committed"] > 0
shares = [p["share"] for p in s["profiler"]["phases"].values()]
assert abs(sum(shares) - 1.0) < 1e-6, f"phase shares sum to {sum(shares)}"
assert s["packet_trace"]["dropped"] == 0
print(f"summary.json: {s['events_committed']} committed, "
      f"phase share sum {sum(shares):.6f}, "
      f"{s['packet_trace']['hops']} traced hops")
EOF
fi

stage "overhead: toggle costs vs same-process references (BENCH_overhead.json)"
# One interleaved paired-sample table on the continuity scenario (4-PE 16x16
# torus, Time Warp under a two-step bound — above the model's epoch, so the
# blame and profiler rows price Time Warp's instrumentation): every mode
# must commit the sequential oracle's output before it is timed; default
# obs <= 5% over dark, registered <= 5% over default, blame-on <= 3% over
# blame-off, each above the reference row's measured noise floor; the
# profiler, packet-trace, verbose, jsonl, audit and checkpoint rows are
# informational. Self-validates its JSON and exits 1 on a gate failure.
# Throughput itself is benchmark/run.sh's job, not this script's.
./target/release/overhead --out=artifacts/BENCH_overhead.json

stage "chaos: recovery matrix + both sync arms at release timing"
# Release-mode rerun of the crash-recovery matrix: killed parallel runs are
# resumed from the newest intact snapshot and must commit bit-identical
# output to the uninterrupted sequential oracle across {default (ladder),
# heap} schedulers x {1,2,4} PEs; torn snapshots must be rejected with
# fallback.
# comm_determinism runs the Time Warp loop (delay + reorder faults, 2 and 3
# PEs), and conservative runs the windowed arm (1/2/4 PEs, checkerboard,
# delay + duplicate + reorder, supervised kill, mid-step resume) plus its
# Time Warp leg (checkerboard past the epoch under delay + reorder, resumed
# from its own snapshots), against the oracle at release-build timing,
# where the debug auditor no longer slows the rings down.
cargo test --release -q --test checkpoint --test comm_determinism --test conservative

stage "alloc smoke: ~0 allocations per committed event"
# Counting global allocator over a warm 4-PE run on the windowed arm (the
# default bound, the model's one-step epoch), whose payloads live inline in
# per-LP inboxes and one run buffer per PE, not in the arena or the ladder:
# total allocations (including per-run setup) divided by committed events
# must stay under the 0.02 budget — 5x today's 0.004, so one leaked
# allocation per event, or one per LP inbox per step, fails.
./target/release/alloc_smoke

stage "forensics smoke: rollback_report on the figure-7 regime"
# Who-caused-it report on an instrumented tight-GVT run: cross-checks the
# blame ledger against the legacy counters (aborts on divergence), then
# writes a validated JSON artifact + a Chrome cascade-flow trace.
./target/release/rollback_report \
    --out=artifacts/rollback_report.json \
    --trace-out=artifacts/cascades.trace.json
if command -v python3 >/dev/null 2>&1; then
    python3 - artifacts/rollback_report.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
b = r["blame"]
assert b["events_undone"] == r["events_rolled_back"], r
assert b["cascades_straggler"] == r["primary_rollbacks"], r
assert b["secondary_links"] == r["secondary_rollbacks"], r
assert b["records_dropped"] == 0, b
undone = sum(c["undone"] for c in b["cascades"])
assert undone == b["events_undone"], \
    f"per-cascade undone {undone} != ledger total {b['events_undone']}"
print(f"rollback_report.json: {b['events_undone']} undone across "
      f"{len(b['cascades'])} cascades, {len(b['matrix'])} matrix cells, "
      f"{r['wasted_ns']} ns wasted")
EOF
    python3 -m json.tool artifacts/cascades.trace.json >/dev/null
fi

stage "line counts per area (the ROADMAP's aim-2 figures, from the tree)"
# `wc -l` over the .rs files of each area: physical lines, comments and
# in-file unit tests included.
lines() { find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l; }
obs=$(lines crates/pdes/src/obs crates/pdes/src/obs.rs)
printf '%-34s %6d\n' \
    "crates/pdes/src kernel (non-obs)" $(($(lines crates/pdes/src) - obs)) \
    "  of which sequential.rs" "$(lines crates/pdes/src/sequential.rs)" \
    "  of which parallel.rs" "$(lines crates/pdes/src/parallel.rs)" \
    "crates/pdes/src obs*" "$obs" \
    "crates/{pdes,hotpotato}/src" "$(lines crates/pdes/src crates/hotpotato/src)" \
    "crates/topo/src" "$(lines crates/topo/src)" \
    "crates/bench" "$(lines crates/bench)" \
    "benchmark/src" "$(lines benchmark/src)" \
    "tests (workspace + crates/*/tests)" "$(lines tests crates/*/tests)"

echo "CI gate passed: $stages stages."
