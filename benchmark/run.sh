#!/usr/bin/env bash
# Build the benchmark in release mode and run it. Arguments go to the
# binary unchanged (see src/main.rs or README.md):
#
#   benchmark/run.sh --workload torus32_tw2 --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh --suite
#
# Results land in benchmark/out/ unless --out says otherwise. Cargo's
# target directory is CARGO_TARGET_DIR if set, else benchmark/target.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
# glibc raises its mmap threshold to the largest block freed so far. Which
# value a process ended up with depended on the order in which Time Warp
# threads happened to free their buffers, and made setup_s bimodal (0.40 or
# 0.75 ms on torus32_seq). Pinning the thresholds at their initial values
# turns the adaptation off: every repetition maps and faults its large
# blocks afresh, as a run in a fresh process does.
export MALLOC_MMAP_THRESHOLD_=131072 MALLOC_TRIM_THRESHOLD_=131072
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- \
    --out "$here/out" "$@"
