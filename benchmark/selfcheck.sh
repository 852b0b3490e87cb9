#!/usr/bin/env bash
# Run the full suite twice on one build and compare the two sets: every
# end-to-end median of the second must be within the metric's bound of the
# first, and every exact-repeat metric (sim.*, and arena.peak_slots on the
# sequential workload) identical. Prints the observed spreads, so the
# bounds in BENCHMARK.json can be set from data. Arguments (--seed,
# --seconds) go to both suites.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
out="$here/out/selfcheck"
"$here/run.sh" --suite "$@" --out "$out/first"
"$here/run.sh" --suite "$@" --out "$out/second"
"$here/run.sh" --compare "$out/first" "$out/second"
