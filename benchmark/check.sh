#!/usr/bin/env bash
# The benchmark's own noise-floor report: runs the full suite twice on this
# tree with one seed and fails unless every exact metric (virtual time,
# counters, trace digest) matches bit for bit and every bounded metric's two
# medians agree within its bound. Prints both sets and the quartile spreads.
#
#   benchmark/check.sh [SEED]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seed="${1:-1}"
mkdir -p benchmark/out
for run in a b; do
    bash benchmark/run.sh --seed "$seed" --out "benchmark/out/check_$run" >"benchmark/out/check_$run.log" \
        || { echo "run $run failed; see benchmark/out/check_$run.log" >&2; exit 1; }
done
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/kdmark" compare benchmark/out/check_a benchmark/out/check_b
