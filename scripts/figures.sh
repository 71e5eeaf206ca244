#!/usr/bin/env bash
# Regenerates every paper figure and ablation: the stdout of each of the six
# `fig*` benches + `ablations` goes to <out-dir>/<name>.txt (default
# target/figures), and their concatenation, in this order, replaces
# results/figures-latest.txt (or [ledger], which is how ci.sh compares
# without touching the tracked file). All of it is virtual time, so two runs of one
# commit are byte-identical: "the figures did not move" is
# `diff -r <parent out-dir> <this out-dir>` (run the script in a clone of
# the parent), and `git diff results/` shows a figure that did.
set -euo pipefail
out="$(realpath -m "${1:-$(dirname "$0")/../target/figures}")"
ledger="$(realpath -m "${2:-$(dirname "$0")/../results/figures-latest.txt}")"
cd "$(dirname "$0")/.."
mkdir -p "$out" "$(dirname "$ledger")"
benches=(fig06_07_08_micro fig10_11_produce fig12_13_scaling
    fig14_17_replication fig18_20_consume fig21_events ablations)
for name in "${benches[@]}"; do
    cargo bench -q --offline -p kdbench --bench "$name" >"$out/$name.txt"
done
(cd "$out" && cat "${benches[@]/%/.txt}") >"$ledger"
