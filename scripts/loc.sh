#!/usr/bin/env bash
# Non-test lines of code per crate: every line of crates/<crate>/src/**/*.rs
# up to (not including) the file's first `#[cfg(test)]`. This is the rule
# CHANGES.md reports "net non-test LoC" by. Run from anywhere; pass a
# checkout root to measure another tree (e.g. a clone of the parent commit).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for dir in crates/*/src; do
    n=$(find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }')
    printf '%-10s %6d\n' "$(basename "$(dirname "$dir")")" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
