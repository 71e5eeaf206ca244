#!/usr/bin/env bash
# Host-time pairs: this working tree against a git revision on one workload.
#
#   scripts/pairs.sh REV WORKLOAD
#
# Builds kdmark in both trees as scripts/ab.sh does (release, offline; the
# same target dirs under `${AB_TARGET_DIR:-target/ab}`, so either script
# reuses the other's build), then runs WORKLOAD ten times on each tree at
# seed 1 and kdmark's own run length, in pairs whose order alternates: this
# tree runs first in odd pairs, REV first in even ones.
#
# Prints every run's `host_ns_per_record`, each side's median and quartiles
# (linear interpolation), how many pairs this tree won (lower host time; a
# tie counts for neither side), and the verdict of the `choosing-metrics`
# guide (§8): "gain" or "loss" when one side won at least 9 of the 10 pairs
# and the medians differ by more than REV's interquartile range, else
# "unresolved". A kdmark run that fails, or reports no host time, stops the
# script with a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/pairs.sh REV WORKLOAD"
[ $# = 2 ] || { echo "$usage" >&2; exit 2; }
rev="$1"
workload="$2"
pairs=10
targets="$(realpath -m "${AB_TARGET_DIR:-target/ab}")"
work="$(mktemp -d "${TMPDIR:-/tmp}/kd-pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT

echo "pairs: $(git rev-parse --short "$rev") (A) against this tree (B); $workload, seed 1, $pairs pairs" >&2
mkdir "$work/a"
git archive "$rev" | tar -x -C "$work/a"
build() { # tree target
    cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2" 1>&2
}
build "$work/a" "$targets/a"
build . "$targets/b"

run() { # side -> host_ns_per_record on stdout
    local tree=.
    [ "$1" = a ] && tree="$work/a"
    local out
    if ! out="$(cd "$tree" && "$targets/$1/release/kdmark" --workload "$workload" --seed 1 --trace 0 | tail -n 1)"; then
        echo "pairs: kdmark $1 FAILED" >&2
        return 1
    fi
    local host
    host="$(sed -n 's/.*"host_ns_per_record":{"value":\([0-9.eE+-]*\).*/\1/p' <<<"$out")"
    if [ -z "$host" ] || ! grep -q '"correct":true' <<<"$out"; then
        echo "pairs: kdmark $1 FAILED: $out" >&2
        return 1
    fi
    echo "$host"
}

printf "%-5s %-6s %18s %18s\n" pair first A B
for i in $(seq 1 "$pairs"); do
    order="a b"
    [ $((i % 2)) = 1 ] && order="b a"
    for side in $order; do
        host="$(run "$side")"
        printf -v "$side" '%s' "$host"
    done
    printf "%-5s %-6s %18s %18s\n" "$i" "${order%% *}" "$a" "$b"
    echo "$a $b" >>"$work/pairs.txt"
done

echo
awk -v pairs="$pairs" '
    function q(x, n, p,    h, lo) { # linear-interpolation quantile of sorted x[1..n]
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? x[n] : x[lo] + (h - lo) * (x[lo + 1] - x[lo])
    }
    function sort(x, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
    }
    { a[NR] = $1; b[NR] = $2; if ($2 < $1) wins++; else if ($1 < $2) losses++ }
    END {
        sort(a, NR); sort(b, NR)
        printf "%-5s %14s %14s %14s\n", "side", "q1", "median", "q3"
        printf "%-5s %14.1f %14.1f %14.1f\n", "A", q(a, NR, .25), q(a, NR, .5), q(a, NR, .75)
        printf "%-5s %14.1f %14.1f %14.1f\n", "B", q(b, NR, .25), q(b, NR, .5), q(b, NR, .75)
        iqr = q(a, NR, .75) - q(a, NR, .25)
        gap = q(a, NR, .5) - q(b, NR, .5)
        printf "\nB won %d of %d pairs (A won %d); median gap A - B %.1f ns, A interquartile range %.1f ns\n",
            wins, pairs, losses, gap, iqr
        verdict = "unresolved"
        if (wins >= 0.9 * pairs && gap > iqr) verdict = "gain"
        if (losses >= 0.9 * pairs && -gap > iqr) verdict = "loss"
        print "verdict: " verdict
    }' "$work/pairs.txt"
