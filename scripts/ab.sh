#!/usr/bin/env bash
# One A/B command: this working tree against a git revision.
#
#   scripts/ab.sh REV [UNSEEN_SEED]
#
# Exports REV with `git archive` into a temporary directory, builds kdmark in
# both trees (release, offline; target dirs under `${AB_TARGET_DIR:-target/ab}`
# so a second run is incremental), and runs kdmark's six workloads on both
# trees, at kdmark's own run length, at seeds 1, 2, 3 and one seed neither
# tree was tuned on. That seed is fresh on every call and printed; pass it as
# UNSEEN_SEED only to replay an earlier call. The order of a pair alternates:
# this tree runs first at odd seeds, REV first at even ones.
#
# Each pair goes through `kdmark compare`. The table printed at the end says
# "identical" or "moved" for the exact metrics (virtual time, polls and
# allocations per record, trace digest); a number that moved is printed at
# full precision, read from the two runs' `<workload>.e2e.json`, with its
# signed difference B - A (compare's own table rounds to four places, so a
# one-allocation move would read as no move at all). A host metric (wall time) of one
# pair is only a reading, not a verdict: its row says whether it fell in the
# benchmark's bound, marked "(one pair)". A kdmark run or compare that fails
# is a FAILED row, and the script then exits non-zero. So is a golden test of
# this tree that fails: `wheel_determinism`, the chaos and durable soaks and
# `sim`'s `wake_order` digests each add a row (passed / FAILED), so that the
# table alone answers "did anything move". Then: the figure ledger this tree
# prints against the one checked in at REV, and `scripts/loc.sh` on both
# trees. Runs offline and writes nothing under benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:?usage: scripts/ab.sh REV [UNSEEN_SEED]}"
unseen="${2:-$((4 + RANDOM % 9996))}"
targets="$(realpath -m "${AB_TARGET_DIR:-target/ab}")"
work="$(mktemp -d "${TMPDIR:-/tmp}/kd-ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT

echo "ab: $(git rev-parse --short "$rev") (A) against this tree (B); seeds 1 2 3 $unseen" >&2
mkdir "$work/a"
git archive "$rev" | tar -x -C "$work/a"
build() { # tree target
    cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2" 1>&2
}
build "$work/a" "$targets/a"
build . "$targets/b"

row() { # seed workload metric A B verdict
    printf "%-5s %-16s %-20s %20s %20s  %s\n" "$@"
}
failed=0
table="$work/table.txt"
exact() { # seed side workload metric: the value that run's e2e.json holds, as written
    sed -n "s/.*\"$4\":{\"value\":\([^,}]*\).*/\1/p" "$work/$2-$1/$3.e2e.json" 2>/dev/null || true
}
for seed in 1 2 3 "$unseen"; do
    order="a b"
    [ $((seed % 2)) = 1 ] && order="b a"
    ok=1
    for side in $order; do
        tree=.
        [ "$side" = a ] && tree="$work/a"
        echo "ab: seed $seed, run $side" >&2
        if ! (cd "$tree" && "$targets/$side/release/kdmark" --seed "$seed" \
            --out "$work/$side-$seed" >/dev/null); then
            row "$seed" all "kdmark run $side" - - FAILED >>"$table"
            ok=0
        fi
    done
    [ "$ok" = 1 ] || { failed=1; continue; }
    # `compare` exits 2 when an exact metric moved or a host metric left its
    # bound (the table says which), 1 when it could not compare.
    status=0
    "$targets/b/release/kdmark" compare "$work/a-$seed" "$work/b-$seed" >"$work/cmp-$seed" ||
        status=$?
    if [ "$status" = 1 ]; then
        row "$seed" all "kdmark compare" - - FAILED >>"$table"
        failed=1
        continue
    fi
    grep -q "^run " "$work/cmp-$seed" && failed=1
    awk -v seed="$seed" '/^run / {
            printf "%-5s %-16s %-20s %20s %20s  %s\n", seed, "all", "run " $2 " correct", "-", "-", "FAILED"
        }
        NF >= 7 && $1 != "workload" {
            verdict = $0; sub(/.*  /, "", verdict)
            if (verdict ~ /^identical/) verdict = "identical"
            else if (verdict ~ /^DIFFERS/) verdict = "moved"
            else if (verdict ~ /^within bound/) verdict = "in bound (one pair)"
            else if (verdict ~ /^OUT OF BOUND/) verdict = "OUT OF BOUND (one pair)"
            printf "%-5s %-16s %-20s %20s %20s  %s\n", seed, $1, $2, $3, $4, verdict
        }' "$work/cmp-$seed" |
        while IFS= read -r line; do
            set -- $line
            a="$(exact "$1" a "$2" "$3")" b="$(exact "$1" b "$2" "$3")"
            if [ "${6:-}" = moved ] && [ -n "$a" ] && [ -n "$b" ]; then
                line="$(row "$1" "$2" "$3" "$a" "$b" \
                    "moved by $(awk -v a="$a" -v b="$b" 'BEGIN { printf "%+.6g", b - a }')")"
            fi
            printf '%s\n' "$line"
        done >>"$table"
done

# The golden tests of this tree: each a row of the table.
golden() { # name cargo-test-arguments...
    local name=$1
    shift
    echo "ab: golden $name" >&2
    if cargo test -q --offline --release "$@" >"$work/golden-$name.log" 2>&1; then
        row - golden "$name" - - passed >>"$table"
    else
        tail -n 20 "$work/golden-$name.log" >&2
        row - golden "$name" - - FAILED >>"$table"
        failed=1
    fi
}
golden wheel_determinism --test wheel_determinism
golden chaos --test chaos
golden durable --test durable
golden wake_order -p sim --test wake_order

echo
row seed workload metric A B verdict
sort -s -k2,2 -k3,3 "$table"

echo
echo "== figure ledger: this tree's scripts/figures.sh against results/figures-latest.txt at $rev"
bash scripts/figures.sh "$work/figures" "$work/ledger.txt" >/dev/null 2>&1
if diff "$work/a/results/figures-latest.txt" "$work/ledger.txt"; then
    echo "identical"
fi

echo
echo "== non-test lines (scripts/loc.sh): A, B, B - A"
LC_ALL=C join <(bash scripts/loc.sh "$work/a") <(bash scripts/loc.sh .) |
    awk '{ printf "%-10s %6d %6d %+6d\n", $1, $2, $3, $3 - $2 }'

if [ "$failed" = 1 ]; then
    echo "ab: a kdmark run, compare or golden test FAILED (rows above)" >&2
    exit 1
fi
