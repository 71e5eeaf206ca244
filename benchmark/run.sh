#!/usr/bin/env bash
# Builds kdmark (release, offline) and runs it from the repository root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--out DIR]
#       every workload, both ways, one child process per run; prints every
#       metric by name and writes DIR/result.json (default benchmark/out).
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is its JSON result.
#
# CARGO_TARGET_DIR is honoured; the default is benchmark/target.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" 1>&2
exec "$target/release/kdmark" "$@"
