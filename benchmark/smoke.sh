#!/usr/bin/env bash
# Every workload at 1/20 size, one repeat, traced run included: a "does it
# still run and verify" pass in a few seconds. Bounds are not applied.
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --smoke "$@"
