#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it, passing every argument on:
#
#   bash perfbench/run.sh --workload clean-hospital --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# root of the checkout. See perfbench/METRICS.md for the workloads and
# metrics.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
if [ -d .git ]; then
  PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
  export PERFBENCH_COMMIT
fi
exec "$out/perfbench" "$@"
