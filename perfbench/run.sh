#!/usr/bin/env bash
# Builds the netloc benchmark from source and runs it from the
# repository root. All build state stays in .bench_build/ of the
# checkout; nothing is downloaded.
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 1
#   bash perfbench/run.sh compare <before-runs-dir> <after-runs-dir>
#   bash perfbench/run.sh regen    # rewrite perfbench/digests.json
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
    cd "$root/perfbench"
    GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
        XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
        go build -o "$build/perfbench" .
)
cd "$root"
exec "$build/perfbench" "$@"
