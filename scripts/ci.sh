#!/bin/sh
# Full CI gate: static checks, build, the race-enabled test suite (which
# exercises the shared memo.Group cache/singleflight paths via
# internal/memo and internal/service's parallel-request tests), the
# benchmark module's unit tests, and the example smoke tests.
set -e
cd "$(dirname "$0")/.."

echo "=== gofmt ==="
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "=== go vet ==="
go vet ./...

echo "=== go build ==="
go build ./...

# -timeout 30m: under the race detector the harness suite (every
# experiment, both formats) legitimately exceeds go test's default
# 10-minute per-package timeout on small CI runners.
echo "=== go test -race ==="
go test -race -timeout 30m ./...

# The full suite above runs with the machine's GOMAXPROCS; on a 1-CPU
# runner the parallel engine then degrades to sequential and its
# goroutine interactions go unexercised. Re-run the engine-heavy tests
# with explicit worker counts > 1 so the race detector always sees the
# concurrent paths.
echo "=== go test -race (parallel engine, forced workers) ==="
# Jellyfish|SlimFly|HyperX pull in the new-family determinism and
# regularity regressions alongside the engine suites;
# Runtime|ChromeTrace|SlowRun|RunEvent|DebugRun add the telemetry
# sampler goroutine, trace exporter, and run-event/slow-run plumbing.
go test -race -timeout 30m -run 'Parallel|Determin|Budget|ForEach|Singleflight|Concurrent|Span|Registry|Job|Jellyfish|SlimFly|HyperX|Runtime|ChromeTrace|SlowRun|RunEvent|DebugRun' \
    ./internal/parallel ./internal/comm ./internal/metrics ./internal/core ./internal/service ./internal/obs ./internal/design ./internal/workcache ./internal/memo ./internal/congest ./internal/topology .

# Golden Chrome-trace shape gate: the exported trace must stay a valid
# JSON array with pid/tid on every event and monotonic timestamps, or
# Perfetto / chrome://tracing silently refuses the file.
echo "=== go test (chrome trace shape) ==="
go test -run 'ChromeTrace|DebugRunTrace' ./internal/obs ./internal/service

# The committed fuzz seed corpora are regression inputs: replay them
# (seeds only — no fuzzing engine) so a corpus entry that starts
# crashing fails CI before any long fuzz run would find it.
echo "=== go test (fuzz seed corpora) ==="
go test -run 'Fuzz' ./internal/topology ./internal/service

# perfbench is a nested module (netloc/perfbench), so the root
# ./... patterns above never reach its unit tests.
echo "=== go test (perfbench module) ==="
(cd perfbench && GOPROXY=off GOFLAGS= go test ./...)

echo "=== examples ==="
sh scripts/run_examples.sh

echo "ci: all green"
