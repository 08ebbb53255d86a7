#!/usr/bin/env bash
# Builds the server and the benchmark from this checkout, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload lubm-hot --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, generated data, traces)
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

# Build output goes to stderr: stdout carries the report and its JSON line.
go build -o "$out/turbohom" ./cmd/turbohom >&2
go -C perfbench build -o "$out/perfbench" . >&2

commit=$(git rev-parse HEAD 2>/dev/null || echo none)
exec "$out/perfbench" -bin "$out/turbohom" -work "$out/work" -commit "$commit" "$@"
