#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Everything the build
# writes (Go build cache, temp files, telemetry, the binary) stays under
# .bench_build/ inside the checkout; the harness itself writes only under
# benchmark/out/. Arguments are passed through to the harness, e.g.
#
#   bash benchmark/run.sh --workload clips_fast --seed 1 --seconds 16 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod next to benchmark/ - the harness builds against the full source tree" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -buildvcs=false -o "$build/mosaic-bench" ./benchmark
exec "$build/mosaic-bench" "$@"
