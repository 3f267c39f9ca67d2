#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload media-heavy --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the compiler's temporary files
# stay under .bench_build/. The module needs nothing from the network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd e2ebench && go build -o "$build/e2ebench-bin" .)
exec "$build/e2ebench-bin" "$@"
