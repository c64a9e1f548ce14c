#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash bench/run.sh --workload session-dayinlife --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, and temporary files stay under
# .bench_build in the current directory, and the toolchain never reaches
# the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C bench build -o "$build/mobicore-bench" .
exec "$build/mobicore-bench" "$@"
