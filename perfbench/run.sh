#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it. Run from
# the repository root; every argument goes to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload query-i2 --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and span dumps all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
