#!/usr/bin/env bash
# Build the benchmark from source into the checkout and run it.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything this writes — the Go build cache,
# the binary, WAL directories, span dumps — lands under .bench_build/ in the
# current directory; nothing outside the checkout is touched and the network
# is never used (dependencies are vendored).
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=vendor
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$build/ghba-bench" ./bench
exec "$build/ghba-bench" -tmp "$build/tmp" "$@"
