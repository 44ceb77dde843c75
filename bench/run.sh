#!/bin/bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# into .bench_build/ inside the checkout (build cache and temporary
# files included: nothing is written outside it), then run it with the
# caller's arguments. Run from the repository root.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -C "$(dirname "$0")" -o "$build/migbench" . >&2
exec "$build/migbench" "$@"
