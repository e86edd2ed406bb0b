#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it
# with the given arguments. Run it from the root of the checkout:
#
#   bash benchmark/run.sh --workload solve-bp --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary, the
# run's spools and span files. The first run compiles everything.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# Build only from what is here: no toolchain or module downloads.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C benchmark -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" "$@"
