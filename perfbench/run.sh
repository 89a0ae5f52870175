#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, for example:
#
#   bash perfbench/run.sh --workload packed --seed 1 --seconds 10 --trace 0
#
# The build (binary, Go build cache) and the span files of traced runs go
# under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
