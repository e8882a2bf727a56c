#!/usr/bin/env bash
# Benchmark entry point: builds ./bench from source into .bench_build/ at the
# root of the checkout and runs it with the arguments given. Everything the
# build and the run write (Go build cache, the binary, tier files, trace
# files) stays under .bench_build/, which .gitignore lists.
#
#   bash bench/run.sh --workload train-sweep --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
export CSWAP_BENCH_COMMIT="${CSWAP_BENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || true)}"
go build -o "$build/cswap-bench" ./bench
exec "$build/cswap-bench" -work "$build/work" "$@"
