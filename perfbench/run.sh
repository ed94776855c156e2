#!/bin/sh
# Builds the benchmark and dsserve from the source tree, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload pool-zipf --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run state stay in .bench_build.
set -e
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/dsserve" ./cmd/dsserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dsserve "$out/dsserve" -workdir "$out" "$@"
