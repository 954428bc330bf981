#!/usr/bin/env bash
# Builds the benchmark binary from this checkout's sources and runs it.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload figs-warm --seed 7 --seconds 35 --trace 0
#
# Every build product (the Go build cache and the benchmark binary) goes under
# .bench_build/ in the current directory, so nothing outside the checkout
# is read from or written to.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOFLAGS=-buildvcs=false GOTELEMETRY=off GOENV=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
