#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload dept-hints --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache included, goes under
# .bench_build in the current directory, so a run writes nothing outside
# the checkout. Without the repository's module next to perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
