#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload plan-paper --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# spans of a traced run live under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go build -C perfbench -o "$out/perfbench" .
# Traced runs keep their spans in memory and write them here at exit.
exec "$out/perfbench" -spans "$out/spans.jsonl" "$@"
