#!/usr/bin/env bash
# Builds the welbench benchmark from the sources of this checkout and runs
# it. Run from anywhere; the benchmark works in the checkout's root and
# keeps every file it writes — the Go build cache included — under
# .bench_build/ there.
#
#   bash welbench/run.sh --workload cold-allocate --seed 1 --seconds 15 --trace 0
#   bash welbench/run.sh compare base.jsonl head.jsonl
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
(
	cd welbench
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/bin/welbench" .
)
exec "$build/bin/welbench" "$@"
