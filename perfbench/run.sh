#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload build_road --seed 1 --seconds 28 --trace 0
#
# Run it from the repository root. The Go build cache and the binary live
# in .bench_build/, so nothing outside the checkout is read or written
# apart from the Go toolchain itself.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
