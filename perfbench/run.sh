#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# arguments given, from the repository root, e.g.
#
#   bash perfbench/run.sh --workload compile-paper --seed 1 --seconds 40 --trace 0
#
# The Go build cache lives in .bench_build/ too, so the build reads the Go
# toolchain and writes only inside the checkout. Outside a full checkout
# (no ../go.mod beside this directory) the build fails and nothing runs.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
