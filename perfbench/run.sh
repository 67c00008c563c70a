#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout's root:
#
#   bash perfbench/run.sh --workload bounded-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" . >&2)
cd "$root"
exec "$build/perfbench" -root "$root" "$@"
