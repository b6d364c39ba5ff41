#!/usr/bin/env bash
# Builds the benchmark and the dpar2d daemon from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload stock-cold --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binaries, Go build cache, temp files) lives under
# .bench_build/ in the repository root. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and the repro sources are required)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" . && go build -o "$build/dpar2d" repro/cmd/dpar2d) >&2

exec "$build/perfbench" -dpar2d "$build/dpar2d" -workdir "$build" "$@"
