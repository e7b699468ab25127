#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-accuracy --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact stays under the checkout: the Go build cache,
# temporary files and the binary go to .bench_build/, and the benchmark's
# data directories and span traces to .bench_out/. The build finishes before
# the benchmark process starts, so no set-up or timed interval compiles.
set -euo pipefail

if [ ! -f go.mod ] || ! grep -qx 'module revft' go.mod || [ ! -d internal ]; then
	echo "perfbench: run from the root of a revft source checkout" >&2
	exit 2
fi

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gomod" "$build/config" "$build/tmp" "$root/.bench_out"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$root/.bench_out" "$@"
