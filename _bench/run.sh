#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash _bench/run.sh --workload sweep --seed 1 --seconds 45 --trace 0
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, temporary build directories, telemetry counters under HOME, the
# binary) and the traces stay under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root/_bench" -o "$out/bench" .
exec "$out/bench" "$@"
