#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every argument
# through (see perfbench/README.md). Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-sync --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, the store and the trace output all stay
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= XDG_CONFIG_HOME="$out/config"
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
