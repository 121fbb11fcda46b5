#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash benchmark/run.sh --workload suite --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# benchmark and coalesced binaries) stays under .bench_build/ in the
# checkout. See benchmark/README.md for the flags and the metrics.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" -root . "$@"
