#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through, e.g.
#
#   bash benchmark/run.sh --workload rj1-steady --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary and
# the result records.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME moves the go command's settings and telemetry files.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

go build -C "$bench" -o "$out/benchmark" .
exec "$out/benchmark" "$@"
