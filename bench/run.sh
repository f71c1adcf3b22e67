#!/usr/bin/env bash
# Builds the serving benchmark and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload warm_read --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare A/*.json -- B/*.json
#
# Everything the build writes (binaries, Go build cache and scratch space,
# Go's own configuration and telemetry) stays under .bench_build in the root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
