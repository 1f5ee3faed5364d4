#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, for example
#
#   bash bench/run.sh --workload inv_delay --seed 1 --seconds 20 --trace 0
#
# The binary, Go build cache and temporary files stay in .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$out/vsperf" .)
exec "$out/vsperf" "$@"
