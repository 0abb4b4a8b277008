#!/usr/bin/env bash
# Builds the lifeguard benchmark from the source tree it sits in and runs
# it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload paper-128 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, telemetry, temp files, the binary, span dumps) stays
# under .bench_build/perfbench in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go telemetry off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
