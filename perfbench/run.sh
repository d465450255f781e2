#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Every build and run artifact
# (Go build cache, binary, Chrome traces) stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The go command also keeps telemetry counters under the user config
# directory, so that moves into the build directory too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
	GOENV=off GOWORK=off XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
