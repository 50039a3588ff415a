#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the repository
# root. Every build product, cache and temporary file stays under
# .bench_build/ at the root, so the run reads and writes nothing outside the
# checkout. All arguments go to the harness; see bench/README.md.
#
#   bash bench/run.sh -seed 1                                  # whole suite
#   bash bench/run.sh --workload short-trials --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh compare -old A.json -new B.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	GOPROXY=off GOENV=off GOWORK=off
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
