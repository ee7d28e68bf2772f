#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark and the
# eh-server it measures from this checkout's sources into .bench_build/
# (build cache included, so nothing is written outside the checkout),
# then runs the benchmark with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o "$out/ehbench" .
go build -o "$out/eh-server" ./cmd/eh-server
exec "$out/ehbench" "$@"
