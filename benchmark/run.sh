#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the repository root: bash benchmark/run.sh -workload plan-zoo -seed 7 -seconds 20 -trace 0
# The binary and the Go build cache live in .bench_build/ (ignored by git), so
# nothing is read or written outside the checkout but the Go toolchain itself.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/../.bench_build"
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C "$here" -o "$build/chameleon-bench" .
exec "$build/chameleon-bench" "$@"
