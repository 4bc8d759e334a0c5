#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark binary from
# source and runs it from the repo root with the caller's arguments.
# The build cache, module cache and temp files all live under
# .bench_build in the checkout, so nothing outside it is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
