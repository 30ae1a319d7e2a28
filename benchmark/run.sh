#!/usr/bin/env bash
# Builds the benchmark inside the checkout (binary and Go caches under
# .bench_build/, nothing outside the checkout is written) and runs it from
# this directory with the arguments given. BENCHMARK.json names this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/ocs-benchmark" .
exec "$build/ocs-benchmark" "$@"
