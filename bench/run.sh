#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments.
# Compiler caches stay inside .bench_build/ too, so a run writes nothing
# outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
go build -C bench -o "$build/acme-bench" .
exec "$build/acme-bench" "$@"
