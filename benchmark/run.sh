#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: runs the benchmark from the root
# of a checkout with everything the Go toolchain writes (build cache,
# binaries) kept inside the checkout, under .bench_build/.
#
#   bash benchmark/run.sh --workload serve-topk --seed 3 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOTOOLCHAIN=local
exec go run ./benchmark "$@"
