#!/usr/bin/env bash
# Builds the benchmark from source and runs it. The driver calls this
# from the root of a checkout as
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes (binary, Go build cache) stays inside the
# checkout, under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C bench -o ../.bench_build/flowpulse-bench .
exec .bench_build/flowpulse-bench "$@"
