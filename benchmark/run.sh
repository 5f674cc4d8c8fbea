#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json names it). Builds the harness
# — a module of its own under benchmark/ — and runs it from the checkout's
# root; the harness then builds cmd/serve from the same checkout.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh run [-seed n] [-count k] [-out file]
#   bash benchmark/run.sh compare <a.json> <b.json>
#
# Every build product stays inside the checkout: Go's build cache and temp
# files go to .bench_build/, binaries, logs, data dirs and span files to
# benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$root/benchmark/out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

(cd "$root/benchmark" && go build -o "$root/benchmark/out/benchmark" .)
cd "$root"
exec "$root/benchmark/out/benchmark" "$@"
