#!/usr/bin/env bash
# Builds the benchmark from the checkout and runs it with the given
# arguments. Everything it writes — Go's build cache, the two binaries, the
# generated CSV files and the span files — goes under .bench_build in the
# checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -C benchmark -o ../.bench_build/benchmark .
# A cold build leaves ~120 MB of build cache dirty; flush it now, not during
# the measured window.
sync
exec .bench_build/benchmark -build-dir .bench_build "$@"
