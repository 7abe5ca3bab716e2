#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it; every argument is passed through. The Go build cache,
# module cache and per-user configuration (telemetry counters) live there too,
# so the command writes nothing outside the checkout. Run it from the root of
# the checkout:
#
#   bash benchmark/run.sh --workload spike-search --seed 1 --seconds 15 --trace 0
set -eu
if [ ! -f go.mod ] || [ ! -d benchmark ]; then
    echo "benchmark/run.sh: run from the root of a checkout of the repository (go.mod not found)" >&2
    exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
