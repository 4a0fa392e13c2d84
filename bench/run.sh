#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload pull-sweep --seed 1 --seconds 15 --trace 0
#
# Everything it writes stays inside the checkout: the binary and all of the
# go command's own state (build cache, module cache, telemetry counters)
# under .bench_build/, traces and scratch files under bench/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
cd "$(dirname "$0")"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/perfsight-bench" .
exec "$build/perfsight-bench" -outdir "$root/bench/out" "$@"
