#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 15 --trace 0
#
# The Go build cache, module and telemetry directories, temporary files and
# the binary stay under .bench_build/ in the checkout; the traced run writes
# its spans and profiles under .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS= GOENV=off
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
