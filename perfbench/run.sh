#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload grid_wide --seed 1 --seconds 35 --trace 0
#
# The benchmark is a Go module of its own that uses the repository
# through a replace directive. Build output and the Go build cache stay
# under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
