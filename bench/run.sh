#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload synth-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, module cache, the binary) stays under .bench_build/, and no
# network access is attempted: the module has no dependencies outside
# this repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$build/xbarbench" ./cmd/xbarbench)
exec "$build/xbarbench" "$@"
