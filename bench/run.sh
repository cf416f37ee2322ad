#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, e.g.
#
#   bash bench/run.sh --workload verify_cold --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# binaries) stays under .bench_build/ in the repository root. Without the
# repository's module next to bench/ the build fails and nothing runs.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd bench && go build -o "$out/ebda-bench" .)
exec "$out/ebda-bench" "$@"
