#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash cbbench/run.sh --workload xpic-paper --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root: the Go build cache, the binary, the
# run store of catalog-warm and the span files of traced runs. Without the
# repository around cbbench/ the build fails and the script exits non-zero
# before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/cbbench" && go build -o "$out/cbbench" .)
exec "$out/cbbench" -out "$out" "$@"
