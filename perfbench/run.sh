#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload paper-lin [--seed 1] [--seconds 15] [--trace 0|1]
#
# Everything the build writes (binary, Go build cache, temporary files) goes
# to .bench_build at the root of the checkout; the network is never used.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
