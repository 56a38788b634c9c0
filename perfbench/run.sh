#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload lua-json-cupa --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and any Go settings the toolchain would read
# or write stay under .bench_build, inside the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/home"
env GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
