#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; everything the build writes stays under
# .bench_build in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	GOPROXY=off GOTELEMETRY=off
go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
