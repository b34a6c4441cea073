#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build cache, the Go home
# directories and the binary all live under .bench_build/ there, so a
# run reads and writes nothing outside the checkout but the Go
# toolchain itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOENV=off GOTELEMETRY=off GOPROXY=off
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
