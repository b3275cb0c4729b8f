#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# arguments given. This is the command BENCHMARK.json names:
#
#   bash benchmark/run.sh --workload shuffle_bulk --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config
# files) stays under .bench_build/ in the checkout. The first call compiles;
# later calls find the build cache warm and relink in about a second, so a
# changed source tree is never run from a stale binary.
#
# No process outlives this script: the only ones it starts are `go build`,
# which is waited for, and the benchmark itself, which replaces the shell.
# Left to itself the go command also forks a detached telemetry sidecar
# ("go ** telemetry **") on its first call with a fresh config directory;
# the mode file written below turns that off before go is ever called.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: no go.mod and internal/ in $PWD: the program the benchmark measures is not here" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/rdmamr-benchmark" ./benchmark
exec "$build/rdmamr-benchmark" "$@"
