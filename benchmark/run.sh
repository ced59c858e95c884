#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds ./benchmark from source (cached after the first run) and runs it
# with the arguments it was given. Everything the build writes — the binary,
# the go build cache, go's own config directory — stays under .bench_build in
# the checkout.
#
# A go command that finds a fresh config directory starts a detached telemetry
# child that outlives it (and, when the build fails at once, outlives this
# script). The mode file turns telemetry off before go first runs, so no
# process is left behind on any path out.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
