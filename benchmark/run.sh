#!/usr/bin/env bash
# run.sh builds the benchmark from this checkout's sources and runs it with
# the given arguments, e.g. from the repository root:
#
#   bash benchmark/run.sh -workload mpi-replay -seed 7 -seconds 18 -trace 0
#
# Everything the build writes — the Go build cache, temporary files and the
# binary — stays under .bench_build/ at the repository root. The build needs
# only the local Go toolchain and the repository's own module.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=$(dirname "$here")/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
