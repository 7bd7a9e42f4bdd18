#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. The binary and everything the Go
# toolchain writes (build cache, temporary files, telemetry) go to
# .bench_build/, and the runs' own output to .bench_out/, both under
# the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/hdperf" .)
exec "$out/hdperf" "$@"
