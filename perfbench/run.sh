#!/usr/bin/env bash
# Builds the system benchmark from this checkout and runs one workload.
#
#   bash perfbench/run.sh --workload suite-quick --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, scratch data, traced-run profiles and spans)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off \
	GOENV=off GOPROXY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
