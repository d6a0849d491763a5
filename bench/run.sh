#!/usr/bin/env bash
# Builds the benchmark from the current checkout and runs it with the
# given flags. Run it from the repository root:
#
#   bash bench/run.sh -workload live-mtlb -seed 3 -seconds 24 -trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the checkout, so a run writes nothing outside it. The
# build uses only the standard library and this checkout, so module
# downloads are switched off.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= \
	GOPROXY=off GOSUMDB=off GOWORK=off

go -C bench build -o "$out/shadowtlb-bench" .
exec "$out/shadowtlb-bench" "$@"
