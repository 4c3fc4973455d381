#!/usr/bin/env bash
# Builds the perfbench program and rasserve from this checkout, then runs
# perfbench with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload store-warm --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$out/bin" "$out/config/go/telemetry"
# Telemetry off before the first go command: with telemetry on, go starts a
# detached upload process that outlives this script.
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/bin/rasserve" ./cmd/rasserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
