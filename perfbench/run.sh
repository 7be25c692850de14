#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload portfolio-rollup --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (compiler cache, binary) stays under
# .bench_build in the repository root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files there
# too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
