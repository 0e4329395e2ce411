#!/usr/bin/env bash
# Builds the attestation-gateway benchmark from source and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-batch --seed 1 --seconds 20 --trace 0
#
# Every build artefact, the Go build cache and the run's scratch files
# stay under .bench_build/ at the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -workdir "$out" "$@"
