#!/usr/bin/env bash
# Builds scfbench from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash scfbench/run.sh --workload trap16-serial --seed 0 --seconds 20 --trace 0
# Run from the repository root. Build outputs (binary, Go build cache,
# temporary files, the go command's telemetry counters) stay under
# $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
go -C scfbench build -o "$out/scfbench" .
exec "$out/scfbench" "$@"
