#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 40 --trace 0
# Run it from the repository root.  The binary, the Go build cache and Go's
# own config and telemetry files stay under .bench_build in the current
# directory (CARGO_TARGET_DIR is honoured as its location when set).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
