#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload serve-mix -seed 1
#
# The binary, the Go build cache, the Go tool's temporary files and its
# own state live under .bench_build (or $CARGO_TARGET_DIR when set), so
# a run writes nothing outside the checkout; Go telemetry is off there.
# Without the repository's sources next to bench/ the build fails and
# the script exits non-zero.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/go-tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
go telemetry off
(cd bench && go build -o "$out/ipim-bench-e2e" .)
exec "$out/ipim-bench-e2e" "$@"
