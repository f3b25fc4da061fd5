#!/usr/bin/env bash
# Builds the benchmark harness and the mcimcollect binary it measures, then
# runs the harness with the driver's arguments. Everything the build and the
# run write stays inside the checkout: .bench_build/ (Go build cache and the
# two binaries) and benchmark/out/ (traces, server logs, temporary WALs).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/config"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
# Keeps the toolchain's own bookkeeping (go env file, telemetry) in the checkout too.
export XDG_CONFIG_HOME="$build/config"
t0=$(date +%s%N)
(cd "$here" && go build -o "$build/bin/harness" . && go build -o "$build/bin/mcimcollect" repro/cmd/mcimcollect)
build_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "$root"
exec "$build/bin/harness" -server "$build/bin/mcimcollect" -out "$here/out" \
  -build-s "$((build_ms / 1000)).$(printf %03d $((build_ms % 1000)))" -commit "$commit" "$@"
