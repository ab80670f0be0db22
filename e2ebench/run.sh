#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it. Run from the root of the checkout:
#
#   bash e2ebench/run.sh --workload routed-read --seed 1 --seconds 40 --trace 0
#
# Build products and the Go build cache stay under .bench_build/, span
# files go to .bench_out/. The toolchain is the local one, and its
# telemetry and user config file are off, so nothing outside the checkout
# is written.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off GOENV=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
