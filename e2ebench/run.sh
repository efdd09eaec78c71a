#!/usr/bin/env bash
# Builds drevald and the load generator from the checkout's sources,
# then runs one benchmark pass. Run from the repository root:
#
#	bash e2ebench/run.sh --workload evaluate_narrow --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write lands under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
# Keep the toolchain's caches, module path and config (telemetry
# included) inside the checkout, and never download anything.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
# Every other go command starts a detached telemetry child that can
# outlive this script; "go telemetry off" is the one that does not, and
# turning telemetry off first stops the rest from starting it.
go telemetry off

go build -o "$build/drevald" ./cmd/drevald
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -root "$root" -drevald "$build/drevald" "$@"
