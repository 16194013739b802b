#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_suite --seed 1 --seconds 30 --trace 0
#
# Every build cache, temporary file and span file stays under .bench_build
# in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f ghostwriter.go ]; then
	echo "perfbench: run from the root of a ghostwriter checkout (go.mod and ghostwriter.go not found)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$(pwd)/$out" ;; esac
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config/go/telemetry"
# The go command otherwise forks a detached telemetry process that outlives
# the build; mode "off" keeps it from starting one.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/perfbench" ./perfbench
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
