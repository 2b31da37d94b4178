#!/usr/bin/env bash
# Builds cmd/serve and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hit --seed 1 --seconds 24 --trace 0
#
# Build outputs and the Go build cache live in .bench_build/ under the
# root, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/serve" ]]; then
	echo "run.sh: no go.mod or cmd/serve under $root; run it from the repository root" >&2
	exit 1
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry" "$out/gomod"
# With telemetry on (the default "local" mode) the go command forks a
# detached upload process once a day per config dir, which would outlive
# this script; a fresh config dir always takes that token.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/serve" ./cmd/serve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -serve "$out/serve" -root "$root" "$@"
