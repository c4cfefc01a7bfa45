#!/usr/bin/env bash
# Builds perfbench and pride-serve from the checkout in the current
# directory, then runs one benchmark workload with the given arguments:
#
#   bash perfbench/run.sh --workload replay-trace --seed 1 --seconds 25 --trace 0
#
# Every build output and run file stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d cmd/pride-serve ]]; then
	echo "perfbench: run from the repository root; go.mod, internal/ or cmd/pride-serve/ is missing" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# The go command's caches, temporary files and telemetry counters (kept
# under the user config directory) all land in the build directory.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

go build -o "$build/bin/pride-serve" ./cmd/pride-serve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -build "$build" "$@"
