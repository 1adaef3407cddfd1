#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, the stores and the trace output all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
if ! (cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 1
fi
exec "$build/perfbench" -dir "$build" "$@"
