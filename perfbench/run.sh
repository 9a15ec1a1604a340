#!/usr/bin/env bash
# Builds the frame benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload daydusk-1080p --seed 1 --seconds 10 --trace 0
#
# Every build output (Go build cache, module cache, the binary) stays
# under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; go.mod not found" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the build directory as well.
export XDG_CONFIG_HOME="$build/config"

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
