#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload optimize-paper --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the go command's own files, the binary and
# everything a run writes stay under .bench_build/ in the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -buildvcs=false -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
