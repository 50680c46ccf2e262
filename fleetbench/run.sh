#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash fleetbench/run.sh --workload fleet-delta --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write (Go build cache, binary, state
# dirs, results, span files) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the working directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/fleetbench" .) >&2
exec "$build/fleetbench" -work "$build" "$@"
