#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash nsbench/run.sh --workload dense256 --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and span files stay under .bench_build/ at
# the repository root; nothing is fetched and nothing is written outside
# the repository.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build/nsbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps its settings and telemetry counters under the user
# config directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd "$here" && go build -o "$out/nsbench" .)
exec "$out/nsbench" "$@"
