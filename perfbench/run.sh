#!/usr/bin/env bash
# Builds the benchmark and the canode node binary from the checkout's
# source, then runs one workload:
#
#   bash perfbench/run.sh --workload mixed-closed --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Everything it builds or writes (Go
# build cache, binaries, WAL files, node logs, trace files) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the root of a checkout with the program's source" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/run"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$build/canode" ./cmd/canode
(cd perfbench && go build -o "$build/perfbench" .)

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
PERFBENCH_COMMIT=$commit exec "$build/perfbench" -work "$build/run" -canode "$build/canode" "$@"
