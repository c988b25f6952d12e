#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload switch-burst --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
