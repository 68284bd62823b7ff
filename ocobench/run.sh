#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash ocobench/run.sh --workload sqldb-online --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build/ at the repository root. Without the repository's own
# go.mod beside this directory the build fails and nothing is printed.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/ocobench" .)
cd "$root"
exec "$out/ocobench" "$@"
