#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload tcp-getset64 --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. The build cache, module cache and
# binary go under $CARGO_TARGET_DIR (default .bench_build) and traced runs
# write under .bench_out, so nothing is read or written outside the
# checkout apart from the Go toolchain itself.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
