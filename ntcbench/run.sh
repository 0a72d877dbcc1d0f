#!/usr/bin/env bash
# Builds the ntcbench harness from the checkout's sources and runs it.
#
#   bash ntcbench/run.sh --workload scaleout-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artifact (Go build
# cache, harness binary, checkpoints, CPU profiles) stays under
# .bench_build in that root; the build is offline and uses the local
# toolchain only.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/experiments" ]; then
	echo "ntcbench: $root is not an ntcsim source tree (run from the repository root)" >&2
	exit 2
fi
build="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) build="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$build/tmp"

export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=readonly
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp" TMPDIR="$build/tmp"

(cd "$root/ntcbench" && go build -o "$build/ntcbench" .)
exec "$build/ntcbench" -root "$root" -build "$build" "$@"
