#!/usr/bin/env bash
# Builds fencebench from the checkout this script lives in and runs it with
# the given arguments, from the checkout root:
#
#   bash bench/run.sh --workload cert-kernels --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and every temporary file stay under
# .bench_build/ (or $CARGO_TARGET_DIR when set), so a run reads and writes
# nothing outside the checkout. The toolchain is pinned to the local one
# and the module proxy is off: the benchmark needs no download.
set -euo pipefail
cd "$(dirname "$0")/.."
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$build/fencebench" .
exec "$build/fencebench" "$@"
