#!/usr/bin/env bash
# Builds the system benchmark from the checkout it is run in and runs it.
#
#   bash sysbench/run.sh --workload pool --seed 1 --seconds 10 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write (binary, Go build cache, Go's per-user files, WAL files) stays
# under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
HOME="$out/home" go -C "$root/sysbench" build -o "$out/sysbench" . >&2
exec "$out/sysbench" --tmp "$out/tmp" "$@"
