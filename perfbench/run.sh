#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload survey --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the run write (Go build cache, binary, spill
# files) stays under .bench_build/ in the checkout. Fails without
# printing a result when the repository's sources are not there.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false TMPDIR="$out/tmp"

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
