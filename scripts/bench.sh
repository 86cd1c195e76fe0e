#!/bin/sh
# Runs the headline benchmarks and records them as JSON (default
# BENCH_1.json in the repo root): the event-queue hot path and the
# full-survey wall clock, single-shard vs one-shard-per-CPU. On a
# single-CPU machine the sharded numbers match the serial ones; the
# speedup shows up with GOMAXPROCS > 1.
#
# With --mem, the script additionally runs the memory-scale surveys
# under GOMEMLIMIT (default 4GiB, override via BENCH_MEMLIMIT) —
# completing under the limit is the flat-peak-memory check — and writes
# a heap profile next to the JSON output (<out>.memprofile):
#   - BenchmarkHeadlineReachability1M: 1M+ targets, streaming engine
#   - BenchmarkHeadlineReachabilityPaperScale: ~12M targets (the
#     paper's full §3 scale), fold engine (per-shard folds, no merged
#     buffers)
#
# With a baseline JSON argument (a previous run's output), the script
# also guards against regressions: if the new
# BenchmarkHeadlineReachability ns_per_op OR allocs_per_op exceeds the
# baseline's by more than 5%, it exits non-zero after writing the new
# file.
#
#   ./scripts/bench.sh                              # write BENCH_1.json
#   ./scripts/bench.sh BENCH_5.json BENCH_1.json    # write + compare
#   ./scripts/bench.sh --mem BENCH_6.json BENCH_5.json  # + 1M streaming bench
set -e
cd "$(dirname "$0")/.."
mem=0
if [ "$1" = "--mem" ]; then
    mem=1
    shift
fi
out="${1:-BENCH_1.json}"
baseline="${2:-}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'BenchmarkQueue$' -benchmem -count=1 ./internal/eventq | tee -a "$tmp"
go test -run '^$' -bench '^BenchmarkHeadlineReachability(Sharded)?$' -benchmem -count=1 -benchtime 3x -timeout 30m . | tee -a "$tmp"
if [ "$mem" = 1 ]; then
    GOMEMLIMIT="${BENCH_MEMLIMIT:-4GiB}" go test -run '^$' \
        -bench '^BenchmarkHeadlineReachability(1M|PaperScale)$' \
        -benchmem -count=1 -benchtime 1x -timeout 120m \
        -memprofile "$out.memprofile" . | tee -a "$tmp"
fi

awk -v cpus="$(go env GOMAXPROCS 2>/dev/null || nproc)" '
BEGIN { print "{"; first = 1 }
/^Benchmark/ && NF >= 8 {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": {\"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
        name, $2, $3, $5, $7
}
END { print "\n}" }' "$tmp" > "$out"

echo "wrote $out"

if [ -n "$baseline" ]; then
    if [ ! -f "$baseline" ]; then
        echo "bench: baseline $baseline not found, skipping comparison" >&2
        exit 0
    fi
    # Pull one benchmark's metric out of the flat JSON both files use.
    # The key is quote-anchored, so BenchmarkHeadlineReachability never
    # matches the Sharded or 1M variants.
    metric_of() {
        awk -v key="\"$2\"" -v metric="\"$3\"" '$0 ~ key {
            if (match($0, metric ": [0-9.]+"))
                print substr($0, RSTART + length(metric) + 2, RLENGTH - length(metric) - 2)
        }' "$1"
    }
    guard() {
        metric="$1"
        label="$2"
        new_v="$(metric_of "$out" BenchmarkHeadlineReachability "$metric")"
        old_v="$(metric_of "$baseline" BenchmarkHeadlineReachability "$metric")"
        if [ -z "$new_v" ] || [ -z "$old_v" ]; then
            echo "bench: BenchmarkHeadlineReachability $metric missing from $out or $baseline" >&2
            return 1
        fi
        awk -v new="$new_v" -v old="$old_v" -v label="$label" 'BEGIN {
            ratio = new / old
            printf "headline survey: %.0f %s vs baseline %.0f %s (%+.1f%%)\n", \
                new, label, old, label, 100 * (ratio - 1)
            if (ratio > 1.05) {
                printf "bench: REGRESSION: headline survey %s grew by more than 5%%\n", label > "/dev/stderr"
                exit 1
            }
        }'
    }
    guard ns_per_op "ns/op"
    guard allocs_per_op "allocs/op"
fi
