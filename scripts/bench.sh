#!/bin/sh
# bench.sh — the repo's one perf gate: regenerate or check a committed
# BENCH_<suite>.json.
#
# Usage:
#   scripts/bench.sh <quant|fleet|cloud|sched> [output.json]
#   scripts/bench.sh <quant|fleet|cloud|sched> --check [baseline.json]
#
# Without --check the suite is run once and its snapshot written wholesale
# (default BENCH_<suite>.json). With --check it is run best-of-three and
# compared against the committed snapshot; the exit status is 1 on a
# regression. What each suite measures and gates:
#
#   quant  BenchmarkQuantSpeedup: float32 vs int8 ns/op per perception
#          kernel (DESIGN.md §8). Gate: an int8 kernel more than 10% slower,
#          or its allocs/op grown.
#   fleet  BenchmarkFleetThroughput: vehicle-seconds of virtual time per
#          wall second per fleet size × worker count (DESIGN.md §11). Gate:
#          a one-worker row more than 10% below the baseline, or its epoch
#          loop's allocs/op grown. Worker scaling needs a multi-core host,
#          so the snapshot records num_cpu next to the numbers.
#   cloud  BenchmarkTelemetry*: ingest, scan, kind query and point reads of
#          the telemetry store (DESIGN.md §14). Gate: throughput more than
#          10% below the baseline, or write/read amplification up over 5%.
#   sched  sovbench -only sched-json: the online scheduler against pinned
#          static mappings (DESIGN.md §13). Every number is virtual-time
#          deterministic, so the gate is a byte-for-byte diff; both modes
#          also assert that online beats the best static mapping on p99 and
#          costs at most 2% p50 under steady load.
#
# Reading the output (parse, baseline, compare, emit) is scripts/bench.awk.
set -eu

cd "$(dirname "$0")/.."

case "${1:-}" in
quant) bench=BenchmarkQuantSpeedup benchtime=500ms ;;
fleet) bench=BenchmarkFleetThroughput benchtime=2x ;;
cloud) bench=BenchmarkTelemetry benchtime=5x ;;
sched) ;;
*) echo "usage: scripts/bench.sh <quant|fleet|cloud|sched> [--check] [file]" >&2; exit 2 ;;
esac
suite="$1"
shift

check="" count=1
if [ "${1:-}" = "--check" ]; then
    check=1 count=3
    shift
fi
file="${1:-BENCH_$suite.json}"
[ -z "$check" ] || [ -f "$file" ] || { echo "bench $suite: baseline $file not found" >&2; exit 2; }

fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT

if [ "$suite" = sched ]; then
    go run ./cmd/sovbench -only sched-json > "$fresh"
    awk -f scripts/bench.awk -v suite=sched "$fresh" >&2
    if [ -z "$check" ]; then
        cp "$fresh" "$file"
        echo "wrote $file" >&2
    elif cmp -s "$fresh" "$file"; then
        echo "bench sched: regenerated output is byte-identical to $file" >&2
    else
        echo "bench sched: regenerated output differs from $file (virtual-time results are deterministic; a diff means the scheduler or model changed — regenerate the snapshot if intended):" >&2
        diff "$file" "$fresh" >&2 || true
        exit 1
    fi
    exit 0
fi

go test -run '^$' -bench "$bench" -benchmem -benchtime "$benchtime" -count "$count" . | tee "$fresh" >&2
if [ -n "$check" ]; then
    awk -f scripts/bench.awk -v suite="$suite" -v baseline="$file" "$fresh"
else
    awk -f scripts/bench.awk -v suite="$suite" "$fresh" > "$file"
    echo "wrote $file" >&2
fi
