#!/bin/sh
# bench_fleet.sh — run BenchmarkFleetThroughput and emit a machine-readable
# snapshot as BENCH_fleet.json: for every fleet-size × worker-count point,
# the epoch latency, vehicle-seconds of virtual time advanced per wall
# second, and the epoch loop's allocs/op (the zero-steady-state-allocation
# contract holds on the one-worker serial path; multi-worker rows include
# the fan-out's per-call scheduling allocations, DESIGN.md §11).
#
# Usage:
#   scripts/bench_fleet.sh [output.json]
#   scripts/bench_fleet.sh --check [baseline.json]
#
# Snapshot mode regenerates the JSON wholesale. Check mode is the nightly
# regression gate: it re-runs the sweep (best of three) and fails if any
# one-worker point's throughput fell more than 10% below the committed
# baseline, or if the one-worker epoch loop's allocs/op grew. Multi-worker
# points are reported but not gated: on a small host the fan-out's spin
# workers contend for the same cores as the measurement, which makes those
# rows far too noisy to gate on (the w=1 rows carry the substrate cost the
# gate is protecting).
#
# Worker-count scaling is only expressible on a multi-core runner — on a
# single-CPU host every w-column collapses to the serial cost plus fan-out
# overhead — so the JSON records num_cpu next to the numbers.
set -eu

cd "$(dirname "$0")/.."

mode=snapshot
if [ "${1:-}" = "--check" ]; then
    mode=check
    shift
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

count=1
if [ "$mode" = "check" ]; then
    count=3
fi

go test -run '^$' -bench 'BenchmarkFleetThroughput' -benchmem -benchtime 2x -count "$count" . | tee "$raw" >&2

# parse_bench reduces the raw output to "vehicles workers ns veh_sec_per_sec
# allocs" lines, keeping the best (max) throughput across -count runs.
parse_bench() {
    awk '
    /^BenchmarkFleetThroughput\// {
        name = $1
        sub(/^BenchmarkFleetThroughput\/v/, "", name)
        sub(/-[0-9]+$/, "", name)
        split(name, parts, "/w")
        key = parts[1] SUBSEP parts[2]
        delete m
        for (i = 3; i < NF; i += 2) m[$(i + 1)] = $i
        if (!(key in vs) || m["veh_sec/sec"] + 0 > vs[key] + 0) {
            vs[key] = m["veh_sec/sec"]
            ns[key] = m["ns/op"]
        }
        al[key] = m["allocs/op"]
        if (!(key in seen)) { order[++n] = key; seen[key] = 1 }
    }
    END {
        for (i = 1; i <= n; i++) {
            split(order[i], kv, SUBSEP)
            print kv[1], kv[2], ns[order[i]], vs[order[i]], al[order[i]]
        }
    }
    ' "$1"
}

if [ "$mode" = "check" ]; then
    baseline="${1:-BENCH_fleet.json}"
    [ -f "$baseline" ] || { echo "bench_fleet: baseline $baseline not found" >&2; exit 2; }
    parse_bench "$raw" | awk -v baseline="$baseline" '
    BEGIN {
        while ((getline line < baseline) > 0) {
            if (line !~ /"vehicles"/) continue
            v = line; sub(/.*"vehicles": */, "", v); sub(/[,}].*/, "", v)
            w = line; sub(/.*"workers": */, "", w); sub(/[,}].*/, "", w)
            t = line; sub(/.*"vehicles_per_sec": */, "", t); sub(/[,}].*/, "", t)
            a = line; sub(/.*"allocs_per_epoch": */, "", a); sub(/[,}].*/, "", a)
            k = v + 0 SUBSEP w + 0
            base_vs[k] = t + 0
            base_al[k] = a + 0
        }
    }
    {
        k = $1 + 0 SUBSEP $2 + 0; vs = $4 + 0; al = $5 + 0
        label = "v" $1 "/w" $2
        if (!(k in base_vs)) {
            printf "  %-12s %10.0f veh-sec/sec  (no baseline; informational)\n", label, vs
            next
        }
        ratio = vs / base_vs[k]
        status = "ok"
        if ($2 + 0 != 1) status = "informational (not gated)"
        if ($2 + 0 == 1 && ratio < 0.90) { status = "REGRESSION"; bad++ }
        if ($2 + 0 == 1 && al > base_al[k]) { status = status " ALLOC-REGRESSION"; bad++ }
        printf "  %-12s %10.0f veh-sec/sec vs baseline %10.0f  (%+5.1f%%, allocs %d vs %d)  %s\n",
            label, vs, base_vs[k], (ratio - 1) * 100, al, base_al[k], status
    }
    END {
        if (bad) { print "bench_fleet: " bad " regression(s) vs " baseline; exit 1 }
        print "bench_fleet: all points within 10% of " baseline
    }
    '
    exit $?
fi

out="${1:-BENCH_fleet.json}"
cpu="$(awk '/^cpu:/ { sub(/^cpu: */, ""); print; exit }' "$raw")"
procs="$(awk '/^BenchmarkFleetThroughput\// { if (match($1, /-[0-9]+$/)) { print substr($1, RSTART + 1); exit } }' "$raw")"
parse_bench "$raw" | awk -v cpu="$cpu" -v procs="${procs:-1}" '
{
    printf "%s    {\"vehicles\": %s, \"workers\": %s, \"ns_per_epoch\": %s, \"vehicles_per_sec\": %s, \"allocs_per_epoch\": %s}",
        n++ ? ",\n" : "", $1, $2, $3, $4, $5
}
BEGIN { printf "{\n  \"benchmark\": \"BenchmarkFleetThroughput\",\n  \"results\": [\n" }
END   { printf "\n  ],\n  \"cpu\": \"%s\",\n  \"num_cpu\": %s\n}\n", cpu, procs }
' > "$out"

echo "wrote $out" >&2
