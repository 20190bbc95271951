#!/bin/sh
# bench_quant.sh — run BenchmarkQuantSpeedup and emit a machine-readable
# snapshot as BENCH_quant.json: for every perception kernel with a
# fixed-point twin (fused conv, fused FC, ISP pixel chain, stereo block
# match, end-to-end detection), the float32 and int8 ns/op, the speedup
# ratio, and the int8 path's allocs/op (the zero-steady-state-allocation
# contract, DESIGN.md §8). Kernels without a float32 twin (the batched
# detector) record only their int8 figures.
#
# Usage:
#   scripts/bench_quant.sh [output.json]
#   scripts/bench_quant.sh --check [baseline.json]
#
# Snapshot mode regenerates the JSON wholesale. Check mode is the
# regression gate: it re-runs the int8 benches (best of three, to shave
# scheduler noise) and fails if any kernel is more than 10% slower than the
# committed baseline, or if a kernel's steady-state allocs/op grew.
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

go test -run '^$' -bench 'BenchmarkQuantSpeedup' -benchmem -benchtime 500ms -count "$count" . | tee "$raw" >&2

# parse_bench reduces the raw `go test -bench` output to
# "kernel variant ns allocs" lines, keeping the minimum ns/op across
# repeated -count runs.
parse_bench() {
    awk '
    /^BenchmarkQuantSpeedup\// {
        name = $1
        sub(/^BenchmarkQuantSpeedup\//, "", name)
        sub(/-[0-9]+$/, "", name)
        split(name, parts, "/")
        key = parts[1] SUBSEP parts[2]
        delete m
        for (i = 3; i < NF; i += 2) m[$(i + 1)] = $i
        if (!(key in ns) || m["ns/op"] + 0 < ns[key] + 0) ns[key] = m["ns/op"]
        al[key] = m["allocs/op"]
        if (!(key in seen)) { order[++n] = key; seen[key] = 1 }
    }
    END {
        for (i = 1; i <= n; i++) {
            split(order[i], kv, SUBSEP)
            print kv[1], kv[2], ns[order[i]], al[order[i]]
        }
    }
    ' "$1"
}

if [ "$mode" = "check" ]; then
    baseline="${1:-BENCH_quant.json}"
    [ -f "$baseline" ] || { echo "bench_quant: baseline $baseline not found" >&2; exit 2; }
    parse_bench "$raw" | awk -v baseline="$baseline" '
    BEGIN {
        while ((getline line < baseline) > 0) {
            if (line !~ /"kernel"/) continue
            k = line; sub(/.*"kernel": *"/, "", k); sub(/".*/, "", k)
            if (line ~ /"int8_ns_per_op"/) {
                v = line; sub(/.*"int8_ns_per_op": */, "", v); sub(/[,}].*/, "", v)
                base_ns[k] = v + 0
            }
            if (line ~ /"int8_allocs_per_op"/) {
                v = line; sub(/.*"int8_allocs_per_op": */, "", v); sub(/[,}].*/, "", v)
                base_al[k] = v + 0
            }
        }
    }
    $2 == "int8" {
        k = $1; ns = $3 + 0; al = $4 + 0
        if (!(k in base_ns)) {
            printf "  %-14s %12.0f ns/op  (no baseline; informational)\n", k, ns
            next
        }
        ratio = ns / base_ns[k]
        status = "ok"
        if (ratio > 1.10) { status = "REGRESSION"; bad++ }
        if (al > base_al[k]) { status = status " ALLOC-REGRESSION"; bad++ }
        printf "  %-14s %12.0f ns/op vs baseline %12.0f  (%+5.1f%%, allocs %d vs %d)  %s\n",
            k, ns, base_ns[k], (ratio - 1) * 100, al, base_al[k], status
    }
    END {
        if (bad) { print "bench_quant: " bad " regression(s) vs " baseline; exit 1 }
        print "bench_quant: all kernels within 10% of " baseline
    }
    '
    exit $?
fi

out="${1:-BENCH_quant.json}"
cpu="$(awk '/^cpu:/ { sub(/^cpu: */, ""); print; exit }' "$raw")"
procs="$(awk '/^BenchmarkQuantSpeedup\// { if (match($1, /-[0-9]+$/)) { print substr($1, RSTART + 1); exit } }' "$raw")"
parse_bench "$raw" | awk -v cpu="$cpu" -v procs="${procs:-1}" '
{
    kernel = $1; variant = $2
    if (!(kernel in seen)) { order[++nk] = kernel; seen[kernel] = 1 }
    ns[kernel, variant] = $3
    al[kernel, variant] = $4
}
END {
    printf "{\n  \"benchmark\": \"BenchmarkQuantSpeedup\",\n  \"results\": [\n"
    for (k = 1; k <= nk; k++) {
        kr = order[k]
        f = ns[kr, "float32"]; q = ns[kr, "int8"]
        if (f != "")
            printf "%s    {\"kernel\": \"%s\", \"float32_ns_per_op\": %s, \"int8_ns_per_op\": %s, \"speedup\": %.2f, \"int8_allocs_per_op\": %s}",
                (k > 1 ? ",\n" : ""), kr, f, q, f / q, al[kr, "int8"]
        else
            printf "%s    {\"kernel\": \"%s\", \"int8_ns_per_op\": %s, \"int8_allocs_per_op\": %s}",
                (k > 1 ? ",\n" : ""), kr, q, al[kr, "int8"]
    }
    printf "\n  ],\n  \"cpu\": \"%s\",\n  \"num_cpu\": %s\n}\n", cpu, procs
}
' > "$out"

echo "wrote $out" >&2
