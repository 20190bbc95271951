# bench.awk — the reading half of scripts/bench.sh: one parser, one baseline
# reader, one comparator and one emitter for every BENCH_<suite>.json.
#
#   awk -f scripts/bench.awk -v suite=<quant|fleet|cloud> [-v baseline=FILE] raw.txt
#   awk -f scripts/bench.awk -v suite=sched sched.json
#
# For the wall-clock suites the input is raw `go test -bench` output. Each
# benchmark line becomes a row: its id (the name less the suite's prefix
# and the -GOMAXPROCS suffix), ns/op, the primary metric and one auxiliary
# column. Repeated -count runs of an id collapse to the run with the best
# primary; the auxiliary column is the last run's. Without `baseline` the
# rows are printed as the suite's JSON snapshot; with it every row is
# compared to the committed snapshot and the exit status is 1 if a gated
# row regressed. For `sched` the input is `sovbench -only sched-json` output
# and the two acceptance invariants of DESIGN.md §13 are asserted on it.

BEGIN {
    tol = 0.10 # a gated row's primary may be this much worse than the baseline
    # Per suite: name prefix; unit(s) of the primary metric (a row reports one
    # of them) and whether lower (+1) or higher (-1) is better; unit(s) of the
    # auxiliary column and the factor it may grow by; which row ids are gated
    # (the others are informational); the snapshot's primary and auxiliary
    # field names.
    if (suite == "quant") {
        prefix = "BenchmarkQuantSpeedup/"; pri = "ns/op"; sign = 1
        aux = "allocs/op"; auxname = "allocs"; auxtol = 1; gate = "/int8$"
        jpri = "int8_ns_per_op"; jaux = "int8_allocs_per_op"
    } else if (suite == "fleet") {
        # Multi-worker rows are not gated: on a small host the fan-out's
        # workers contend with the measurement for the same cores.
        prefix = "BenchmarkFleetThroughput/"; pri = "veh_sec/sec"; sign = -1
        aux = "allocs/op"; auxname = "allocs"; auxtol = 1; gate = "/w1$"
        jpri = "vehicles_per_sec"; jaux = "allocs_per_epoch"
    } else if (suite == "cloud") {
        # Write amp growing means compaction rewrites more bytes per ingested
        # byte, read amp that scans touch more run bytes per result byte.
        prefix = "BenchmarkTelemetry"; pri = "events/sec rows/sec gets/sec"; sign = -1
        aux = "write_amp read_amp blocks/get"; auxname = "amp"; auxtol = 1.05; gate = "."
        jpri = "throughput_per_sec"; jaux = "amplification"
    }
}

# field returns the value of "name" in one line of JSON, unquoted.
function field(line, name,    v) {
    if (!match(line, "\"" name "\": *")) return ""
    v = substr(line, RSTART + RLENGTH)
    if (v ~ /^"/) { v = substr(v, 2); sub(/".*/, "", v) } else sub(/[,}].*/, "", v)
    return v
}

# total sums the metrics of the current line whose unit is listed in units.
function total(units,    u, i, k, s) {
    k = split(units, u, " ")
    for (i = 1; i <= k; i++) s += m[u[i]]
    return s + 0
}

/^cpu:/ && cpu == "" { cpu = $0; sub(/^cpu: */, "", cpu) }

prefix != "" && index($0, prefix) == 1 {
    id = substr($1, length(prefix) + 1)
    if (match(id, /-[0-9]+$/)) {
        if (procs == "") procs = substr(id, RSTART + 1)
        id = substr(id, 1, RSTART - 1)
    }
    delete m
    for (i = 3; i < NF; i += 2) m[$(i + 1)] = $i
    v = total(pri)
    extra[id] = total(aux)
    if (!(id in best)) order[++n] = id
    else if (sign * (v - best[id]) >= 0) next
    best[id] = v; ns[id] = m["ns/op"]
}

suite == "sched" && /"name":/ {
    name = field($0, "name"); p99 = field($0, "p99_ms")
    if (name ~ /^static/ && (static == "" || p99 + 0 < static + 0)) { static = p99; staticname = name }
    if (name == "online") online = p99
}
suite == "sched" && /"delta_pct":/ { delta = field($0, "delta_pct") }

# rowid maps one "results" line of a snapshot to the id of the bench row it
# is compared with ("" for any other line).
function rowid(line) {
    if (suite == "quant") return line ~ /"kernel"/ ? field(line, "kernel") "/int8" : ""
    if (suite == "fleet") return line ~ /"vehicles"/ ? "v" field(line, "vehicles") "/w" field(line, "workers") : ""
    return line ~ /"name"/ ? field(line, "name") : ""
}

# jsonrow renders one row in the suite's snapshot schema ("" for a row that
# is folded into another: quant's float32 twin of an int8 kernel).
function jsonrow(id,    k, f, p) {
    if (suite == "quant") {
        k = id
        if (!sub(/\/int8$/, "", k)) return ""
        f = ns[k "/float32"]
        if (f == "") return sprintf("{\"kernel\": \"%s\", \"int8_ns_per_op\": %s, \"int8_allocs_per_op\": %s}", k, ns[id], extra[id])
        return sprintf("{\"kernel\": \"%s\", \"float32_ns_per_op\": %s, \"int8_ns_per_op\": %s, \"speedup\": %.2f, \"int8_allocs_per_op\": %s}", k, f, ns[id], f / ns[id], extra[id])
    }
    if (suite == "fleet") {
        split(substr(id, 2), p, "/w")
        return sprintf("{\"vehicles\": %s, \"workers\": %s, \"ns_per_epoch\": %s, \"vehicles_per_sec\": %s, \"allocs_per_epoch\": %s}", p[1], p[2], ns[id], best[id], extra[id])
    }
    return sprintf("{\"name\": \"%s\", \"ns_per_op\": %s, \"throughput_per_sec\": %s, \"amplification\": %s}", id, ns[id], best[id], extra[id])
}

function emit(    i, row, sep, title) {
    title = prefix # the family the rows came from: "Name" or "Name*"
    if (!sub(/\/$/, "", title)) title = title "*"
    printf "{\n  \"benchmark\": \"%s\",\n  \"results\": [\n", title
    for (i = 1; i <= n; i++) {
        row = jsonrow(order[i])
        if (row == "") continue
        printf "%s    %s", sep, row
        sep = ",\n"
    }
    printf "\n  ],\n  \"cpu\": \"%s\",\n  \"num_cpu\": %s\n}\n", cpu, procs == "" ? 1 : procs
}

# check prints one verdict per row and returns the number of regressions.
function check(    line, r, i, id, d, status, bad) {
    while ((r = (getline line < baseline)) > 0) {
        id = rowid(line)
        if (id == "") continue
        base[id] = field(line, jpri) + 0; baseaux[id] = field(line, jaux) + 0
    }
    if (r < 0) { print "bench " suite ": cannot read baseline " baseline > "/dev/stderr"; exit 2 }
    printf "bench %s: %s (%s is better) within %d%% of the baseline, %s at most x%s, on rows matching %s\n",
        suite, pri, (sign > 0 ? "lower" : "higher"), tol * 100, auxname, auxtol, gate
    for (i = 1; i <= n; i++) {
        id = order[i]
        if (!(id in base)) { printf "  %-20s %12s  (not in baseline; informational)\n", id, best[id]; continue }
        d = best[id] / base[id] - 1
        status = "ok"
        if (id !~ gate) status = "informational (not gated)"
        else {
            if (sign * d > tol) { status = "REGRESSION"; bad++ }
            if (extra[id] > baseaux[id] * auxtol) { status = status " " toupper(auxname) "-REGRESSION"; bad++ }
        }
        printf "  %-20s %12s vs baseline %12s  (%+5.1f%%, %s %s vs %s)  %s\n",
            id, best[id], base[id], d * 100, auxname, extra[id], baseaux[id], status
    }
    return bad + 0
}

END {
    if (suite == "sched") {
        if (online == "" || static == "" || delta == "") { print "bench sched: rows missing from sovbench output"; exit 1 }
        if (online + 0 >= static + 0) {
            printf "bench sched: online p99 %.1f ms does not beat best static (%s, %.1f ms)\n", online, staticname, static; exit 1
        }
        if (delta + 0 > 2) { printf "bench sched: steady p50 overhead %+.2f%% exceeds the 2%% budget\n", delta; exit 1 }
        printf "bench sched: online p99 %.1f ms beats best static (%s, %.1f ms); steady overhead %+.3f%%\n", online, staticname, static, delta
        exit 0
    }
    if (!n) { print "bench " suite ": no benchmark rows in the input" > "/dev/stderr"; exit 1 }
    if (baseline == "") { emit(); exit 0 }
    bad = check()
    if (bad) { print "bench " suite ": " bad " regression(s) vs " baseline; exit 1 }
    print "bench " suite ": every gated row within tolerance of " baseline
}
