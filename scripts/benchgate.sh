#!/bin/sh
# benchgate.sh — fail-on-regression gate for the pinned hot-path
# microbenches, compared against a recorded BENCH_<n>.json point.
#
# Usage: sh scripts/benchgate.sh [BASELINE.json]
#
# Runs the bench-sim microbenchmark set and compares every benchmark
# that also appears in the baseline's "microbench" section:
#
#   - allocs/op must not exceed the baseline's (the zero-alloc
#     invariants can never regress, on any machine), and
#   - ns/op must stay under BENCH_GATE_FACTOR × the baseline's
#     (default 2.0 — wide enough to absorb runner-to-runner variance,
#     tight enough to catch a hot path falling off its fast path).
#
# Benchmarks not present in the baseline (newly added ones) are listed
# but not gated; they start gating once the next BENCH_<n>.json records
# them. Baseline entries that no benchmark of the run matches (deleted
# or renamed ones, or ones BENCH_GATE_PATTERN skips) are listed with a
# count, so a gate that shrinks says so.
#
# Knobs (environment):
#   BENCH_GATE_FACTOR   ns/op regression multiplier (default: 2.0)
#   BENCH_GATE_PATTERN  -bench regexp (default: .)
#   BENCH_GATE_TIME     -benchtime (default: 1s)
set -eu

cd "$(dirname "$0")/.."

BASE="${1:-}"
if [ -z "$BASE" ]; then
    n=0
    while [ -e "BENCH_$((n + 1)).json" ]; do n=$((n + 1)); done
    BASE="BENCH_${n}.json"
fi
[ -e "$BASE" ] || { echo "benchgate: baseline $BASE not found" >&2; exit 2; }

TMP_BENCH="$(mktemp)"
trap 'rm -f "$TMP_BENCH"' EXIT

echo "benchgate: running microbenchmarks (baseline $BASE)" >&2
go test -run '^$' -bench "${BENCH_GATE_PATTERN:-.}" -benchmem \
    -benchtime "${BENCH_GATE_TIME:-1s}" \
    ./internal/sim/ ./internal/metrics/ ./internal/wheel/ ./internal/serve/ \
    ./internal/server/ ./internal/workload/ ./internal/disk/ \
    ./internal/mems/ ./internal/bank/ | tee -a "$TMP_BENCH" >&2

awk -v base="$BASE" -v factor="${BENCH_GATE_FACTOR:-2.0}" '
    BEGIN {
        # The baseline microbench entries are one JSON object per line,
        # exactly as bench.sh printf-ed them.
        while ((getline line < base) > 0) {
            if (line !~ /"ns_per_op"/) continue
            name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
            ns = line; sub(/.*"ns_per_op": /, "", ns); sub(/,.*/, "", ns)
            al = line; sub(/.*"allocs_per_op": /, "", al); sub(/[,}].*/, "", al)
            base_ns[name] = ns + 0
            base_allocs[name] = al + 0
            base_order[++nbase] = name
        }
        close(base)
    }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ran[name] = 1
        ns = ""; allocs = ""
        for (i = 2; i < NF; i++) {
            if ($(i + 1) == "ns/op") ns = $i + 0
            if ($(i + 1) == "allocs/op") allocs = $i + 0
        }
        if (!(name in base_ns)) {
            printf("benchgate: %-44s %12.1f ns/op %6d allocs/op  (new, not gated)\n", name, ns, allocs)
            next
        }
        gated++
        status = "ok"
        if (allocs > base_allocs[name]) {
            printf("benchgate: FAIL %-39s %d allocs/op, baseline %d\n", name, allocs, base_allocs[name])
            fail = 1; status = "FAIL"
        }
        if (base_ns[name] > 0 && ns > factor * base_ns[name]) {
            printf("benchgate: FAIL %-39s %.1f ns/op, baseline %.1f (limit %.1f×)\n", name, ns, base_ns[name], factor)
            fail = 1; status = "FAIL"
        }
        if (status == "ok")
            printf("benchgate: %-44s %12.1f ns/op vs %.1f baseline  ok\n", name, ns, base_ns[name])
    }
    END {
        for (i = 1; i <= nbase; i++) {
            if (base_order[i] in ran) continue
            printf("benchgate: %-44s in the baseline, no such benchmark ran (not gated)\n", base_order[i])
            unmatched++
        }
        if (unmatched) printf("benchgate: %d of %d baseline entries not gated: no benchmark ran under their names\n", unmatched, nbase)
        if (gated == 0) { print "benchgate: no gated benchmarks matched the baseline" > "/dev/stderr"; exit 2 }
        printf("benchgate: %d benchmarks gated against %s\n", gated, base)
        exit fail
    }
' "$TMP_BENCH"
