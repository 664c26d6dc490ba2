#!/bin/sh
# bench.sh — record one point on the kernel performance trajectory.
#
# Runs the internal/sim microbenchmark suite and a full experiment suite,
# then emits BENCH_<n>.json (n = first unused index, so the checked-in
# files form an append-only trajectory):
#
#   {
#     "schema": "bench/v2",
#     "recorded": "<UTC timestamp>",
#     "go": "<toolchain>",
#     "microbench": [ {"name", "ns_per_op", "bytes_per_op", "allocs_per_op"} ],
#     "experiments": [ {"id", "wall_ns", "events", "events_per_sec"} ],
#     "scaling": [ <memsim -scale docs, one per worker count> ],
#     "pacing": <pacing-scaling/v1 doc from the serve scaling harness>
#   }
#
# The scaling section runs the sharded uniform scenario at each worker
# count in BENCH_SHARDS. The merged counters in every entry are identical
# (determinism contract); events_per_sec is the end-to-end wall rate
# (see DESIGN.md).
#
# The pacing section sweeps live stream populations across both serve
# data planes (goroutine-per-stream vs timer wheel) and records lag
# quantiles, wakeup rates, the largest population each plane sustains
# within the lag-p99 budget, and the wheel/goroutine ratio (see
# TestPacingScalingHarness in internal/serve and EXPERIMENTS.md).
#
# Knobs (environment):
#   BENCH_DIR        output directory (default: repo root)
#   BENCH_PATTERN    -bench regexp for the microbenchmarks (default: .)
#   BENCH_TIME       -benchtime (default: 1s)
#   BENCH_SCALE      -scale stream total for the scaling section (default: 65536)
#   BENCH_SCALE_PER  -scale-per partition size (default: 4096)
#   BENCH_SHARDS     shard counts to sweep, space-separated (default: "1 2 4 8")
#   BENCH_PACING_POPS        population ladder, comma-separated
#                            (default: harness default, up to 100000)
#   BENCH_PACING_MEASURE_MS  per-point measurement window (default: 2000)
set -eu

cd "$(dirname "$0")/.."

OUT_DIR="${BENCH_DIR:-.}"
n=0
while [ -e "$OUT_DIR/BENCH_${n}.json" ]; do n=$((n + 1)); done
OUT="$OUT_DIR/BENCH_${n}.json"

TMP_BENCH="$(mktemp)"
TMP_PERF="$(mktemp)"
TMP_ART="$(mktemp -d)"
trap 'rm -rf "$TMP_BENCH" "$TMP_PERF" "$TMP_ART"' EXIT

echo "bench: sim + metrics + wheel + serve + server + workload + disk + mems + bank microbenchmarks" >&2
go test -run '^$' -bench "${BENCH_PATTERN:-.}" -benchmem \
    -benchtime "${BENCH_TIME:-1s}" \
    ./internal/sim/ ./internal/metrics/ ./internal/wheel/ ./internal/serve/ \
    ./internal/server/ ./internal/workload/ ./internal/disk/ \
    ./internal/mems/ ./internal/bank/ | tee "$TMP_BENCH" >&2

echo "bench: experiment suite (memsbench -perf)" >&2
go run ./cmd/memsbench -parallel 1 -perf "$TMP_PERF" -out "$TMP_ART" >/dev/null

echo "bench: pacing-plane scaling harness (both planes)" >&2
PACING_SCALING_OUT="$TMP_ART/pacing.json" \
PACING_SCALING_POPS="${BENCH_PACING_POPS:-}" \
PACING_SCALING_MEASURE_MS="${BENCH_PACING_MEASURE_MS:-}" \
    go test ./internal/serve/ -run TestPacingScalingHarness -count=1 -timeout 30m -v >&2

SCALE="${BENCH_SCALE:-65536}"
SCALE_PER="${BENCH_SCALE_PER:-4096}"
for shards in ${BENCH_SHARDS:-1 2 4 8}; do
    echo "bench: scaling scenario (${SCALE} streams, shards=${shards})" >&2
    go run ./cmd/memsim -scale "$SCALE" -scale-per "$SCALE_PER" \
        -shards "$shards" -json "$TMP_ART/scale_${shards}.json" >&2
done

{
    printf '{\n'
    printf '  "schema": "bench/v2",\n'
    printf '  "recorded": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "microbench": [\n'
    awk '
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            ns = "null"; bytes = "null"; allocs = "null"
            for (i = 2; i < NF; i++) {
                if ($(i + 1) == "ns/op") ns = $i
                if ($(i + 1) == "B/op") bytes = $i
                if ($(i + 1) == "allocs/op") allocs = $i
            }
            if (count++) printf(",\n")
            printf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bytes, allocs)
        }
        END { printf("\n") }
    ' "$TMP_BENCH"
    printf '  ],\n'
    printf '  "experiments": '
    # Indent the perf array two spaces so the merged document stays readable.
    sed -e '1!s/^/  /' "$TMP_PERF"
    printf '  ,"scaling": [\n'
    first=1
    for shards in ${BENCH_SHARDS:-1 2 4 8}; do
        [ "$first" -eq 1 ] || printf '  ,\n'
        first=0
        sed -e 's/^/  /' "$TMP_ART/scale_${shards}.json"
    done
    printf '  ]\n'
    printf '  ,"pacing": '
    sed -e '1!s/^/  /' "$TMP_ART/pacing.json"
    printf '}\n'
} >"$OUT"

echo "bench: wrote $OUT" >&2
