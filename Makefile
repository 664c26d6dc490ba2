# memstream build targets. Stdlib-only Go; no external tools required.

GO ?= go

.PHONY: all build test vet race bench bench-sim bench-record profile profile-scale suite smoke examples fuzz cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the full test suite under the race detector — the parallel
# experiment runner must stay race-clean.
race:
	$(GO) test -race ./...

# bench regenerates every paper artifact as a testing.B benchmark.
bench:
	$(GO) test -bench=. -benchmem ./...

# bench-sim runs the hot-path microbenchmarks — the simulation kernel,
# the lock-free metrics collector, the timer wheel, the serve data
# plane, the rig's cycle walks (direct and buffered), the popularity
# sampler, catalog build and session replay, the disk's C-LOOK batch
# and service model, the sled's service model, the bank, PLAY
# admission and its rate parse — the set CI compares old-vs-new with
# benchstat. The steady-state ones are held to 0 allocs/op by make test:
# each package lists them in its zeroAllocBenchmarks table, which one
# test runs through allocgate.Check.
# BENCH_COUNT>1 gives benchstat samples to work with.
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem -count $(or $(BENCH_COUNT),1) ./internal/sim/ ./internal/metrics/ ./internal/wheel/ ./internal/serve/ ./internal/schedule/ ./internal/server/ ./internal/workload/ ./internal/disk/ ./internal/mems/ ./internal/bank/ ./internal/units/

# bench-record appends one BENCH_<n>.json point to the kernel performance
# trajectory (microbenchmarks + per-experiment events/sec).
bench-record:
	sh scripts/bench.sh

# profile writes cpu/heap pprof artifacts for the three experiments that
# dominate suite wall time — hybrid (about 60 % of a ~0.25 s pass: ten
# 300-stream DES runs, 1.5 M events), then dynamics (~17 %: one streaming
# admission pass per offered load, no DES) and validate (~10 %) — so perf
# work starts from a flame graph: go tool pprof -http=: profiles/cpu.pprof
profile:
	mkdir -p profiles
	$(GO) run ./cmd/memsbench -run 'hybrid|dynamics|validate' \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof -out profiles
	@echo "profiles: profiles/cpu.pprof profiles/mem.pprof"

# profile-scale profiles the sharded scaling scenario — the per-partition
# steady-state hot path (SoA cycle walk, pooled C-LOOK dispatch, event
# kernel) that dominates million-stream runs. Reading workflow in
# EXPERIMENTS.md ("Profiling the scaling hot path").
profile-scale:
	mkdir -p profiles
	$(GO) run ./cmd/memsbench -run shardscale \
		-cpuprofile profiles/scale-cpu.pprof -memprofile profiles/scale-mem.pprof -out profiles
	@echo "profiles: profiles/scale-cpu.pprof profiles/scale-mem.pprof"

# suite writes every table/figure to results/ as text artifacts, run on a
# parallel worker pool, with the per-run metrics document beside them.
suite:
	$(GO) run ./cmd/memsbench -parallel 0 -out results -json results/metrics.json

# smoke runs the memserve↔memsload end-to-end check: load with stalled
# clients, zero leaked admission slots, graceful SIGTERM drain (exit 0).
smoke:
	sh scripts/smoke.sh

# examples runs every examples/* program; each must exit 0 and print
# something on stdout.
examples:
	@for d in examples/*/; do \
		n=$$(basename $$d); \
		out=$$($(GO) run ./examples/$$n) || { echo "examples/$$n failed"; exit 1; }; \
		[ -n "$$out" ] || { echo "examples/$$n printed nothing"; exit 1; }; \
		echo "examples/$$n ok"; \
	done

# fuzz gives each fuzz target a short budget; extend for deeper runs.
# FuzzRequestLine's size-limit inputs are ~1 KB, and minimizing one of
# those would otherwise take the whole budget.
fuzz:
	$(GO) test -fuzz FuzzParseBytes -fuzztime 30s ./internal/units/
	$(GO) test -fuzz FuzzParseRate -fuzztime 30s ./internal/units/
	$(GO) test -fuzz FuzzRequestLine -fuzztime 30s -fuzzminimizetime 2s ./internal/serve/
	$(GO) test -fuzz FuzzControlHandler -fuzztime 30s -fuzzminimizetime 2s ./internal/serve/

# cover runs the suite with coverage profiles and enforces the
# internal/server statement-coverage floor (scripts/cover.sh).
cover:
	sh scripts/cover.sh

clean:
	rm -rf results profiles
