// Package allocgate holds benchmarks to zero allocations per operation
// inside `go test`. A package lists its hot-path benchmarks once, in one
// table, and one test hands the table to Check, which runs each listed
// benchmark for a fixed number of iterations through testing.Benchmark.
// The benchmark is the gate: its setup and loop are written once.
package allocgate

import (
	"flag"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// Check runs each benchmark as a subtest of t, named after the
// benchmark, for n iterations (each sub-benchmark for n), and fails the
// subtest when the benchmark fails, does not run, or reports a nonzero
// allocs/op. That figure is testing's integer one — allocations over
// iterations — so n amortises what happens once per run, such as
// RunParallel's goroutine start or a background goroutine's allocation,
// and must span any periodic work the gate is meant to see. The count is
// process-wide, so a one-off allocation elsewhere in the test binary can
// land in a run; a benchmark that allocates runs once more and fails
// only if it allocates again, as an allocation on its own path does.
//
// testing.Benchmark reads the -test.benchtime flag, so Check sets it to
// n iterations and restores it when done. Benchmark output goes nowhere,
// a failing benchmark's message included: run it with -bench to see it.
// That includes testing's goos/goarch/pkg header, which a process prints
// once, so a -bench run in the same test binary prints its results
// without the header.
func Check(t *testing.T, n int, benchmarks ...func(*testing.B)) {
	t.Helper()
	benchtime := flag.Lookup("test.benchtime")
	if benchtime == nil {
		t.Fatal("no -test.benchtime flag: Check runs only inside go test")
	}
	prev := benchtime.Value.String()
	if err := benchtime.Value.Set(strconv.Itoa(n) + "x"); err != nil {
		t.Fatal(err)
	}
	defer benchtime.Value.Set(prev)

	for _, bench := range benchmarks {
		name := runtime.FuncForPC(reflect.ValueOf(bench).Pointer()).Name()
		name = name[strings.LastIndexByte(name, '.')+1:]
		if !strings.HasPrefix(name, "Benchmark") {
			t.Fatalf("%s is not a Benchmark function", name)
		}
		t.Run(name, func(t *testing.T) {
			failed := false
			run := func() testing.BenchmarkResult {
				return testing.Benchmark(func(b *testing.B) {
					defer func() { failed = b.Failed() }()
					bench(b)
				})
			}
			r := run()
			if !failed && r.AllocsPerOp() != 0 {
				r = run()
			}
			switch {
			case failed || r.N == 0:
				t.Errorf("%s failed or did not run at -benchtime %dx; go test -run '^$' -bench '^%s$' shows why", name, n, name)
			case r.AllocsPerOp() != 0:
				t.Errorf("%s: %d allocs/op at -benchtime %dx, want 0", name, r.AllocsPerOp(), n)
			}
		})
	}
}
