package sim

import (
	"testing"
	"time"

	"memstream/internal/allocgate"
)

// The kernel microbenchmarks exercise the steady-state shapes every
// simulation run is built from: schedule+fire churn (device completions)
// and schedule+cancel churn (a chain set re-arming its entry).
// scripts/bench.sh records them into BENCH_<n>.json and CI runs
// benchstat old-vs-new on them, so keep names stable.

// zeroAllocBenchmarks is the kernel's per-event work, which every
// simulated IO and cycle pays: a warm calendar schedules, fires and
// cancels without touching the heap.
var zeroAllocBenchmarks = []func(*testing.B){
	BenchmarkScheduleFire, BenchmarkScheduleArgFire, BenchmarkScheduleCancel,
}

// TestHotPathZeroAllocs holds every benchmark in zeroAllocBenchmarks to
// 0 allocs/op over a thousand events.
func TestHotPathZeroAllocs(t *testing.T) { allocgate.Check(t, 1000, zeroAllocBenchmarks...) }

// BenchmarkScheduleFire measures steady-state schedule+fire churn with a
// bounded calendar: each fired event schedules its successor, the shape of
// a device completion chain. The target is 0 allocs/op.
func BenchmarkScheduleFire(b *testing.B) {
	var eng Engine
	n := 0
	var next func()
	next = func() {
		n++
		if n < b.N {
			schedule(&eng, time.Microsecond, next)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	schedule(&eng, 0, next)
	eng.Run()
	if n != b.N {
		b.Fatalf("fired %d, want %d", n, b.N)
	}
}

// BenchmarkScheduleArgFire measures the zero-closure path: a static
// callback plus a pointer argument, the shape of a cycle loop's firing.
func BenchmarkScheduleArgFire(b *testing.B) {
	var eng Engine
	type state struct {
		eng *Engine
		n   int
		max int
	}
	st := &state{eng: &eng, max: b.N}
	var next func(any)
	next = func(arg any) {
		s := arg.(*state)
		s.n++
		if s.n < s.max {
			s.eng.ScheduleArg(time.Microsecond, next, s)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.ScheduleArg(0, next, st)
	eng.Run()
	if st.n != b.N {
		b.Fatalf("fired %d, want %d", st.n, b.N)
	}
}

// BenchmarkScheduleCancel measures schedule-then-cancel before firing.
// The new entry is the calendar's earliest, so both halves touch only its
// tail and stay O(1) and allocation-free, however many later events stand
// behind it.
func BenchmarkScheduleCancel(b *testing.B) {
	var eng Engine
	// A standing population of later events keeps the calendar non-trivial.
	for i := 0; i < 64; i++ {
		schedule(&eng, time.Hour, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := schedule(&eng, time.Minute, func() {})
		ev.Cancel()
	}
	b.StopTimer()
	eng.RunUntil(MaxTime)
}
