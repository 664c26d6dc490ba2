package sim

import (
	"testing"
	"time"
)

// The kernel microbenchmarks exercise the steady-state shapes every
// simulation run is built from: schedule+fire churn (device completions)
// and schedule+cancel churn (deadline timers that usually don't fire).
// scripts/bench.sh records them into BENCH_<n>.json and CI runs
// benchstat old-vs-new on them, so keep names stable.

// BenchmarkScheduleFire measures steady-state schedule+fire churn with a
// bounded calendar: each fired event schedules its successor, the shape of
// a device completion chain. The target is ~0 allocs/op.
func BenchmarkScheduleFire(b *testing.B) {
	var eng Engine
	n := 0
	var next func()
	next = func() {
		n++
		if n < b.N {
			eng.Schedule(time.Microsecond, next)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Schedule(0, next)
	eng.Run()
	if n != b.N {
		b.Fatalf("fired %d, want %d", n, b.N)
	}
}

// BenchmarkScheduleArgFire measures the zero-closure fast path: a static
// callback plus a pointer argument, the shape of chain/Server completions.
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

// BenchmarkScheduleFireFanout keeps a deep calendar (1024 pending events)
// in steady state, stressing the heap's sift paths rather than the
// single-element fast case.
func BenchmarkScheduleFireFanout(b *testing.B) {
	var eng Engine
	const depth = 1024
	fired := 0
	var next func()
	next = func() {
		fired++
		if fired+eng.Pending() < b.N {
			// Replace the fired event, jittering the delay so the heap
			// actually reorders (a constant delay degenerates to FIFO).
			eng.Schedule(time.Duration(1+fired%7)*time.Microsecond, next)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < depth && i < b.N; i++ {
		eng.Schedule(time.Duration(1+i%7)*time.Microsecond, next)
	}
	eng.Run()
	b.StopTimer()
	if fired == 0 {
		b.Fatal("no events fired")
	}
}

// BenchmarkScheduleCancel measures the deadline-timer shape: schedule an
// event, then cancel it before it fires. With tombstone cancellation both
// halves must be O(1) amortized and allocation-free in steady state (the
// calendar stays bounded via dead-entry compaction).
func BenchmarkScheduleCancel(b *testing.B) {
	var eng Engine
	// A standing population of events keeps the calendar non-trivial.
	for i := 0; i < 64; i++ {
		eng.Schedule(time.Hour, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := eng.Schedule(time.Minute, func() {})
		ev.Cancel()
	}
	b.StopTimer()
	eng.RunUntil(MaxTime)
}

// BenchmarkScheduleFireDeepCalendar is the buffered pipeline's calendar
// shape: one self-rescheduling completion chain running over 512 parked
// far-future entries (the rig schedules every cycle of a run up-front).
// Pop-then-push drags a parked leaf down the whole tree and sifts the
// successor back up it on every event; replace-top settles the successor
// at the root.
func BenchmarkScheduleFireDeepCalendar(b *testing.B) {
	var eng Engine
	for i := 0; i < 512; i++ {
		eng.Schedule(time.Duration(1000+i)*time.Hour, func() {})
	}
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
	eng.RunUntil(time.Hour)
	b.StopTimer()
	if st.n != b.N {
		b.Fatalf("fired %d, want %d", st.n, b.N)
	}
}
