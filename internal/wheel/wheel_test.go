package wheel

import (
	"fmt"
	"math/rand"
	"testing"

	"memstream/internal/allocgate"
)

// fireAll advances to `to` one call and returns the Data values fired.
func fireAll(w *Wheel, to int64) []int {
	var out []int
	for _, t := range w.Advance(to, nil) {
		out = append(out, t.Data.(int))
	}
	return out
}

func TestArmFiresAtExactTick(t *testing.T) {
	w := New()
	tm := &Timer{Data: 1}
	w.Arm(tm, 5)
	if got := w.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	if fired := fireAll(w, 4); len(fired) != 0 {
		t.Fatalf("fired %v before the deadline", fired)
	}
	if fired := fireAll(w, 5); len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("Advance(5) fired %v, want [1]", fired)
	}
	if got := w.Len(); got != 0 {
		t.Fatalf("Len = %d after fire, want 0", got)
	}
	if got := w.Current(); got != 5 {
		t.Fatalf("Current = %d, want 5", got)
	}
}

// A deadline at or before the wheel clock clamps to the next tick: a
// zero-delay Arm fires on the next Advance, never synchronously and
// never lost.
func TestZeroDelayArmFiresNextTick(t *testing.T) {
	w := New()
	w.Advance(10, nil)
	for _, when := range []int64{10, 3, -7} {
		tm := &Timer{Data: int(when)}
		w.Arm(tm, when)
		if got := w.Len(); got != 1 {
			t.Fatalf("Arm(%d): Len = %d, want 1", when, got)
		}
		if fired := fireAll(w, w.Current()+1); len(fired) != 1 {
			t.Fatalf("Arm(%d): next tick fired %v, want exactly it", when, fired)
		}
	}
}

func TestReArmMovesDeadline(t *testing.T) {
	w := New()
	tm := &Timer{Data: 1}
	w.Arm(tm, 5)
	w.Arm(tm, 9) // move, not duplicate
	if got := w.Len(); got != 1 {
		t.Fatalf("Len after re-arm = %d, want 1", got)
	}
	if fired := fireAll(w, 5); len(fired) != 0 {
		t.Fatalf("old deadline fired after re-arm: %v", fired)
	}
	if fired := fireAll(w, 9); len(fired) != 1 {
		t.Fatalf("moved deadline did not fire: %v", fired)
	}
}

// Deadlines inside the first lap of the ring, a lap or more out, and
// thousands of laps out all fire at exactly their tick, advancing
// through the tick before each deadline and then the deadline itself:
// a far timer sits in its slot through every earlier lap. A deadline
// past 2^26 ticks (78 days at a 100 ms quantum) still fires
// exactly under a single huge Advance.
func TestFarDeadlinesFireExactly(t *testing.T) {
	deadlines := []int64{
		1, 255, // first lap
		256, 300, 16383,
		16384, 1 << 19,
		1 << 20, 1<<22 + 12345,
	}
	w := New()
	timers := make([]*Timer, len(deadlines))
	for i, when := range deadlines {
		timers[i] = &Timer{Data: i}
		w.Arm(timers[i], when)
	}
	fired := make(map[int]int64)
	var due []*Timer
	for tick := int64(1); tick <= 1<<22+12345; tick++ {
		due = w.Advance(tick, due[:0])
		for _, tm := range due {
			fired[tm.Data.(int)] = tick
		}
		if len(fired) == len(deadlines) {
			break
		}
		// Skip empty stretches to keep the test fast, but always land
		// on each deadline and the tick just before it.
		next := int64(1 << 40)
		for i, when := range deadlines {
			if _, done := fired[i]; !done && when > tick && when < next {
				next = when
			}
		}
		if next < 1<<40 && next-1 > tick {
			tick = next - 2 // loop ++ lands on next-1, then next
		}
	}
	for i, when := range deadlines {
		if fired[i] != when {
			t.Errorf("timer %d: fired at tick %d, want %d", i, fired[i], when)
		}
	}

	far := &Timer{Data: 99}
	w2 := New()
	w2.Arm(far, 1<<26+77)
	due = w2.Advance(1<<26+76, due[:0])
	if len(due) != 0 {
		t.Fatalf("far timer fired early")
	}
	due = w2.Advance(1<<26+77, due[:0])
	if len(due) != 1 || due[0].Data.(int) != 99 {
		t.Fatalf("far timer did not fire at its tick: %v", due)
	}
}

// One big Advance collects everything due in between, in one batch.
func TestBigJumpCollectsAllDue(t *testing.T) {
	w := New()
	const n = 1000
	for i := 0; i < n; i++ {
		w.Arm(&Timer{Data: i}, int64(1+i*7%5000))
	}
	due := w.Advance(5000, nil)
	if len(due) != n {
		t.Fatalf("Advance(5000) fired %d timers, want %d", len(due), n)
	}
	if got := w.Len(); got != 0 {
		t.Fatalf("Len = %d after full drain, want 0", got)
	}
}

func TestDrainAll(t *testing.T) {
	w := New()
	for i := 0; i < 100; i++ {
		w.Arm(&Timer{Data: i}, int64(1+i*1009))
	}
	due := w.DrainAll(nil)
	if len(due) != 100 {
		t.Fatalf("DrainAll returned %d timers, want 100", len(due))
	}
	if got := w.Len(); got != 0 {
		t.Fatalf("Len = %d after DrainAll, want 0", got)
	}
	if fired := fireAll(w, 1<<21); len(fired) != 0 {
		t.Fatalf("drained timers fired later: %d", len(fired))
	}
}

// Advance reuses the caller's scratch without allocating in steady
// state, and the armed count survives a non-empty scratch prefix.
func TestAdvanceScratchReuseAndCount(t *testing.T) {
	w := New()
	a, b := &Timer{Data: 1}, &Timer{Data: 2}
	w.Arm(a, 1)
	w.Arm(b, 2)
	scratch := make([]*Timer, 0, 8)
	scratch = w.Advance(1, scratch)
	if len(scratch) != 1 {
		t.Fatalf("first advance fired %d, want 1", len(scratch))
	}
	// Deliberately keep the fired entry in the scratch: the armed count
	// must only drop by what THIS call collected.
	scratch = w.Advance(2, scratch)
	if len(scratch) != 2 {
		t.Fatalf("cumulative scratch = %d, want 2", len(scratch))
	}
	if got := w.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
}

// refWheel is the naive reference: a map from each armed timer to its
// deadline, under the same clamp rule as Arm, and a clock.
type refWheel struct {
	current int64
	armed   map[*Timer]int64
}

func (r *refWheel) arm(t *Timer, when int64) { r.armed[t] = max(when, r.current+1) }

// advance removes and returns the set of timers due by tick to.
func (r *refWheel) advance(to int64) map[*Timer]bool {
	due := map[*Timer]bool{}
	for t, when := range r.armed {
		if when <= to {
			due[t] = true
			delete(r.armed, t)
		}
	}
	r.current = max(r.current, to)
	return due
}

// drain removes and returns every armed timer; the clock stays.
func (r *refWheel) drain() map[*Timer]bool {
	due := map[*Timer]bool{}
	for t := range r.armed {
		due[t] = true
	}
	clear(r.armed)
	return due
}

// deadline draws one Arm deadline: negative, zero, a few ticks, about a
// thousand, 2^20 and beyond 2^26 ticks out.
func deadline(rng *rand.Rand, cur int64) int64 {
	switch rng.Intn(8) {
	case 0:
		return -1 - rng.Int63n(1000)
	case 1:
		return 0
	case 2:
		return cur - rng.Int63n(3) // at or just behind the clock
	case 3:
		return cur + 1 + rng.Int63n(300)
	case 4:
		return cur + 900 + rng.Int63n(200)
	case 5:
		return cur + 1<<20 + rng.Int63n(512) - 256
	case 6:
		return cur + 1<<26 + rng.Int63n(1<<10)
	default:
		return cur + 1 + rng.Int63n(8)
	}
}

// step draws one Advance target: one tick, a few, a jump of at least a
// lap, or a landing within two ticks of the nearest pending deadline,
// so far timers do fire and are checked on both sides of their tick.
func step(rng *rand.Rand, r *refWheel) int64 {
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		return r.current + 1
	case 4, 5, 6:
		return r.current + 2 + rng.Int63n(6)
	case 7:
		return r.current + 256 + rng.Int63n(3000)
	case 8:
		return r.current - rng.Int63n(3) // no-op: the clock never runs back
	default:
		next := int64(-1)
		for _, when := range r.armed {
			if next < 0 || when < next {
				next = when
			}
		}
		if next < 0 {
			return r.current + 1
		}
		return next + rng.Int63n(5) - 2
	}
}

// Random programs of fresh Arms, re-Arms of armed timers, Advances of
// every size and occasional DrainAlls, replayed against the map
// reference: after every call the fired set, Len and Current must match
// it exactly.
func TestRandomProgramsMatchMapReference(t *testing.T) {
	const (
		seeds  = 20
		ops    = 3000
		timers = 48
	)
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := New()
			ref := &refWheel{armed: map[*Timer]int64{}}
			pool := make([]*Timer, timers)
			for i := range pool {
				pool[i] = &Timer{Data: i}
			}
			var due []*Timer
			for op := 0; op < ops; op++ {
				var want map[*Timer]bool // the reference's fired set, if the call fires
				desc := ""
				switch k := rng.Intn(20); {
				case k < 9: // Arm: a fresh timer or a re-Arm of an armed one
					tm := pool[rng.Intn(timers)]
					when := deadline(rng, ref.current)
					_, rearm := ref.armed[tm]
					desc = fmt.Sprintf("Arm(timer %d, %d) rearm=%v at %d", tm.Data, when, rearm, ref.current)
					w.Arm(tm, when)
					ref.arm(tm, when)
				case k < 19:
					to := step(rng, ref)
					desc = fmt.Sprintf("Advance(%d) from %d", to, ref.current)
					due = w.Advance(to, due[:0])
					want = ref.advance(to)
				default:
					desc = "DrainAll"
					due = w.DrainAll(due[:0])
					want = ref.drain()
				}
				if want != nil {
					fired := map[*Timer]bool{}
					for _, tm := range due {
						if fired[tm] {
							t.Fatalf("op %d %s: timer %d fired twice", op, desc, tm.Data)
						}
						fired[tm] = true
					}
					for tm := range want {
						if !fired[tm] {
							t.Fatalf("op %d %s: timer %d not fired, deadline passed", op, desc, tm.Data)
						}
					}
					for tm := range fired {
						if !want[tm] {
							t.Fatalf("op %d %s: timer %d fired early", op, desc, tm.Data)
						}
					}
				}
				if w.Len() != len(ref.armed) {
					t.Fatalf("op %d %s: Len = %d, reference %d", op, desc, w.Len(), len(ref.armed))
				}
				if w.Current() != ref.current {
					t.Fatalf("op %d %s: Current = %d, reference %d", op, desc, w.Current(), ref.current)
				}
			}
		})
	}
}

// zeroAllocBenchmarks is the wheel's arm/advance cycle, which every
// stream-wake of the live plane goes through.
var zeroAllocBenchmarks = []func(*testing.B){BenchmarkArmAdvance}

// TestHotPathZeroAllocs holds every benchmark in zeroAllocBenchmarks to
// 0 allocs/op over a thousand ticks, past every one of the 64 delays.
func TestHotPathZeroAllocs(t *testing.T) { allocgate.Check(t, 1000, zeroAllocBenchmarks...) }

// BenchmarkArmAdvance is one tick: advance to it, then re-arm each due
// timer at its own delay of 1 to 64 ticks.
func BenchmarkArmAdvance(b *testing.B) {
	w := New()
	timers := make([]*Timer, 1024)
	for i := range timers {
		timers[i] = &Timer{Data: i}
		w.Arm(timers[i], int64(1+i%64))
	}
	due := make([]*Timer, 0, 1024)
	tick := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick++
		due = w.Advance(tick, due[:0])
		for _, tm := range due {
			w.Arm(tm, tick+1+int64(tm.Data.(int)%64))
		}
	}
}
