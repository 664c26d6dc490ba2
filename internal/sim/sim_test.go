package sim

import (
	"math"
	"math/bits"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// runFunc is schedule's static callback: the argument is the closure.
func runFunc(arg any) { arg.(func())() }

// schedule runs fn after delay d. A func() stored in an interface does not
// allocate, so the helper keeps closure-style tests on the one scheduling
// path production uses.
func schedule(eng *Engine, d Time, fn func()) Event { return eng.ScheduleArg(d, runFunc, fn) }

func TestScheduleOrdering(t *testing.T) {
	var eng Engine
	var got []int
	schedule(&eng, 3*time.Millisecond, func() { got = append(got, 3) })
	schedule(&eng, 1*time.Millisecond, func() { got = append(got, 1) })
	schedule(&eng, 2*time.Millisecond, func() { got = append(got, 2) })
	eng.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if eng.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms", eng.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var eng Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		schedule(&eng, time.Millisecond, func() { got = append(got, i) })
	}
	eng.Run()
	if !sort.IntsAreSorted(got) {
		t.Errorf("simultaneous events not FIFO: %v", got)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	var eng Engine
	fired := false
	schedule(&eng, -time.Second, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if eng.Now() != 0 {
		t.Errorf("Now = %v, want 0", eng.Now())
	}
}

func TestCancel(t *testing.T) {
	var eng Engine
	fired := false
	ev := schedule(&eng, time.Millisecond, func() { fired = true })
	ev.Cancel()
	ev.Cancel() // double cancel is a no-op
	eng.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if eng.Executed() != 0 {
		t.Errorf("Executed = %d, want 0", eng.Executed())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	var eng Engine
	var got []int
	schedule(&eng, 1*time.Millisecond, func() { got = append(got, 1) })
	ev := schedule(&eng, 2*time.Millisecond, func() { got = append(got, 2) })
	schedule(&eng, 3*time.Millisecond, func() { got = append(got, 3) })
	ev.Cancel()
	eng.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestRunUntil(t *testing.T) {
	var eng Engine
	var count int
	for i := 1; i <= 5; i++ {
		schedule(&eng, time.Duration(i)*time.Second, func() { count++ })
	}
	eng.RunUntil(3 * time.Second)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if eng.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", eng.Now())
	}
	if eng.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", eng.Pending())
	}
	// RunUntil past all events advances the clock to the deadline.
	eng.RunUntil(10 * time.Second)
	if count != 5 || eng.Now() != 10*time.Second {
		t.Errorf("count=%d Now=%v, want 5, 10s", count, eng.Now())
	}
}

// TestStopDuringRunUntilDoesNotAdvanceClock is the regression test for a
// clock-skew bug: a RunUntil cut short by Stop used to advance the clock
// to the deadline anyway, so a stopped run reported Now() == deadline even
// though events between the last fired event and the deadline never ran.
func TestStopDuringRunUntilDoesNotAdvanceClock(t *testing.T) {
	var eng Engine
	count := 0
	for i := 1; i <= 5; i++ {
		schedule(&eng, time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				eng.Stop()
			}
		})
	}
	eng.RunUntil(10 * time.Second)
	if count != 2 {
		t.Fatalf("count = %d, want 2 (Stop ignored)", count)
	}
	if eng.Now() != 2*time.Second {
		t.Errorf("Now = %v after Stop, want 2s (time of last fired event)", eng.Now())
	}
	// Resuming the run picks up where the stop left off and, completing
	// naturally this time, does advance to the deadline.
	eng.RunUntil(10 * time.Second)
	if count != 5 || eng.Now() != 10*time.Second {
		t.Errorf("after resume: count=%d Now=%v, want 5, 10s", count, eng.Now())
	}
}

func TestStop(t *testing.T) {
	var eng Engine
	count := 0
	for i := 1; i <= 5; i++ {
		schedule(&eng, time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 2 {
				eng.Stop()
			}
		})
	}
	eng.Run()
	if count != 2 {
		t.Errorf("count = %d, want 2 (Stop ignored)", count)
	}
}

func TestEventChaining(t *testing.T) {
	var eng Engine
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			schedule(&eng, time.Millisecond, recurse)
		}
	}
	schedule(&eng, 0, recurse)
	eng.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if eng.Now() != 99*time.Millisecond {
		t.Errorf("Now = %v, want 99ms", eng.Now())
	}
}

// Property: however events are scheduled, Run fires them in nondecreasing
// time order and the clock never goes backwards.
// TestFIFOSurvivesCancellationMidRunUntil is a property test: with many
// events sharing few distinct timestamps, and firing events cancelling
// random victims (including already-fired ones and themselves), the
// survivors must still fire in FIFO (scheduling) order within each
// timestamp — calendar removals must not perturb the (time, seq) order. The
// run is split across RunUntil calls so cancellations land mid-run.
func TestFIFOSurvivesCancellationMidRunUntil(t *testing.T) {
	rng := NewRNG(77)
	for trial := 0; trial < 100; trial++ {
		const n = 40
		eng := &Engine{}
		events := make([]Event, n)
		times := make([]Time, n)
		cancels := make([][]int, n)
		for i := 0; i < n; i++ {
			times[i] = Time(rng.Intn(3)) * 10 // t ∈ {0, 10, 20}: heavy collisions
			for j := 0; j < 2; j++ {
				cancels[i] = append(cancels[i], rng.Intn(n))
			}
		}
		var fired []int
		for i := 0; i < n; i++ {
			i := i
			events[i] = schedule(eng, times[i], func() {
				fired = append(fired, i)
				for _, victim := range cancels[i] {
					events[victim].Cancel()
				}
			})
		}
		eng.RunUntil(10) // fires the t=0 and t=10 groups
		eng.RunUntil(MaxTime)

		// Reference model: process indices in (time, scheduling order),
		// skipping dead ones; firing i kills its victims.
		var order []int
		for _, at := range []Time{0, 10, 20} {
			for i := 0; i < n; i++ {
				if times[i] == at {
					order = append(order, i)
				}
			}
		}
		dead := make([]bool, n)
		var want []int
		for _, i := range order {
			if dead[i] {
				continue
			}
			want = append(want, i)
			for _, victim := range cancels[i] {
				dead[victim] = true
			}
		}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("trial %d: fired %v, want %v", trial, fired, want)
		}
	}
}

func TestMonotonicClockProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var eng Engine
		var times []Time
		for _, d := range delays {
			at := Time(d) * time.Millisecond
			schedule(&eng, at, func() { times = append(times, eng.Now()) })
		}
		eng.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	var s Stats
	for _, v := range []float64{1, 2, 3, 4} {
		s.Observe(v)
	}
	if s.N() != 4 || s.Mean() != 2.5 || s.Min() != 1 || s.Max() != 4 || s.Sum() != 10 {
		t.Errorf("stats = n=%d mean=%v min=%v max=%v sum=%v", s.N(), s.Mean(), s.Min(), s.Max(), s.Sum())
	}
	if math.Abs(s.Var()-1.25) > 1e-12 {
		t.Errorf("Var = %v, want 1.25", s.Var())
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Stats
	if s.Mean() != 0 || s.Var() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty Stats should report zeros")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds look identical (%d collisions)", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) covered %d values, want 10", len(seen))
	}
}

// TestRNGIntnUniform is a chi-squared goodness-of-fit check on Intn over
// a bucket count that is not a power of two — the case where the old
// Uint64()%n implementation was modulo-biased.
func TestRNGIntnUniform(t *testing.T) {
	for _, n := range []int{3, 6, 10, 1000} {
		r := NewRNG(12345)
		const draws = 600000
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[r.Intn(n)]++
		}
		expected := float64(draws) / float64(n)
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		// For k-1 degrees of freedom, chi2 concentrates around k-1 with
		// stddev sqrt(2(k-1)); 5 sigma keeps the deterministic test far
		// from both flakiness and real bias.
		dof := float64(n - 1)
		limit := dof + 5*math.Sqrt(2*dof)
		if chi2 > limit {
			t.Errorf("Intn(%d): chi2 = %.1f > %.1f — distribution biased", n, chi2, limit)
		}
	}
}

// TestRNGUint64nUnbiasedNearMax drives Uint64n with a bound just above
// 2^63, where nearly half of all 64-bit draws must be rejected; the old
// modulo reduction made values below 2^63 twice as likely.
func TestRNGUint64nUnbiasedNearMax(t *testing.T) {
	r := NewRNG(99)
	n := uint64(1)<<63 + 1
	const draws = 20000
	low := 0
	for i := 0; i < draws; i++ {
		v := r.Uint64n(n)
		if v >= n {
			t.Fatalf("Uint64n out of range: %d", v)
		}
		if v < n/2 {
			low++
		}
	}
	// Under modulo bias, low ≈ 2/3 of draws; unbiased is 1/2.
	if frac := float64(low) / draws; frac < 0.45 || frac > 0.55 {
		t.Errorf("low-half fraction = %.3f, want ~0.5", frac)
	}
}

// TestRNGUint64nRejectionPath pins the Lemire retry branch: for a bound
// just above 2^63, thresh = 2^64 mod n is nearly 2^63, so about half of
// all draws land below it and must be redrawn. The test mirrors the
// generator state step-by-step with a reference implementation, counts
// the rejections the real sampler must have taken, and checks that the
// retry loop actually triggered — the branch per-shard seeding leans on.
func TestRNGUint64nRejectionPath(t *testing.T) {
	n := uint64(1)<<63 + 1
	thresh := -n % n
	r := NewRNG(42)
	ref := NewRNG(42) // mirrored state: consumed in lockstep with r
	rejections := 0
	const draws = 256
	for i := 0; i < draws; i++ {
		// Reference: replay the algorithm, counting redraws.
		var want uint64
		for {
			hi, lo := bits.Mul64(ref.Uint64(), n)
			if lo < thresh {
				rejections++
				continue
			}
			want = hi
			break
		}
		got := r.Uint64n(n)
		if got != want {
			t.Fatalf("draw %d: Uint64n = %d, reference = %d (states diverged)", i, got, want)
		}
		if got >= n {
			t.Fatalf("draw %d: Uint64n out of range: %d", i, got)
		}
	}
	if rejections == 0 {
		t.Fatalf("rejection loop never triggered across %d draws with n=2^63+1 — test lost its teeth", draws)
	}
}

// TestRNGPermUniform checks Fisher–Yates output frequencies: over many
// permutations of 4 elements, each element must land in each position
// about 1/4 of the time. A biased swap (the classic i vs i+1 off-by-one)
// skews these counts far beyond the tolerance.
func TestRNGPermUniform(t *testing.T) {
	r := NewRNG(777)
	const n = 4
	const trials = 40000
	var counts [n][n]int // counts[value][position]
	for i := 0; i < trials; i++ {
		p := r.Perm(n)
		for pos, v := range p {
			counts[v][pos]++
		}
	}
	want := float64(trials) / n
	// 5-sigma binomial tolerance: sqrt(trials * 1/4 * 3/4).
	tol := 5 * math.Sqrt(float64(trials)*0.25*0.75)
	for v := 0; v < n; v++ {
		for pos := 0; pos < n; pos++ {
			if d := math.Abs(float64(counts[v][pos]) - want); d > tol {
				t.Errorf("element %d at position %d: %d occurrences, want %.0f±%.0f",
					v, pos, counts[v][pos], want, tol)
			}
		}
	}
}

func TestRNGUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	var s Stats
	for i := 0; i < 200000; i++ {
		s.Observe(r.Exp(5))
	}
	if math.Abs(s.Mean()-5) > 0.1 {
		t.Errorf("Exp mean = %v, want ~5", s.Mean())
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(13)
	var s Stats
	for i := 0; i < 200000; i++ {
		s.Observe(r.Norm(10, 2))
	}
	if math.Abs(s.Mean()-10) > 0.05 {
		t.Errorf("Norm mean = %v, want ~10", s.Mean())
	}
	if math.Abs(math.Sqrt(s.Var())-2) > 0.05 {
		t.Errorf("Norm stddev = %v, want ~2", math.Sqrt(s.Var()))
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(21)
	s := r.Split()
	if r.Uint64() == s.Uint64() {
		t.Error("split stream mirrors parent")
	}
}

func TestReservoirSmallStreamExact(t *testing.T) {
	r := NewReservoir(100, 1)
	for _, v := range []float64{5, 1, 3, 2, 4} {
		r.Observe(v)
	}
	if r.N() != 5 {
		t.Errorf("N = %d", r.N())
	}
	if got, ok := r.Quantile(0); !ok || got != 1 {
		t.Errorf("min = %v, %v", got, ok)
	}
	if got, ok := r.Quantile(1); !ok || got != 5 {
		t.Errorf("max = %v, %v", got, ok)
	}
	if got, ok := r.Median(); !ok || got != 3 {
		t.Errorf("median = %v, %v", got, ok)
	}
	// Interpolation between order statistics.
	if got, _ := r.Quantile(0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
}

func TestReservoirEmptyAndClamping(t *testing.T) {
	r := NewReservoir(10, 1)
	if _, ok := r.Quantile(0.5); ok {
		t.Error("empty reservoir should report ok=false")
	}
	if _, ok := r.Median(); ok {
		t.Error("empty median should report ok=false")
	}
	r.Observe(7)
	lo, okLo := r.Quantile(-1)
	hi, okHi := r.Quantile(2)
	if !okLo || !okHi || lo != 7 || hi != 7 {
		t.Error("q clamping failed")
	}
}

func TestReservoirObserveAfterQuantile(t *testing.T) {
	// Interleaving queries (which reorder the retained sample in place) with
	// further observations must keep estimates consistent.
	r := NewReservoir(8, 1)
	for _, v := range []float64{9, 2, 7} {
		r.Observe(v)
	}
	if got, _ := r.Quantile(1); got != 9 {
		t.Errorf("max = %v before refill", got)
	}
	for _, v := range []float64{11, 1} {
		r.Observe(v)
	}
	if got, _ := r.Quantile(0); got != 1 {
		t.Errorf("min = %v after refill", got)
	}
	if got, _ := r.Quantile(1); got != 11 {
		t.Errorf("max = %v after refill", got)
	}
	if r.N() != 5 {
		t.Errorf("N = %d", r.N())
	}
}

func TestReservoirLargeStreamApproximation(t *testing.T) {
	// Uniform [0,1): quantile estimates should track q.
	r := NewReservoir(2048, 3)
	src := NewRNG(4)
	for i := 0; i < 200000; i++ {
		r.Observe(src.Float64())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got, ok := r.Quantile(q)
		if !ok || math.Abs(got-q) > 0.05 {
			t.Errorf("Quantile(%v) = %v, %v", q, got, ok)
		}
	}
}

func TestReservoirDeterministic(t *testing.T) {
	mk := func() float64 {
		r := NewReservoir(64, 9)
		src := NewRNG(10)
		for i := 0; i < 10000; i++ {
			r.Observe(src.Float64())
		}
		q, _ := r.Quantile(0.95)
		return q
	}
	if mk() != mk() {
		t.Error("reservoir not deterministic")
	}
}
