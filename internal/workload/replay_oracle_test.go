package workload

import (
	"fmt"
	"testing"
	"time"

	"memstream/internal/sim"
	"memstream/internal/units"
)

// ReplayAdmission drives a session trace through an admission test once;
// see Replay for the trace's contract and for replaying one trace against
// several tests. Holds must be non-negative.
func ReplayAdmission(sessions []Session, capacity func(busy int) bool) AdmissionStats {
	r := NewReplay(len(sessions))
	r.Reset(sessions)
	return r.Admission(capacity)
}

// heapReplayAdmission is the departure-heap replay Replay replaced, kept
// unchanged as its behavioral reference: every AdmissionStats field of
// the sweep, AvgBusy's float64 sum included, must be bit-equal to this.
func heapReplayAdmission(sessions []Session, capacity func(busy int) bool) AdmissionStats {
	stats := AdmissionStats{Offered: len(sessions)}
	if len(sessions) == 0 {
		return stats
	}
	departures := &durationHeap{}
	busy := 0
	var busyArea float64
	last := time.Duration(0)
	advance := func(t time.Duration) {
		// Process departures before t, integrating busy-time exactly.
		for departures.Len() > 0 && departures.Min() <= t {
			d := departures.Pop()
			busyArea += float64(busy) * (d - last).Seconds()
			last = d
			busy--
		}
		busyArea += float64(busy) * (t - last).Seconds()
		last = t
	}
	for _, s := range sessions {
		advance(s.Arrive)
		if !capacity(busy) {
			stats.Rejected++
			continue
		}
		stats.Admitted++
		busy++
		departures.Push(s.Arrive + s.Hold)
		if busy > stats.PeakBusy {
			stats.PeakBusy = busy
		}
	}
	horizon := sessions[len(sessions)-1].Arrive
	if horizon > 0 {
		stats.AvgBusy = busyArea / horizon.Seconds()
	}
	stats.BlockProb = float64(stats.Rejected) / float64(stats.Offered)
	return stats
}

// durationHeap is a minimal binary min-heap of times.
type durationHeap struct{ v []time.Duration }

// Len reports heap size.
func (h *durationHeap) Len() int { return len(h.v) }

// Min returns the smallest element; callers must check Len first.
func (h *durationHeap) Min() time.Duration { return h.v[0] }

// Push inserts t.
func (h *durationHeap) Push(t time.Duration) {
	h.v = append(h.v, t)
	i := len(h.v) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.v[parent] <= h.v[i] {
			break
		}
		h.v[parent], h.v[i] = h.v[i], h.v[parent]
		i = parent
	}
}

// Pop removes and returns the minimum.
func (h *durationHeap) Pop() time.Duration {
	top := h.v[0]
	n := len(h.v) - 1
	h.v[0] = h.v[n]
	h.v = h.v[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.v[l] < h.v[small] {
			small = l
		}
		if r < n && h.v[r] < h.v[small] {
			small = r
		}
		if small == i {
			break
		}
		h.v[i], h.v[small] = h.v[small], h.v[i]
		i = small
	}
	return top
}

// randomTrace draws n arrival-ordered sessions built to collide: arrival
// gaps of 0, 1 ns or a coarse step (tied arrivals), holds that are zero,
// 1 ns, whole steps (tied departures) or far past the last arrival.
func randomTrace(rng *sim.RNG, n int) []Session {
	const step = 50 * time.Millisecond
	out := make([]Session, n)
	t := time.Duration(rng.Intn(2)) * step // the first arrival may be at 0
	for i := range out {
		switch rng.Intn(4) {
		case 0: // tied with the previous arrival
		case 1:
			t++
		default:
			t += time.Duration(rng.Intn(5)) * step
		}
		var hold time.Duration
		switch rng.Intn(6) {
		case 0: // zero-length hold
		case 1:
			hold = 1
		case 2:
			hold = 1000 * time.Hour // far past any horizon
		case 3:
			hold = time.Duration(rng.Intn(1 << 30))
		default:
			hold = time.Duration(rng.Intn(40)) * step
		}
		out[i] = Session{ID: i, Arrive: t, Hold: hold, BitRate: units.MBPS}
	}
	return out
}

// predicates are the admission tests the differential runs: hard caps
// from "never" to "always", and one that is not monotone in busy.
func predicates(n int) map[string]func(busy int) bool {
	capAt := func(c int) func(int) bool { return func(busy int) bool { return busy < c } }
	return map[string]func(busy int) bool{
		"cap=0":        capAt(0),
		"cap=1":        capAt(1),
		"cap=7":        capAt(7),
		"cap>=n":       capAt(n + 1),
		"non-monotone": func(busy int) bool { return busy%3 != 2 || busy > 11 },
	}
}

func requireSameStats(t *testing.T, label string, got, want AdmissionStats) {
	t.Helper()
	if got != want { // struct equality: AvgBusy and BlockProb bit for bit (no NaNs arise)
		t.Fatalf("%s: sweep %+v, heap %+v", label, got, want)
	}
}

// TestReplayMatchesHeapOracle is the differential gate for the sort-once
// sweep, from the degenerate traces up to ones whose indices span
// several radix buckets.
func TestReplayMatchesHeapOracle(t *testing.T) {
	rng := sim.NewRNG(20030305)
	sizes := []int{0, 1, 2, 3, 17, 400, 2048, 6000}
	for round := 0; round < 6; round++ {
		for _, n := range sizes {
			trace := randomTrace(rng, n)
			var r Replay
			r.Reset(trace)
			for name, pred := range predicates(n) {
				label := fmt.Sprintf("round %d n=%d %s", round, n, name)
				want := heapReplayAdmission(trace, pred)
				requireSameStats(t, label, r.Admission(pred), want)
				requireSameStats(t, label+" one-shot", ReplayAdmission(trace, pred), want)
			}
		}
	}
}

// TestReplayMatchesHeapOnGeneratedTrace runs the differential on the
// traces the dynamics experiment actually replays: Poisson arrivals,
// exponential holds, enough sessions for three radix passes.
func TestReplayMatchesHeapOnGeneratedTrace(t *testing.T) {
	p := SessionProcess{ArrivalRate: 3, MeanHold: 10 * time.Minute, BitRate: 100 * units.KBPS}
	trace, err := p.AppendSessions(nil, sim.NewRNG(1), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplay(len(trace))
	r.Reset(trace)
	for _, c := range []int{900, 1500, 1800, 5000} {
		pred := func(busy int) bool { return busy < c }
		requireSameStats(t, fmt.Sprintf("cap=%d", c), r.Admission(pred), heapReplayAdmission(trace, pred))
	}
}

// TestReplayOrderIsStableSortByDeparture checks the index itself.
func TestReplayOrderIsStableSortByDeparture(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, n := range []int{1, 2, 300, 8000} {
		trace := randomTrace(rng, n)
		var r Replay
		r.Reset(trace)
		seen := make([]bool, n)
		for k, j := range r.order {
			if seen[j] {
				t.Fatalf("n=%d: index %d appears twice", n, j)
			}
			seen[j] = true
			if k == 0 {
				continue
			}
			prev := r.order[k-1]
			dp, dj := departure(&trace[prev]), departure(&trace[j])
			if dp > dj || (dp == dj && prev > j) {
				t.Fatalf("n=%d: order[%d]=%d (departs %v) before order[%d]=%d (departs %v)",
					n, k-1, prev, dp, k, j, dj)
			}
		}
	}
}

// TestReplayReuse: one Replay serves several predicates per trace and,
// after Reset, a shorter and then a longer trace, with no state carried
// from one call to the next.
func TestReplayReuse(t *testing.T) {
	rng := sim.NewRNG(11)
	r := NewReplay(2048)
	for _, n := range []int{4096, 300, 10000, 0, 40} {
		trace := randomTrace(rng, n)
		r.Reset(trace)
		for pass := 0; pass < 2; pass++ {
			for name, pred := range predicates(n) {
				requireSameStats(t, fmt.Sprintf("n=%d pass %d %s", n, pass, name),
					r.Admission(pred), heapReplayAdmission(trace, pred))
			}
		}
	}
}

// TestReplayWarmDoesNotAllocate: a Replay that has seen a trace of this
// size indexes the next one and replays it three times in place.
func TestReplayWarmDoesNotAllocate(t *testing.T) {
	rng := sim.NewRNG(3)
	for _, n := range []int{1000, 16000} {
		a, b := randomTrace(rng, n), randomTrace(rng, n)
		preds := []func(int) bool{
			func(busy int) bool { return busy < 5 },
			func(busy int) bool { return busy < 50 },
			func(busy int) bool { return true },
		}
		r := NewReplay(n)
		r.Reset(a)
		var sink int
		allocs := testing.AllocsPerRun(10, func() {
			a, b = b, a
			r.Reset(a)
			for _, pred := range preds {
				sink += r.Admission(pred).Admitted
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: warmed Reset + three replays allocate %v times", n, allocs)
		}
		_ = sink
	}
}

// TestAppendSessionsReusesBuffer: appending into a buffer with room
// allocates nothing and draws exactly what appending to nil draws.
func TestAppendSessionsReusesBuffer(t *testing.T) {
	p := SessionProcess{ArrivalRate: 4, MeanHold: time.Minute, BitRate: units.MBPS}
	horizon := 30 * time.Minute
	want, err := p.AppendSessions(nil, sim.NewRNG(9), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if hint := p.SizeHint(horizon); len(want) > hint {
		t.Fatalf("%d sessions overran the %d-session hint", len(want), hint)
	}
	buf := make([]Session, 0, p.SizeHint(horizon))
	got, err := p.AppendSessions(buf, sim.NewRNG(9), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("AppendSessions reallocated a buffer that had room")
	}
	if len(got) != len(want) {
		t.Fatalf("%d sessions, appending to nil drew %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("session %d: %+v, appending to nil drew %+v", i, got[i], want[i])
		}
	}
}

// TestSizeHintIsBounded: a hostile rate cannot make AppendSessions allocate
// more than the cap up front, and the 1 ns gap floor bounds short
// horizons tighter still.
func TestSizeHintIsBounded(t *testing.T) {
	hostile := SessionProcess{ArrivalRate: 1e15, MeanHold: time.Minute, BitRate: units.MBPS}
	if got := hostile.SizeHint(24 * time.Hour); got != maxSizeHint {
		t.Errorf("hostile rate: hint %d, want the cap %d", got, maxSizeHint)
	}
	if got := hostile.SizeHint(time.Microsecond); got != 1000 {
		t.Errorf("1µs horizon: hint %d, want 1000 (one session per ns)", got)
	}
	if got := (SessionProcess{}).SizeHint(-time.Second); got < 0 || got > maxSizeHint {
		t.Errorf("invalid process: hint %d out of [0, cap]", got)
	}
}

func BenchmarkReplayAdmission(b *testing.B) {
	// ~100 k sessions offered to three capacities, the shape of one row
	// of the dynamics table.
	p := SessionProcess{ArrivalRate: 100_000.0 / (6 * 3600), MeanHold: 10 * time.Minute, BitRate: 100 * units.KBPS}
	trace, err := p.AppendSessions(nil, sim.NewRNG(1), 6*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	preds := []func(int) bool{
		func(busy int) bool { return busy < 1400 },
		func(busy int) bool { return busy < 2100 },
		func(busy int) bool { return busy < 2700 },
	}
	r := NewReplay(len(trace))
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(trace)
		for _, pred := range preds {
			sink += r.Admission(pred).Admitted
		}
	}
	_ = sink
}

// BenchmarkCatalogBuild is the cost of a catalog that is drawn from:
// NewCatalog plus the sampler build its first Pick triggers — what a
// sweep sharing a server.Arena pays once instead of once per point.
func BenchmarkCatalogBuild(b *testing.B) {
	for _, n := range []int{400, 1000} {
		b.Run(fmt.Sprintf("titles=%d", n), func(b *testing.B) {
			w := XYDistribution{X: 10, Y: 90}.Weights(n)
			class := MediaClass{Name: "b", BitRate: 100 * units.KBPS, Duration: 100 * time.Minute}
			rng := sim.NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cat, err := NewCatalog(n, class, w, 512)
				if err != nil {
					b.Fatal(err)
				}
				cat.Pick(rng)
			}
		})
	}
}
