package workload

import (
	"fmt"
	"testing"
	"time"

	"memstream/internal/sim"
	"memstream/internal/units"
)

// Session is one generated viewing session.
type Session struct {
	ID     int
	Arrive time.Duration
	Hold   time.Duration
}

// AppendSessions draws the sessions arriving within the horizon, IDs
// numbered from 0, and appends them to dst: the stored trace that
// AdmissionPass.Run draws in the same order and offers without storing.
// The oracle and statistics tests build their traces with it.
func (p SessionProcess) AppendSessions(dst []Session, rng *sim.RNG, horizon time.Duration) ([]Session, error) {
	if err := p.Validate(); err != nil {
		return dst, err
	}
	if horizon <= 0 {
		return dst, fmt.Errorf("workload: non-positive horizon %v", horizon)
	}
	t := time.Duration(0)
	for id := 0; ; id++ {
		gap := units.Seconds(rng.Exp(1 / p.ArrivalRate))
		if gap == 0 { // the 1 ns floor Run applies
			gap = 1
		}
		if gap < 0 || gap >= horizon-t { // a negative gap overflowed the time base
			return dst, nil
		}
		t += gap
		dst = append(dst, Session{ID: id, Arrive: t, Hold: units.Seconds(rng.Exp(p.MeanHold.Seconds()))})
	}
}

// streamAdmission feeds an arrival-ordered trace to the pass's core, as
// Run feeds it drawn sessions, with the pass ending just after the last
// arrival.
func streamAdmission(a *AdmissionPass, trace []Session, caps []int) []AdmissionStats {
	end := time.Duration(1)
	if len(trace) > 0 {
		end = trace[len(trace)-1].Arrive + 1
	}
	a.begin(caps, end)
	for _, s := range trace {
		a.offer(s.Arrive, s.Hold)
	}
	dst := make([]AdmissionStats, len(caps))
	a.finish(dst)
	return dst
}

// heapReplayAdmission is the departure-heap replay of one stored trace
// through one admission test, kept as AdmissionPass's behavioral
// reference: every AdmissionStats field of each system, AvgBusy's float64
// sum included, must be bit-equal to this.
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
		out[i] = Session{ID: i, Arrive: t, Hold: hold}
	}
	return out
}

// capSets are the capacity lists the differential runs, from "never" to
// "always", one to three systems per pass and a full pass of
// maxCapacities.
func capSets(n int) [][]int {
	return [][]int{
		{0}, {1}, {7}, {n + 1},
		{1, 7}, {7, 1}, {0, n + 1},
		{1, 7, n + 1}, {7, 7, 2},
		{0, 1, 2, 3, 5, 8, 13, n + 1},
	}
}

// requireHeapStats holds each system of one pass to the heap replay of
// the same trace at that system's capacity.
func requireHeapStats(t *testing.T, label string, trace []Session, caps []int, got []AdmissionStats) {
	t.Helper()
	for k, c := range caps {
		want := heapReplayAdmission(trace, func(busy int) bool { return busy < c })
		if got[k] != want { // struct equality: AvgBusy and BlockProb bit for bit (no NaNs arise)
			t.Fatalf("%s: cap %d (system %d of %v): pass %+v, heap %+v", label, c, k, caps, got[k], want)
		}
	}
}

// TestReplayMatchesHeapOracle is the differential gate for the streaming
// pass's core on tie-heavy traces: tied arrivals, zero and 1 ns holds,
// tied departures and holds that never end.
func TestReplayMatchesHeapOracle(t *testing.T) {
	rng := sim.NewRNG(20030305)
	var a AdmissionPass
	for round := 0; round < 6; round++ {
		for _, n := range []int{0, 1, 2, 3, 17, 400, 2048, 6000} {
			trace := randomTrace(rng, n)
			for _, caps := range capSets(n) {
				requireHeapStats(t, fmt.Sprintf("round %d n=%d", round, n), trace, caps, streamAdmission(&a, trace, caps))
			}
		}
	}
}

// TestReplayMatchesHeapOnGeneratedTrace runs the differential on what
// the dynamics experiment replays: Run's drawn sessions against the heap
// replay of the trace AppendSessions draws from the same seed.
func TestReplayMatchesHeapOnGeneratedTrace(t *testing.T) {
	p := SessionProcess{ArrivalRate: 3, MeanHold: 10 * time.Minute, BitRate: 100 * units.KBPS}
	const horizon = 2 * time.Hour
	trace, err := p.AppendSessions(nil, sim.NewRNG(1), horizon)
	if err != nil {
		t.Fatal(err)
	}
	caps := []int{900, 1500, 1800, 5000}
	got := make([]AdmissionStats, len(caps))
	var a AdmissionPass
	if err := a.Run(p, sim.NewRNG(1), horizon, caps, got); err != nil {
		t.Fatal(err)
	}
	if got[0].Offered != len(trace) {
		t.Fatalf("pass offered %d sessions, the trace holds %d", got[0].Offered, len(trace))
	}
	requireHeapStats(t, "generated", trace, caps, got)
}

// TestReplayReuse: one pass serves traces of every size and capacity
// lists of every length in turn, with no state carried from one call to
// the next.
func TestReplayReuse(t *testing.T) {
	rng := sim.NewRNG(11)
	var a AdmissionPass
	for _, n := range []int{4096, 300, 10000, 0, 40} {
		trace := randomTrace(rng, n)
		for pass := 0; pass < 2; pass++ {
			for _, caps := range capSets(n) {
				requireHeapStats(t, fmt.Sprintf("n=%d pass %d", n, pass), trace, caps, streamAdmission(&a, trace, caps))
			}
		}
	}
}

// dynamicsRow is one row of the dynamics table at about sessions
// sessions: six hours of 10-minute holds offered to three capacities.
func dynamicsRow(sessions int) (SessionProcess, time.Duration, []int) {
	const horizon = 6 * time.Hour
	p := SessionProcess{ArrivalRate: float64(sessions) / horizon.Seconds(), MeanHold: 10 * time.Minute, BitRate: 100 * units.KBPS}
	return p, horizon, []int{1400, 2100, 2700}
}

// TestReplayWarmDoesNotAllocate: a pass that has run once runs again, at
// 1 k and at 100 k sessions against three capacities, in place.
func TestReplayWarmDoesNotAllocate(t *testing.T) {
	for _, n := range []int{1000, 100_000} {
		p, horizon, caps := dynamicsRow(n)
		stats := make([]AdmissionStats, len(caps))
		var a AdmissionPass
		run := func() {
			if err := a.Run(p, sim.NewRNG(1), horizon, caps, stats); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
			t.Errorf("n=%d: a warmed pass allocates %v times", n, allocs)
		}
	}
}

// TestAdmissionPassHostileRate: at a rate far past the 1 ns floor the
// pass still ends, offers no more than one session per nanosecond, and
// allocates the same from cold at 1 k sessions as at 100 k: its storage
// follows the sessions in flight, not the sessions offered.
func TestAdmissionPassHostileRate(t *testing.T) {
	hostile := SessionProcess{ArrivalRate: 1e15, MeanHold: 100 * time.Nanosecond, BitRate: units.MBPS}
	caps := []int{5, 20, 40} // ~100 erlangs offered: every system saturates
	stats := make([]AdmissionStats, len(caps))
	allocs := make(map[time.Duration]float64)
	for _, horizon := range []time.Duration{time.Microsecond, 100 * time.Microsecond} {
		allocs[horizon] = testing.AllocsPerRun(3, func() {
			var a AdmissionPass
			if err := a.Run(hostile, sim.NewRNG(7), horizon, caps, stats); err != nil {
				t.Fatal(err)
			}
		})
		if got := stats[0].Offered; got >= int(horizon) || got < int(horizon)/2 {
			t.Errorf("horizon %v: %d sessions offered, want just under one per ns", horizon, got)
		}
		for k, s := range stats {
			if s.PeakBusy != caps[k] {
				t.Errorf("horizon %v: system %d peaked at %d, not its cap %d", horizon, k, s.PeakBusy, caps[k])
			}
		}
	}
	if a, b := allocs[time.Microsecond], allocs[100*time.Microsecond]; a != b {
		t.Errorf("a cold pass allocates %v times at 1 k sessions, %v at 100 k", a, b)
	}
}

// TestAdmissionPassRareRate: a gap too long for the time base ends the
// pass rather than shrinking to the 1 ns floor. At 10⁻¹³ sessions a
// second a millisecond expects 10⁻¹⁶ of them, and most draws overflow.
func TestAdmissionPassRareRate(t *testing.T) {
	rare := SessionProcess{ArrivalRate: 1e-13, MeanHold: time.Minute, BitRate: units.MBPS}
	stats := make([]AdmissionStats, 1)
	var a AdmissionPass
	if err := a.Run(rare, sim.NewRNG(1), time.Millisecond, []int{5}, stats); err != nil {
		t.Fatal(err)
	}
	if stats[0].Offered != 0 {
		t.Errorf("%d sessions offered in a millisecond at 1e-13/s", stats[0].Offered)
	}
}

func TestAdmissionPassRejects(t *testing.T) {
	ok := SessionProcess{ArrivalRate: 1, MeanHold: time.Minute, BitRate: units.MBPS}
	tooMany := make([]int, maxCapacities+1)
	for _, tc := range []struct {
		name    string
		p       SessionProcess
		horizon time.Duration
		caps    []int
		dst     int
	}{
		{"invalid process", SessionProcess{}, time.Hour, []int{1}, 1},
		{"zero horizon", ok, 0, []int{1}, 1},
		{"horizon past the key", ok, maxHorizon + 1, []int{1}, 1},
		{"more capacities than mask bits", ok, time.Hour, tooMany, len(tooMany)},
		{"short stats", ok, time.Hour, []int{1, 2}, 1},
	} {
		var a AdmissionPass
		if err := a.Run(tc.p, sim.NewRNG(1), tc.horizon, tc.caps, make([]AdmissionStats, tc.dst)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	var a AdmissionPass
	full := make([]int, maxCapacities)
	if err := a.Run(ok, sim.NewRNG(1), time.Hour, full, make([]AdmissionStats, len(full))); err != nil {
		t.Errorf("%d capacities: %v", len(full), err)
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
	buf := make([]Session, 0, len(want))
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

// BenchmarkAdmissionPass is one row of the dynamics table: ~100 k
// sessions drawn and offered to three capacities.
func BenchmarkAdmissionPass(b *testing.B) {
	p, horizon, caps := dynamicsRow(100_000)
	stats := make([]AdmissionStats, len(caps))
	var a AdmissionPass
	if err := a.Run(p, sim.NewRNG(1), horizon, caps, stats); err != nil { // warm the heap
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Run(p, sim.NewRNG(1), horizon, caps, stats); err != nil {
			b.Fatal(err)
		}
	}
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
