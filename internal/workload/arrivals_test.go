package workload

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/sim"
	"memstream/internal/units"
)

func TestSessionProcessValidate(t *testing.T) {
	ok := SessionProcess{ArrivalRate: 1, MeanHold: time.Minute, BitRate: units.MBPS}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SessionProcess{
		{ArrivalRate: 0, MeanHold: time.Minute, BitRate: units.MBPS},
		{ArrivalRate: 1, MeanHold: 0, BitRate: units.MBPS},
		{ArrivalRate: 1, MeanHold: time.Minute, BitRate: 0},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}

// TestOfferedLoad: a trace offers λ·E[hold] erlangs — its total hold
// time over the horizon is the Erlang offered load.
func TestOfferedLoad(t *testing.T) {
	p := SessionProcess{ArrivalRate: 2, MeanHold: 30 * time.Second, BitRate: units.MBPS}
	horizon := 2 * time.Hour
	sessions, err := p.AppendSessions(nil, sim.NewRNG(5), horizon)
	if err != nil {
		t.Fatal(err)
	}
	var held time.Duration
	for _, s := range sessions {
		held += s.Hold
	}
	if got := held.Seconds() / horizon.Seconds(); math.Abs(got-60) > 0.05*60 {
		t.Errorf("offered load = %.1f erlangs, want ≈60", got)
	}
}

func TestGenerateStatistics(t *testing.T) {
	p := SessionProcess{ArrivalRate: 5, MeanHold: 2 * time.Minute, BitRate: units.MBPS}
	rng := sim.NewRNG(1)
	horizon := 2 * time.Hour
	sessions, err := p.AppendSessions(nil, rng, horizon)
	if err != nil {
		t.Fatal(err)
	}
	// Expected count ≈ λ·T = 36000; allow 5%.
	want := p.ArrivalRate * horizon.Seconds()
	if math.Abs(float64(len(sessions))-want) > 0.05*want {
		t.Errorf("sessions = %d, want ≈%.0f", len(sessions), want)
	}
	// Arrivals in order and within horizon; holds have the right mean.
	var holdSum float64
	for i, s := range sessions {
		if s.Arrive >= horizon || s.Arrive < 0 {
			t.Fatalf("arrival %v outside horizon", s.Arrive)
		}
		if i > 0 && s.Arrive < sessions[i-1].Arrive {
			t.Fatal("arrivals out of order")
		}
		if s.ID != i {
			t.Fatalf("session %d has id %d", i, s.ID)
		}
		holdSum += s.Hold.Seconds()
	}
	meanHold := holdSum / float64(len(sessions))
	if math.Abs(meanHold-120) > 6 {
		t.Errorf("mean hold = %.1fs, want ≈120s", meanHold)
	}
}

// TestGenerateExtremeRateTerminates is the regression test for an
// unbounded loop: at very high arrival rates every exponential gap
// truncated to 0ns, simulated time never advanced past the horizon, and
// the session slice grew until OOM. With the 1ns gap floor the generator
// must terminate and arrivals stay strictly increasing.
func TestGenerateExtremeRateTerminates(t *testing.T) {
	p := SessionProcess{
		ArrivalRate: 1e12, // mean gap 1e-12s — far below the 1ns time base
		MeanHold:    time.Minute,
		BitRate:     units.MBPS,
	}
	horizon := time.Microsecond
	sessions, err := p.AppendSessions(nil, sim.NewRNG(7), horizon)
	if err != nil {
		t.Fatal(err)
	}
	// The 1ns floor bounds the output at horizon/1ns sessions.
	if len(sessions) > int(horizon) {
		t.Fatalf("generated %d sessions, more than the %d the gap floor allows", len(sessions), int(horizon))
	}
	if len(sessions) == 0 {
		t.Fatal("expected at least one session inside the horizon")
	}
	prev := time.Duration(-1)
	for _, s := range sessions {
		if s.Arrive <= prev {
			t.Fatalf("arrivals not strictly increasing: %v after %v", s.Arrive, prev)
		}
		if s.Arrive >= horizon {
			t.Fatalf("arrival %v beyond horizon %v", s.Arrive, horizon)
		}
		prev = s.Arrive
	}
}

func TestGenerateErrors(t *testing.T) {
	p := SessionProcess{ArrivalRate: 1, MeanHold: time.Minute, BitRate: units.MBPS}
	if _, err := p.AppendSessions(nil, sim.NewRNG(1), 0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := (SessionProcess{}).AppendSessions(nil, sim.NewRNG(1), time.Hour); err == nil {
		t.Error("invalid process accepted")
	}
}

// admit runs one pass of p over horizon against caps.
func admit(t testing.TB, p SessionProcess, seed uint64, horizon time.Duration, caps ...int) []AdmissionStats {
	t.Helper()
	stats := make([]AdmissionStats, len(caps))
	var a AdmissionPass
	if err := a.Run(p, sim.NewRNG(seed), horizon, caps, stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestReplayAdmissionUnlimited(t *testing.T) {
	p := SessionProcess{ArrivalRate: 1, MeanHold: time.Minute, BitRate: units.MBPS}
	stats := admit(t, p, 2, time.Hour, math.MaxInt)[0]
	if stats.Rejected != 0 || stats.Admitted != stats.Offered {
		t.Errorf("unlimited capacity rejected %d", stats.Rejected)
	}
	// Stationary busy count ≈ offered load λ·E[hold] (60 erlangs).
	offered := p.ArrivalRate * p.MeanHold.Seconds()
	if math.Abs(stats.AvgBusy-offered) > 0.25*offered {
		t.Errorf("avg busy = %.1f, want ≈%.0f", stats.AvgBusy, offered)
	}
	if stats.PeakBusy < int(stats.AvgBusy) {
		t.Error("peak below average")
	}
}

func TestReplayAdmissionHardCap(t *testing.T) {
	p := SessionProcess{ArrivalRate: 2, MeanHold: time.Minute, BitRate: units.MBPS}
	const cap = 100
	stats := admit(t, p, 3, time.Hour, cap)[0]
	if stats.PeakBusy > cap {
		t.Errorf("peak %d exceeded cap %d", stats.PeakBusy, cap)
	}
	// Offered 120 erlangs into 100 servers: Erlang-B blocking ≈ 0.19.
	if stats.BlockProb < 0.05 || stats.BlockProb > 0.4 {
		t.Errorf("blocking probability = %.3f, want Erlang-B-ish ≈0.19", stats.BlockProb)
	}
	if stats.Admitted+stats.Rejected != stats.Offered {
		t.Error("admitted + rejected != offered")
	}
}

// TestReplayAdmissionEmpty: a horizon in which nothing arrives gives
// zero statistics, BlockProb 0 rather than NaN, as the heap replay of an
// empty trace does.
func TestReplayAdmissionEmpty(t *testing.T) {
	p := SessionProcess{ArrivalRate: 1, MeanHold: time.Minute, BitRate: units.MBPS}
	want := heapReplayAdmission(nil, func(int) bool { return true })
	for k, stats := range admit(t, p, 1, time.Nanosecond, 0, 1, math.MaxInt) {
		if stats != want || stats != (AdmissionStats{}) {
			t.Errorf("system %d: empty stats = %+v, heap %+v", k, stats, want)
		}
	}
}

// Property: the duration heap pops in sorted order.
func TestDurationHeapProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		h := &durationHeap{}
		for _, v := range vals {
			h.Push(time.Duration(v))
		}
		sorted := make([]time.Duration, len(vals))
		for i := range sorted {
			sorted[i] = h.Pop()
		}
		want := make([]time.Duration, len(vals))
		for i, v := range vals {
			want[i] = time.Duration(v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if sorted[i] != want[i] {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: with a hard cap, blocking never lets busy exceed the cap and
// conservation holds.
func TestReplayAdmissionCapProperty(t *testing.T) {
	f := func(seed uint16, capRaw uint8) bool {
		capN := int(capRaw%50) + 1
		p := SessionProcess{ArrivalRate: 1, MeanHold: 30 * time.Second, BitRate: units.MBPS}
		stats := admit(t, p, uint64(seed), 30*time.Minute, capN)[0]
		return stats.PeakBusy <= capN && stats.Admitted+stats.Rejected == stats.Offered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
