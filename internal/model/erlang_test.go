package model

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

func TestErlangBKnownValues(t *testing.T) {
	// Classic table values.
	tests := []struct {
		a    float64
		n    int
		want float64
	}{
		{0, 10, 0},
		{1, 1, 0.5},
		{2, 2, 0.4},
		{10, 10, 0.2146},
		{100, 100, 0.0757},
	}
	for _, tc := range tests {
		got, err := ErlangB(tc.a, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 5e-4 {
			t.Errorf("ErlangB(%g,%d) = %.4f, want %.4f", tc.a, tc.n, got, tc.want)
		}
	}
}

func TestErlangBErrors(t *testing.T) {
	if _, err := ErlangB(-1, 5); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := ErlangB(1, -1); err == nil {
		t.Error("negative servers accepted")
	}
	// n=0 blocks everything offered.
	if b, _ := ErlangB(5, 0); b != 1 {
		t.Errorf("B(a,0) = %v, want 1", b)
	}
}

func TestErlangCapacity(t *testing.T) {
	n, err := ErlangCapacity(100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// 100 erlangs at 1% blocking needs ≈117 servers.
	if n < 110 || n > 125 {
		t.Errorf("capacity = %d, want ≈117", n)
	}
	b, _ := ErlangB(100, n)
	if b > 0.01 {
		t.Errorf("blocking at capacity = %v", b)
	}
	bPrev, _ := ErlangB(100, n-1)
	if bPrev <= 0.01 {
		t.Error("capacity not minimal")
	}
	if _, err := ErlangCapacity(100, 0); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := ErlangCapacity(-1, 0.01); err == nil {
		t.Error("negative load accepted")
	}
}

// Property: blocking decreases in n and increases in a.
func TestErlangBMonotoneProperty(t *testing.T) {
	f := func(aRaw, nRaw uint8) bool {
		a := float64(aRaw%50) + 1
		n := int(nRaw%50) + 1
		b1, err1 := ErlangB(a, n)
		b2, err2 := ErlangB(a, n+1)
		b3, err3 := ErlangB(a+1, n)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return b2 <= b1+1e-12 && b3 >= b1-1e-12 && b1 >= 0 && b1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The simulated admission process converges to the Erlang-B closed form —
// the theory behind the dynamics experiment.
func TestSimulatedBlockingMatchesErlangB(t *testing.T) {
	p := workload.SessionProcess{
		ArrivalRate: 0.5, // 0.5/s · 200s hold = 100 erlangs offered
		MeanHold:    200 * time.Second,
		BitRate:     units.MBPS,
	}
	const capN = 100
	var pass workload.AdmissionPass
	stats := make([]workload.AdmissionStats, 1)
	if err := pass.Run(p, sim.NewRNG(17), 40*time.Hour, []int{capN}, stats); err != nil {
		t.Fatal(err)
	}
	want, _ := ErlangB(p.ArrivalRate*p.MeanHold.Seconds(), capN)
	if math.Abs(stats[0].BlockProb-want) > 0.02 {
		t.Errorf("simulated blocking %.4f, Erlang-B %.4f", stats[0].BlockProb, want)
	}
}
