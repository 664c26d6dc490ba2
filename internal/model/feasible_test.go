package model

import (
	"errors"
	"testing"

	"memstream/internal/units"
)

// bufCfg is a known-feasible buffered configuration: the paper's DVD
// operating point against the FutureDisk with a G3-class middle tier.
func bufCfg(n, k int) BufferConfig {
	return BufferConfig{
		Load:          StreamLoad{N: n, BitRate: 1 * units.MBPS},
		Disk:          futureDiskSpec(),
		Tier:          g3Spec(),
		K:             k,
		SizePerDevice: 10 * units.GB,
	}
}

func TestMinFeasibleKAtLowerBound(t *testing.T) {
	// k = kMin = 2 already admits a plan at this load, so the search must
	// return the bound itself, with the plan matching a direct BufferPlan
	// at that k.
	cfg := bufCfg(150, 0)
	k, plan, err := MinFeasibleK(cfg, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("k = %d, want the kMin bound 2", k)
	}
	cfg.K = 2
	want, err := BufferPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan != want {
		t.Errorf("plan %+v differs from BufferPlan at k=2: %+v", plan, want)
	}
}

func TestMinFeasibleKClampsKMin(t *testing.T) {
	// kMin below 1 is clamped to 1; for a tier with 2x the disk's
	// bandwidth even a single device suffices.
	fast := g3Spec()
	fast.Rate = 4 * futureDiskSpec().Rate
	cfg := bufCfg(150, 0)
	cfg.Tier = fast
	k, _, err := MinFeasibleK(cfg, -3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("k = %d, want 1 for a tier with ample bandwidth", k)
	}
}

func TestMinFeasibleKGrowsBank(t *testing.T) {
	// Starve per-device bandwidth so several devices are needed: the
	// returned k must be minimal (k-1 infeasible, k feasible).
	slow := g3Spec()
	slow.Rate = futureDiskSpec().Rate / 4
	cfg := bufCfg(150, 0)
	cfg.Tier = slow
	k, _, err := MinFeasibleK(cfg, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if k <= 2 {
		t.Fatalf("k = %d, want a bank wider than kMin for a slow tier", k)
	}
	cfg.K = k - 1
	if _, err := BufferPlan(cfg); err == nil {
		t.Errorf("k-1 = %d unexpectedly feasible; MinFeasibleK not minimal", k-1)
	}
	cfg.K = k
	if _, err := BufferPlan(cfg); err != nil {
		t.Errorf("returned k = %d not feasible: %v", k, err)
	}
}

func TestMinFeasibleKExhaustsRange(t *testing.T) {
	// A tier that cannot hold even one stream's staging data stays
	// infeasible at every k in range: the error must wrap ErrInfeasible.
	tiny := g3Spec()
	cfg := bufCfg(150, 0)
	cfg.Tier = tiny
	cfg.SizePerDevice = 1 // one byte per device
	_, _, err := MinFeasibleK(cfg, 2, 8)
	if err == nil {
		t.Fatal("infeasible config accepted")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("error %v does not wrap ErrInfeasible", err)
	}
}

func TestMaxFeasibleBoundaries(t *testing.T) {
	// Nothing feasible: even n=1 fails.
	if n := MaxFeasible(func(int) bool { return false }); n != 0 {
		t.Errorf("all-infeasible: got %d, want 0", n)
	}
	// Exactly n=1 feasible (the doubling probe starts above it).
	if n := MaxFeasible(func(n int) bool { return n <= 1 }); n != 1 {
		t.Errorf("n*=1: got %d, want 1", n)
	}
	// Thresholds on and off powers of two, where lo/hi bracketing is
	// easiest to get wrong.
	for _, want := range []int{2, 3, 64, 100, 1023, 1024, 1025} {
		want := want
		got := MaxFeasible(func(n int) bool { return n <= want })
		if got != want {
			t.Errorf("n*=%d: got %d", want, got)
		}
	}
}

func TestMaxFeasibleNonMonotone(t *testing.T) {
	// MaxFeasible assumes monotone feasibility. With a non-monotone
	// predicate (a feasibility island at [1,10] and another at [30,40])
	// the binary search must still terminate and report a point inside
	// the first island rather than hanging or escaping past the last
	// infeasible probe.
	pred := func(n int) bool { return n <= 10 || (n >= 30 && n <= 40) }
	got := MaxFeasible(pred)
	if !pred(got) {
		t.Fatalf("returned infeasible n = %d", got)
	}
	if got < 10 {
		t.Errorf("returned n = %d below the first island's edge 10", got)
	}
}
