package cache

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/model"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// dvd is the paper's DVD media class.
var dvd = workload.MediaClass{Name: "DVD", BitRate: units.MBPS, Duration: 110 * time.Minute}

func catalog(t *testing.T, n int, d workload.XYDistribution) *workload.Catalog {
	t.Helper()
	cat, err := workload.NewCatalog(n, dvd, d.Weights(n), 512)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestPlanPinsPopularPrefix(t *testing.T) {
	cat := catalog(t, 100, workload.XYDistribution{X: 10, Y: 90})
	// Room for 5 DVD titles (6.6GB each).
	p, err := Plan(cat, 33*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Titles) != 5 {
		t.Fatalf("pinned %d titles, want 5", len(p.Titles))
	}
	for i, id := range p.Titles {
		if id != i {
			t.Errorf("pinned title %d at slot %d, want ranked prefix", id, i)
		}
	}
	if p.Used != 5*dvd.Size() {
		t.Errorf("used = %v", p.Used)
	}
	if math.Abs(p.Fraction-0.05) > 1e-9 {
		t.Errorf("fraction = %v, want 0.05", p.Fraction)
	}
}

func TestPlanErrors(t *testing.T) {
	cat := catalog(t, 10, workload.XYDistribution{X: 10, Y: 90})
	if _, err := Plan(nil, units.GB); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := Plan(cat, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestPlanHitRatioMatchesEquation11(t *testing.T) {
	// Pinning the top 5% of a 10:90 catalog should give h ≈ (5/10)·0.9.
	cat := catalog(t, 200, workload.XYDistribution{X: 10, Y: 90})
	p, err := Plan(cat, 10*dvd.Size())
	if err != nil {
		t.Fatal(err)
	}
	got := p.HitRatio(cat)
	want, _ := model.HitRatio(10, 90, 0.05)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("placement h = %v, Eq 11 h = %v", got, want)
	}
}

func TestPlacementContains(t *testing.T) {
	cat := catalog(t, 20, workload.XYDistribution{X: 10, Y: 90})
	p, _ := Plan(cat, 3*dvd.Size())
	if !p.Contains(0) || !p.Contains(2) {
		t.Error("prefix titles missing")
	}
	if p.Contains(10) {
		t.Error("unpinned title reported present")
	}
}

func TestPlanHybridPureCacheWinsForSkewedPopularity(t *testing.T) {
	disk := model.DeviceSpec{Rate: 300 * units.MBPS, Latency: units.Milliseconds(4.3)}
	memsSpec := model.DeviceSpec{Rate: 320 * units.MBPS, Latency: units.Milliseconds(0.59)}
	split, err := PlanHybrid(4, 10*units.GB, disk, memsSpec,
		10*units.KBPS, 1000*units.GB, 1, 99, 2*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if split.Streams <= 0 {
		t.Fatal("no streams sustained")
	}
	// With 1:99 popularity and 4% coverage of the hot set, caching should
	// dominate the split.
	if split.CacheBytes < split.BufferBytes {
		t.Errorf("split = cache %v / buffer %v; expected cache-heavy", split.CacheBytes, split.BufferBytes)
	}
}

func TestPlanHybridBufferWinsForUniformPopularity(t *testing.T) {
	disk := model.DeviceSpec{Rate: 300 * units.MBPS, Latency: units.Milliseconds(4.3)}
	memsSpec := model.DeviceSpec{Rate: 320 * units.MBPS, Latency: units.Milliseconds(0.59)}
	split, err := PlanHybrid(4, 10*units.GB, disk, memsSpec,
		10*units.KBPS, 1000*units.GB, 50, 50, 2*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform popularity: a 4% cache absorbs only 4% of traffic, so
	// buffering should carry the split (the paper's §7 motivation).
	if split.BufferBytes < split.CacheBytes {
		t.Errorf("split = cache %v / buffer %v; expected buffer-heavy", split.CacheBytes, split.BufferBytes)
	}
}

func TestPlanHybridErrors(t *testing.T) {
	disk := model.DeviceSpec{Rate: 300 * units.MBPS, Latency: units.Milliseconds(4.3)}
	memsSpec := model.DeviceSpec{Rate: 320 * units.MBPS, Latency: units.Milliseconds(0.59)}
	if _, err := PlanHybrid(0, 10*units.GB, disk, memsSpec, units.MBPS, units.TB, 10, 90, units.GB); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := PlanHybrid(2, 0, disk, memsSpec, units.MBPS, units.TB, 10, 90, units.GB); err == nil {
		t.Error("zero per-device accepted")
	}
}

func TestLRUBasics(t *testing.T) {
	c, err := NewLRU(10 * units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(1, 4*units.GB) {
		t.Error("first access hit")
	}
	if !c.Access(1, 4*units.GB) {
		t.Error("second access missed")
	}
	if c.Used() != 4*units.GB || c.Len() != 1 {
		t.Errorf("used=%v len=%d", c.Used(), c.Len())
	}
	if c.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v", c.HitRatio())
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c, _ := NewLRU(10 * units.GB)
	c.Access(1, 4*units.GB)
	c.Access(2, 4*units.GB)
	c.Access(1, 4*units.GB) // refresh 1
	c.Access(3, 4*units.GB) // evicts 2
	if !c.Contains(1) || !c.Contains(3) {
		t.Error("expected 1 and 3 resident")
	}
	if c.Contains(2) {
		t.Error("2 should have been evicted")
	}
}

func TestLRUOversizedNeverInserted(t *testing.T) {
	c, _ := NewLRU(1 * units.GB)
	if c.Access(1, 2*units.GB) {
		t.Error("oversized access hit")
	}
	if c.Len() != 0 || c.Used() != 0 {
		t.Error("oversized title inserted")
	}
}

func TestLRUValidation(t *testing.T) {
	if _, err := NewLRU(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

// On a popularity-skewed stream of accesses, pinned placement (which knows
// the distribution) should match or beat LRU — streaming data has no
// temporal locality beyond popularity.
func TestPinnedBeatsOrMatchesLRU(t *testing.T) {
	dist := workload.XYDistribution{X: 5, Y: 95}
	cat := catalog(t, 200, dist)
	capacity := 10 * dvd.Size()

	pinned, err := Plan(cat, capacity)
	if err != nil {
		t.Fatal(err)
	}
	lru, _ := NewLRU(capacity)
	rng := sim.NewRNG(11)
	var pinnedHits, accesses int
	for i := 0; i < 20000; i++ {
		title := cat.Pick(rng)
		accesses++
		if pinned.Contains(title.ID) {
			pinnedHits++
		}
		lru.Access(title.ID, title.Size)
	}
	pinnedRatio := float64(pinnedHits) / float64(accesses)
	if pinnedRatio < lru.HitRatio()-0.02 {
		t.Errorf("pinned hit ratio %.3f below LRU %.3f", pinnedRatio, lru.HitRatio())
	}
}

// Property: LRU never exceeds its capacity.
func TestLRUCapacityProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c, err := NewLRU(1 * units.GB)
		if err != nil {
			return false
		}
		for _, op := range ops {
			c.Access(int(op%32), units.Bytes(op)*10*units.MB)
			if c.Used() > 1*units.GB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
