package model

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/units"
	"memstream/internal/workload"
)

func TestHitRatioEquation11(t *testing.T) {
	tests := []struct {
		x, y, p float64
		want    float64
	}{
		{10, 90, 0.10, 0.90}, // p = X: all hot content cached
		{10, 90, 0.05, 0.45}, // p = X/2: half the hot share
		{10, 90, 0.55, 0.95}, // p > X: hot plus half the cold
		{10, 90, 1.00, 1.00}, // everything cached
		{10, 90, 0.00, 0.00}, // nothing cached
		{1, 99, 0.01, 0.99},  // 1:99 with one device caching 1% (paper Fig 9a, $50)
		{50, 50, 0.50, 0.50}, // uniform popularity: h = p
		{50, 50, 0.25, 0.25}, // uniform: h scales linearly
		{20, 80, 0.10, 0.40}, // below the knee
	}
	for _, tc := range tests {
		got, err := HitRatio(tc.x, tc.y, tc.p)
		if err != nil {
			t.Errorf("HitRatio(%g,%g,%g): %v", tc.x, tc.y, tc.p, err)
			continue
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("HitRatio(%g,%g,%g) = %v, want %v", tc.x, tc.y, tc.p, got, tc.want)
		}
	}
}

func TestHitRatioErrors(t *testing.T) {
	for _, bad := range [][3]float64{{0, 90, 0.1}, {101, 90, 0.1}, {10, 0, 0.1}, {10, 101, 0.1}, {10, 90, -0.1}} {
		if _, err := HitRatio(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("HitRatio(%v) accepted", bad)
		}
	}
	// p > 1 clamps rather than failing.
	if h, err := HitRatio(10, 90, 1.5); err != nil || h != 1 {
		t.Errorf("HitRatio(p=1.5) = %v, %v; want 1, nil", h, err)
	}
}

// Property: the hit ratio is monotone in p and within [0,1].
func TestHitRatioMonotoneProperty(t *testing.T) {
	f := func(x, y uint8, pa, pb uint8) bool {
		xv, yv := float64(x%99)+1, float64(y%99)+1
		a, b := float64(pa)/255, float64(pb)/255
		if a > b {
			a, b = b, a
		}
		ha, errA := HitRatio(xv, yv, a)
		hb, errB := HitRatio(xv, yv, b)
		if errA != nil || errB != nil {
			return false
		}
		return ha <= hb+1e-12 && ha >= 0 && hb <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStripedCacheFormula(t *testing.T) {
	// Eq 12 with n=100, k=4, B̄=100KB/s, G3:
	// S = n·L̄·(kR)·B̄/(kR − n·B̄)
	n, k := 100, 4
	br := 100 * units.KBPS
	plan, err := StripedCache(n, k, br, g3Spec())
	if err != nil {
		t.Fatal(err)
	}
	kr := 4 * 320e6
	want := 100 * 0.00059 * kr * 1e5 / (kr - 100*1e5)
	if math.Abs(float64(plan.PerStream)-want) > 1 {
		t.Errorf("S = %v, want %v", plan.PerStream, units.Bytes(want))
	}
}

func TestReplicatedCacheFormula(t *testing.T) {
	// Eq 13 with n=100, k=4: m = (n+k-1)/k = 25.75 streams per device.
	n, k := 100, 4
	br := 100 * units.KBPS
	plan, err := ReplicatedCache(n, k, br, g3Spec())
	if err != nil {
		t.Fatal(err)
	}
	kr := 4 * 320e6
	m := float64(n+k-1) / float64(k)
	want := 1e5 * (m * 0.00059 * kr / (kr - float64(n+k-1)*1e5))
	if math.Abs(float64(plan.PerStream)-want) > 1 {
		t.Errorf("S = %v, want %v", plan.PerStream, units.Bytes(want))
	}
}

func TestReplicatedBeatsStripedForManyStreams(t *testing.T) {
	// With n ≫ k, replication's ~k× lower effective latency shrinks the
	// per-stream buffer by nearly k× (paper §5.2.1: replication wins for
	// highly skewed popularity where all hits fit either way).
	n, k := 1000, 4
	br := 10 * units.KBPS
	st, err := StripedCache(n, k, br, g3Spec())
	if err != nil {
		t.Fatal(err)
	}
	re, err := ReplicatedCache(n, k, br, g3Spec())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(st.PerStream) / float64(re.PerStream)
	if ratio < 3 || ratio > 4.5 {
		t.Errorf("striped/replicated buffer ratio = %.2f, want ≈k=4", ratio)
	}
}

func TestCachesEquivalentAtK1(t *testing.T) {
	// Paper §5.2.1: "When k = 1, the replicated and striped caching is
	// equivalent."
	st, err := StripedCache(50, 1, units.MBPS, g3Spec())
	if err != nil {
		t.Fatal(err)
	}
	re, err := ReplicatedCache(50, 1, units.MBPS, g3Spec())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(st.PerStream-re.PerStream)) > 1e-6 {
		t.Errorf("k=1: striped %v != replicated %v", st.PerStream, re.PerStream)
	}
}

// Corollary 3: a striped bank equals a single device with k× throughput,
// same latency.
func TestCorollary3Property(t *testing.T) {
	f := func(kk, nn uint8) bool {
		k := int(kk%8) + 1
		n := int(nn) + 1
		sc, err := StripedCache(n, k, 100*units.KBPS, g3Spec())
		if err != nil {
			return true
		}
		eq := EffectiveBankSpec(g3Spec(), k, Striped)
		dp, err := DiskDirect(StreamLoad{N: n, BitRate: 100 * units.KBPS}, eq)
		if err != nil {
			return true
		}
		return math.Abs(float64(sc.PerStream-dp.PerStream)) < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Corollary 4: for n divisible by k, a replicated bank equals a single
// device with k× throughput and latency/k.
func TestCorollary4Property(t *testing.T) {
	f := func(kk, nn uint8) bool {
		k := int(kk%8) + 1
		n := (int(nn) + 1) * k * 50 // large and divisible by k
		rc, err := ReplicatedCache(n, k, 10*units.KBPS, g3Spec())
		if err != nil {
			return true
		}
		eq := EffectiveBankSpec(g3Spec(), k, Replicated)
		dp, err := DiskDirect(StreamLoad{N: n, BitRate: 10 * units.KBPS}, eq)
		if err != nil {
			return true
		}
		rel := math.Abs(float64(rc.PerStream-dp.PerStream)) / float64(dp.PerStream)
		return rel < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCacheBandwidthValidity(t *testing.T) {
	// Beyond k·R_mems of aggregate demand the cache is infeasible.
	_, err := StripedCache(33, 1, 10*units.MBPS, g3Spec()) // 330MB/s > 320MB/s
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("striped overload: %v", err)
	}
	_, err = ReplicatedCache(3200, 1, 100*units.KBPS, g3Spec()) // exactly R
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("replicated overload: %v", err)
	}
}

func TestCacheArgValidation(t *testing.T) {
	if _, err := StripedCache(0, 1, units.MBPS, g3Spec()); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := ReplicatedCache(1, 0, units.MBPS, g3Spec()); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := StripedCache(1, 1, 0, g3Spec()); err == nil {
		t.Error("zero bit-rate accepted")
	}
}

func TestCachedFraction(t *testing.T) {
	cfg := CacheConfig{
		Load: StreamLoad{N: 100, BitRate: units.MBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(),
		K: 4, SizePerDevice: 10 * units.GB, ContentSize: 1000 * units.GB,
		X: 10, Y: 90,
	}
	cfg.Policy = Striped
	if got := cfg.CachedFraction(); math.Abs(got-0.04) > 1e-12 {
		t.Errorf("striped p = %v, want 0.04", got)
	}
	cfg.Policy = Replicated
	if got := cfg.CachedFraction(); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("replicated p = %v, want 0.01", got)
	}
	// Cache bigger than the catalog clamps to 1.
	cfg.ContentSize = 5 * units.GB
	if got := cfg.CachedFraction(); got != 1 {
		t.Errorf("oversized cache p = %v, want 1", got)
	}
}

func TestCachePlanSplitsStreams(t *testing.T) {
	cfg := CacheConfig{
		Load: StreamLoad{N: 1000, BitRate: 10 * units.KBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(),
		K: 1, Policy: Striped,
		SizePerDevice: 10 * units.GB, ContentSize: 1000 * units.GB,
		X: 1, Y: 99,
	}
	plan, err := CachePlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// p = 1% = X ⇒ h = 0.99 ⇒ 990 streams from the cache.
	if math.Abs(plan.HitRatio-0.99) > 1e-12 {
		t.Errorf("h = %v, want 0.99", plan.HitRatio)
	}
	if plan.FromCache != 990 || plan.FromDisk != 10 {
		t.Errorf("split = %d/%d, want 990/10", plan.FromCache, plan.FromDisk)
	}
	if plan.TotalDRAM != plan.CacheSide.TotalDRAM+plan.DiskSide.TotalDRAM {
		t.Error("total DRAM mismatch")
	}
	if plan.TotalDRAM <= 0 {
		t.Error("zero DRAM plan")
	}
}

func TestCachePlanAllFromCache(t *testing.T) {
	cfg := CacheConfig{
		Load: StreamLoad{N: 100, BitRate: 10 * units.KBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(),
		K: 1, Policy: Replicated,
		SizePerDevice: 10 * units.GB, ContentSize: 10 * units.GB, // whole catalog cached
		X: 10, Y: 90,
	}
	plan, err := CachePlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.HitRatio != 1 || plan.FromDisk != 0 {
		t.Errorf("h=%v fromDisk=%d, want 1, 0", plan.HitRatio, plan.FromDisk)
	}
	if plan.DiskSide.TotalDRAM != 0 {
		t.Error("disk side should be empty")
	}
}

func TestCachePlanValidation(t *testing.T) {
	bad := CacheConfig{}
	if _, err := CachePlan(bad); err == nil {
		t.Error("zero config accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if Striped.String() != "striped" || Replicated.String() != "replicated" {
		t.Error("policy names wrong")
	}
}

func TestCostModel(t *testing.T) {
	c := Table3Costs()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.DeviceCost(0); math.Abs(float64(got-10)) > 1e-9 {
		t.Errorf("device cost = %v, want $10", got)
	}
	if got := c.BankCost(4); math.Abs(float64(got-40)) > 1e-9 {
		t.Errorf("bank cost = %v, want $40", got)
	}
	if got := c.DRAMCost(5 * units.GB); math.Abs(float64(got-100)) > 1e-9 {
		t.Errorf("DRAM cost = %v, want $100", got)
	}
	// The paper's headline ratio: MEMS buffering is 20x cheaper per byte.
	if ratio := float64(c.DRAMPerGB) / float64(c.Tiers[0].PerGB); ratio != 20 {
		t.Errorf("DRAM/MEMS price ratio = %v, want 20", ratio)
	}
	if got := c.DRAMFor(100); got != 5*units.GB {
		t.Errorf("DRAMFor($100) = %v, want 5GB", got)
	}
	if got := c.DRAMFor(-1); got != 0 {
		t.Errorf("DRAMFor(-$1) = %v, want 0", got)
	}
}

func TestCostModelValidate(t *testing.T) {
	for _, c := range []CostModel{
		NewCostModel(0, 1, units.GB),
		NewCostModel(20, 0, units.GB),
		NewCostModel(20, 1, 0),
		{DRAMPerGB: 20}, // no tiers at all
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("cost model %+v accepted", c)
		}
	}
}

func TestCostWithBufferCheaperAtLowBitRates(t *testing.T) {
	// The paper's guideline (i): MEMS buffering cuts cost for low/medium
	// bit-rates.
	costs := Table3Costs()
	load := StreamLoad{N: 10000, BitRate: 10 * units.KBPS}
	without, err := CostWithoutMEMS(load, futureDiskSpec(), costs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := BufferConfig{Load: load, Disk: futureDiskSpec(), Tier: g3Spec(),
		K: 2, SizePerDevice: 10 * units.GB}
	with, err := CostWithBuffer(cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	if with >= without {
		t.Errorf("buffered cost %v not below direct cost %v", with, without)
	}
	reduction := 1 - float64(with)/float64(without)
	// Paper §5.1.2: 80–90% cost reduction.
	if reduction < 0.5 {
		t.Errorf("cost reduction = %.0f%%, paper reports 80–90%%", reduction*100)
	}
}

func TestMaxStreamsCachedBeatsDirectForSkewedPopularity(t *testing.T) {
	// Figure 9(a) behaviour at 1:99: a cache-equipped server at equal cost
	// beats the no-cache server.
	costs := Table3Costs()
	budget := units.Dollars(50)
	dramOnly := costs.DRAMFor(budget)
	direct := MaxStreamsDirect(10*units.KBPS, futureDiskSpec(), dramOnly)

	k := 1
	dramWithCache := costs.DRAMFor(budget - costs.BankCost(k))
	cfg := CacheConfig{
		Load: StreamLoad{N: 1, BitRate: 10 * units.KBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(),
		K: k, Policy: Striped,
		SizePerDevice: 10 * units.GB, ContentSize: 1000 * units.GB,
		X: 1, Y: 99,
	}
	cached := MaxStreamsCached(cfg, dramWithCache)
	if cached <= direct {
		t.Errorf("cached max %d not above direct max %d at 1:99", cached, direct)
	}
}

func TestMaxStreamsCachedUniformPopularityNotCostEffective(t *testing.T) {
	// Figure 9(a) at 50:50: the cache cannot pay for itself.
	costs := Table3Costs()
	budget := units.Dollars(50)
	direct := MaxStreamsDirect(10*units.KBPS, futureDiskSpec(), costs.DRAMFor(budget))
	cfg := CacheConfig{
		Load: StreamLoad{N: 1, BitRate: 10 * units.KBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(),
		K: 1, Policy: Striped,
		SizePerDevice: 10 * units.GB, ContentSize: 1000 * units.GB,
		X: 50, Y: 50,
	}
	cached := MaxStreamsCached(cfg, costs.DRAMFor(budget-costs.BankCost(1)))
	if cached >= direct {
		t.Errorf("uniform popularity: cached %d should not beat direct %d", cached, direct)
	}
}

// Consistency: CachePlan equals CachePlanWithHit at Eq 11's own h.
func TestCachePlanWithHitConsistencyProperty(t *testing.T) {
	f := func(nn uint16, xRaw, yRaw uint8) bool {
		x := float64(xRaw%50) + 1
		y := x + float64(yRaw)*(99-x)/255 // ensure Y ≥ X
		cfg := CacheConfig{
			Load: StreamLoad{N: int(nn%2000) + 10, BitRate: 10 * units.KBPS},
			Disk: futureDiskSpec(), Tier: g3Spec(),
			K: 2, Policy: Striped,
			SizePerDevice: 10 * units.GB, ContentSize: 1000 * units.GB,
			X: x, Y: y,
		}
		a, errA := CachePlan(cfg)
		h, errH := HitRatio(x, y, cfg.CachedFraction())
		if errH != nil {
			return false
		}
		b, errB := CachePlanWithHit(cfg, h)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		return a.FromCache == b.FromCache && a.TotalDRAM == b.TotalDRAM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCachePlanWithHitValidation(t *testing.T) {
	cfg := CacheConfig{
		Load: StreamLoad{N: 100, BitRate: 10 * units.KBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(),
		K: 1, Policy: Striped,
		SizePerDevice: 10 * units.GB, ContentSize: 1000 * units.GB,
	}
	// X/Y zero: they are ignored, the supplied h governs.
	plan, err := CachePlanWithHit(cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.FromCache != 50 {
		t.Errorf("FromCache = %d, want 50", plan.FromCache)
	}
	for _, h := range []float64{-0.1, 1.1} {
		if _, err := CachePlanWithHit(cfg, h); err == nil {
			t.Errorf("h=%v accepted", h)
		}
	}
}

// Regression: X/Y must be ignored entirely on the WithHit path. The old
// code only substituted placeholders for the exact pair X==0 && Y==0, so
// a single-zero pair (out of range for Eq 11, but irrelevant here) drew a
// spurious "X:Y out of range" error.
func TestCachePlanWithHitIgnoresPartialXY(t *testing.T) {
	// An empirical-Zipf hit ratio, as a caller bypassing Eq 11 would
	// supply: the probability mass of the cached prefix of a Zipf(1.0)
	// catalog.
	w := workload.Zipf(1000, 1.0)
	cat, err := workload.NewCatalog(1000, workload.MediaClass{
		Name: "zipf", BitRate: 10 * units.KBPS, Duration: time.Hour,
	}, w, 512)
	if err != nil {
		t.Fatal(err)
	}
	h := cat.TopFraction(0.02)
	if h <= 0 || h >= 1 {
		t.Fatalf("empirical hit ratio %v outside (0,1)", h)
	}

	base := CacheConfig{
		Load: StreamLoad{N: 100, BitRate: 10 * units.KBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(),
		K: 2, Policy: Striped,
		SizePerDevice: 10 * units.GB, ContentSize: 1000 * units.GB,
	}
	var want CachedPlan
	for i, xy := range []struct{ x, y float64 }{{0, 0}, {0, 40}, {40, 0}, {10, 90}} {
		cfg := base
		cfg.X, cfg.Y = xy.x, xy.y
		plan, err := CachePlanWithHit(cfg, h)
		if err != nil {
			t.Fatalf("X=%g Y=%g: %v", xy.x, xy.y, err)
		}
		if i == 0 {
			want = plan
			continue
		}
		if plan != want {
			t.Errorf("X=%g Y=%g: plan differs from zeroed-X/Y plan", xy.x, xy.y)
		}
	}
}

// Equivalence: a one-device striped cache is exactly Corollary 1's direct
// MEMS service.
func TestStripedK1EqualsMEMSDirectProperty(t *testing.T) {
	f := func(nn uint16) bool {
		n := int(nn%3000) + 1
		sc, errA := StripedCache(n, 1, 10*units.KBPS, g3Spec())
		md, errB := MEMSDirect(StreamLoad{N: n, BitRate: 10 * units.KBPS}, g3Spec())
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		return sc.PerStream == md.PerStream && sc.Cycle == md.Cycle
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
