package workload

import (
	"math"
	"testing"

	"memstream/internal/sim"
	"memstream/internal/units"
)

func testCatalog(t *testing.T, n int, w []float64) *Catalog {
	t.Helper()
	cat, err := NewCatalog(n, MP3, w, 512)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestSamplerMatchesLinearScanSequence is the pinned-sequence gate: for a
// shared RNG stream, the O(1) sampler must reproduce the legacy linear
// scan's draws byte for byte — same title IDs from the same Float64s —
// across the popularity shapes the rigs actually use.
func TestSamplerMatchesLinearScanSequence(t *testing.T) {
	shapes := map[string][]float64{
		"xy-10-90-64":   XYDistribution{X: 10, Y: 90}.Weights(64),
		"xy-1-99-200":   XYDistribution{X: 1, Y: 99}.Weights(200),
		"xy-50-50-100":  XYDistribution{X: 50, Y: 50}.Weights(100),
		"zipf-1.0-1000": Zipf(1000, 1.0),
		"zipf-0.5-64":   Zipf(64, 0.5),
		"single":        {1},
		"lopsided":      {1e-30, 0.9, 1e-30, 0.1, 1e-300},
	}
	for name, w := range shapes {
		t.Run(name, func(t *testing.T) {
			cat := testCatalog(t, len(w), w)
			fast, slow := sim.NewRNG(42), sim.NewRNG(42)
			for i := 0; i < 20000; i++ {
				f := cat.Pick(fast)
				l := cat.pickLinear(slow)
				if f != l {
					t.Fatalf("draw %d: sampler chose title %d, linear scan %d", i, f.ID, l.ID)
				}
			}
			if cat.sampler == nil {
				t.Fatal("the draws went through the scan: sampler refused a well-formed weight vector")
			}
		})
	}
}

// TestSamplerExactAtBoundaries probes every internal decision boundary:
// at bound[i] and one ulp on either side, the sampler and the subtraction
// scan must resolve the same rank. This is the strongest form of the
// equivalence claim — random draws rarely land within an ulp of a bound.
func TestSamplerExactAtBoundaries(t *testing.T) {
	for _, w := range [][]float64{
		XYDistribution{X: 10, Y: 90}.Weights(100),
		Zipf(300, 1.2),
		{0.25, 0.25, 0.25, 0.25},
		{1e-9, 0.5, 1e-9, 0.5 - 3e-9, 1e-9},
	} {
		cat := testCatalog(t, len(w), w)
		cat.Pick(sim.NewRNG(1)) // the first draw builds the sampler
		s := cat.sampler
		if s == nil {
			t.Fatal("sampler refused a well-formed weight vector")
		}
		probe := func(u float64) {
			t.Helper()
			if u < 0 || u > s.total {
				return
			}
			if got, want := s.at(u), cat.pickLinearAt(u); got != want {
				t.Fatalf("u=%.20g: sampler rank %d, linear rank %d", u, got, want)
			}
		}
		probe(0)
		probe(s.total)
		for _, b := range s.bounds {
			probe(math.Nextafter(b, math.Inf(-1)))
			probe(b)
			probe(math.Nextafter(b, math.Inf(1)))
		}
	}
}

// TestSamplerChiSquared checks the draw distribution against the exact
// Zipf weights at several exponents: with 200k draws over 100 titles the
// χ² statistic should sit far below the df=99, p=0.001 critical value
// (~149) unless the sampler is biased.
func TestSamplerChiSquared(t *testing.T) {
	const n, draws = 100, 200000
	for _, alpha := range []float64{0.5, 0.8, 1.0, 1.2, 1.5} {
		w := Zipf(n, alpha)
		cat := testCatalog(t, n, w)
		rng := sim.NewRNG(7)
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[cat.Pick(rng).Rank]++
		}
		var chi2 float64
		for i, c := range counts {
			exp := w[i] * draws
			d := float64(c) - exp
			chi2 += d * d / exp
		}
		if chi2 > 149 {
			t.Errorf("alpha=%.1f: chi²=%.1f exceeds the df=99 p=0.001 critical value", alpha, chi2)
		}
	}
}

// TestSamplerSplitDeterminism: generators seeded from the same RNG.Split
// lineage draw identical populations — the property the shard layer's
// per-partition seeding relies on.
func TestSamplerSplitDeterminism(t *testing.T) {
	w := XYDistribution{X: 10, Y: 90}.Weights(64)
	cat := testCatalog(t, 64, w)
	seq := func() []int {
		rng := sim.NewRNG(99).Split()
		out := make([]int, 4096)
		for i := range out {
			out[i] = cat.Pick(rng).ID
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged under identical Split lineage: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSamplerRefusesDegenerateWeights: the inversion is only sound for
// finite non-negative weights with a positive finite total; anything
// else is refused rather than mis-sampled.
func TestSamplerRefusesDegenerateWeights(t *testing.T) {
	for name, tc := range map[string]struct {
		w     []float64
		total float64
	}{
		"nan":      {[]float64{0.5, math.NaN()}, math.NaN()},
		"negative": {[]float64{0.5, -0.1, 0.6}, 1.0},
		"inf":      {[]float64{math.Inf(1), 1}, math.Inf(1)},
		"zero":     {[]float64{0, 0}, 0},
		"overflow": {[]float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		"empty":    {nil, 0},
	} {
		if s := NewSampler(tc.w, tc.total); s != nil {
			t.Errorf("%s: sampler accepted degenerate weights", name)
		}
	}
}

// TestNewCatalogRejectsDegenerateWeights: NewCatalog accepts only weights
// the sampler can invert, so Pick has no fallback: each kind of
// degenerate weight vector is an error.
func TestNewCatalogRejectsDegenerateWeights(t *testing.T) {
	for name, w := range map[string][]float64{
		"nan weight":      {0.5, math.NaN()},
		"+inf weight":     {math.Inf(1), 1},
		"-inf weight":     {1, math.Inf(-1)},
		"negative weight": {0.5, -0.1, 0.6},
		"zero total":      {0, 0},
		"negative zero":   {math.Copysign(0, -1)},
		"infinite total":  {math.MaxFloat64, math.MaxFloat64},
	} {
		if cat, err := NewCatalog(len(w), MP3, w, 512); err == nil {
			t.Errorf("%s: NewCatalog accepted %v (total %g)", name, w, cat.total)
		}
	}
	// Zero weights beside a positive one are fine: those titles are never drawn.
	cat := testCatalog(t, 3, []float64{0, 1, 0})
	rng := sim.NewRNG(3)
	for i := 0; i < 100; i++ {
		if got := cat.Pick(rng).Rank; got != 1 {
			t.Fatalf("drew rank %d, want only the one positive weight", got)
		}
	}
}

// pickLinear is the legacy draw Pick replaced, the sampler's behavioral
// reference: one Float64 scaled to the weight total, walked down the
// weights until it crosses zero.
func (c *Catalog) pickLinear(rng *sim.RNG) *Title {
	return &c.Titles[c.pickLinearAt(rng.Float64()*c.total)]
}

// pickLinearAt resolves an explicit u against the subtraction scan — the
// oracle the sampler equivalence tests probe boundary-by-boundary.
func (c *Catalog) pickLinearAt(u float64) int {
	for i := range c.Titles {
		u -= c.Titles[i].Weight
		if u <= 0 {
			return i
		}
	}
	return len(c.Titles) - 1
}

// TestCatalogBuildsSamplerOnFirstPick: laying a catalog out and summing
// over it leave the O(n²) sampler unbuilt; the first draw builds it, once.
func TestCatalogBuildsSamplerOnFirstPick(t *testing.T) {
	w := Zipf(300, 1.0)
	cat := testCatalog(t, len(w), w)
	if cat.TopFraction(0.1) <= 0 || cat.TotalSize() <= 0 {
		t.Fatal("catalog sums are empty")
	}
	if cat.sampler != nil {
		t.Fatal("NewCatalog + TopFraction + TotalSize built the sampler")
	}
	rng := sim.NewRNG(8)
	cat.Pick(rng)
	first := cat.sampler
	if first == nil {
		t.Fatal("first Pick left the sampler unbuilt")
	}
	cat.Pick(rng)
	if cat.sampler != first {
		t.Error("second Pick rebuilt the sampler")
	}
}

func benchmarkPick(b *testing.B, n int, linear bool) {
	w := Zipf(n, 1.0)
	cat, err := NewCatalog(n, MediaClass{Name: "b", BitRate: 100 * units.KBPS,
		Duration: MP3.Duration}, w, 512)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		if linear {
			sink += cat.pickLinear(rng).Rank
		} else {
			sink += cat.Pick(rng).Rank
		}
	}
	_ = sink
}

func BenchmarkSamplerPick64(b *testing.B)      { benchmarkPick(b, 64, false) }
func BenchmarkSamplerPick4096(b *testing.B)    { benchmarkPick(b, 4096, false) }
func BenchmarkLinearScanPick64(b *testing.B)   { benchmarkPick(b, 64, true) }
func BenchmarkLinearScanPick4096(b *testing.B) { benchmarkPick(b, 4096, true) }
