package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/sim"
	"memstream/internal/units"
)

func TestMediaClassesMatchPaper(t *testing.T) {
	want := map[string]units.ByteRate{
		"mp3":  10 * units.KBPS,
		"DivX": 100 * units.KBPS,
		"DVD":  1 * units.MBPS,
		"HDTV": 10 * units.MBPS,
	}
	for _, c := range Classes() {
		if c.BitRate != want[c.Name] {
			t.Errorf("%s bit-rate = %v, want %v", c.Name, c.BitRate, want[c.Name])
		}
	}
}

func TestMediaClassSize(t *testing.T) {
	// A 110-minute DVD title at 1MB/s is 6.6GB.
	if got := DVD.Size(); got != 6600*units.MB {
		t.Errorf("DVD size = %v, want 6.6GB", got)
	}
}

func TestXYValidate(t *testing.T) {
	for _, d := range PaperDistributions() {
		if err := d.Validate(); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
	for _, d := range []XYDistribution{{0, 50}, {50, 0}, {101, 50}, {50, 101}, {-1, 50}} {
		if err := d.Validate(); err == nil {
			t.Errorf("%v accepted", d)
		}
	}
}

func TestXYString(t *testing.T) {
	if got := (XYDistribution{10, 90}).String(); got != "10:90" {
		t.Errorf("String = %q", got)
	}
}

func TestXYWeightsSumToOne(t *testing.T) {
	for _, d := range PaperDistributions() {
		w := d.Weights(1000)
		var sum float64
		for _, x := range w {
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v: weights sum to %v", d, sum)
		}
	}
}

func TestXYWeightsSkew(t *testing.T) {
	// 10:90 over 100 titles: top 10 each get 9%, rest get ~0.11%.
	w := (XYDistribution{10, 90}).Weights(100)
	if math.Abs(w[0]-0.09) > 1e-12 {
		t.Errorf("hot weight = %v, want 0.09", w[0])
	}
	if math.Abs(w[99]-0.1/90) > 1e-12 {
		t.Errorf("cold weight = %v, want %v", w[99], 0.1/90)
	}
	if w[9] <= w[10] {
		t.Error("boundary not monotone")
	}
}

func TestXYWeightsUniformAt5050(t *testing.T) {
	w := (XYDistribution{50, 50}).Weights(10)
	for i := 1; i < len(w); i++ {
		if math.Abs(w[i]-w[0]) > 1e-12 {
			t.Fatalf("50:50 weights not uniform: %v", w)
		}
	}
}

func TestXYWeightsEdgeCases(t *testing.T) {
	if w := (XYDistribution{10, 90}).Weights(0); w != nil {
		t.Error("Weights(0) should be nil")
	}
	w := (XYDistribution{1, 99}).Weights(1)
	if len(w) != 1 || math.Abs(w[0]-1) > 1e-12 {
		t.Errorf("single-title weights = %v", w)
	}
}

func TestZipf(t *testing.T) {
	w := Zipf(100, 1)
	var sum float64
	for i, x := range w {
		sum += x
		if i > 0 && x > w[i-1] {
			t.Fatal("zipf weights not decreasing")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("zipf sum = %v", sum)
	}
	if math.Abs(w[0]/w[1]-2) > 1e-9 {
		t.Errorf("zipf(1) ratio w0/w1 = %v, want 2", w[0]/w[1])
	}
	if Zipf(0, 1) != nil {
		t.Error("Zipf(0) should be nil")
	}
}

func TestNewCatalog(t *testing.T) {
	d := XYDistribution{10, 90}
	cat, err := NewCatalog(50, DVD, d.Weights(50), 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Titles) != 50 {
		t.Fatalf("titles = %d", len(cat.Titles))
	}
	// Titles laid out contiguously without overlap.
	for i := 1; i < len(cat.Titles); i++ {
		prev, cur := cat.Titles[i-1], cat.Titles[i]
		prevBlocks := int64(prev.Size / 512)
		if cur.StartLB != prev.StartLB+prevBlocks {
			t.Fatalf("title %d starts at %d, want %d", i, cur.StartLB, prev.StartLB+prevBlocks)
		}
	}
	if got := cat.TotalSize(); got != 50*DVD.Size() {
		t.Errorf("TotalSize = %v", got)
	}
}

func TestNewCatalogErrors(t *testing.T) {
	if _, err := NewCatalog(0, DVD, nil, 512); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := NewCatalog(2, DVD, []float64{1}, 512); err == nil {
		t.Error("weight length mismatch accepted")
	}
	if _, err := NewCatalog(1, DVD, []float64{1}, 0); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestCatalogPickFollowsWeights(t *testing.T) {
	d := XYDistribution{10, 90}
	n := 100
	cat, _ := NewCatalog(n, MP3, d.Weights(n), 512)
	rng := sim.NewRNG(5)
	hot := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if cat.Pick(rng).Rank < 10 {
			hot++
		}
	}
	frac := float64(hot) / draws
	if math.Abs(frac-0.9) > 0.01 {
		t.Errorf("hot fraction = %v, want ≈0.9", frac)
	}
}

func TestTopFractionMatchesEquation11(t *testing.T) {
	// Paper Eq 11 with X:Y popularity: caching p ≤ X of the titles yields
	// h = (p/X)·Y; caching p > X yields h = Y + (p-X)/(100-X)·(100-Y).
	d := XYDistribution{10, 90}
	n := 1000
	cat, _ := NewCatalog(n, MP3, d.Weights(n), 512)
	// p = 5% (< X): h = 5/10*0.9 = 0.45
	if h := cat.TopFraction(0.05); math.Abs(h-0.45) > 1e-9 {
		t.Errorf("h(5%%) = %v, want 0.45", h)
	}
	// p = 10% (= X): h = 0.9
	if h := cat.TopFraction(0.10); math.Abs(h-0.90) > 1e-9 {
		t.Errorf("h(10%%) = %v, want 0.90", h)
	}
	// p = 55%: h = 0.9 + (45/90)*0.1 = 0.95
	if h := cat.TopFraction(0.55); math.Abs(h-0.95) > 1e-9 {
		t.Errorf("h(55%%) = %v, want 0.95", h)
	}
	if h := cat.TopFraction(1); math.Abs(h-1) > 1e-9 {
		t.Errorf("h(100%%) = %v, want 1", h)
	}
	if h := cat.TopFraction(0); h != 0 {
		t.Errorf("h(0) = %v", h)
	}
}

func TestGeneratorDraw(t *testing.T) {
	d := XYDistribution{20, 80}
	cat, _ := NewCatalog(100, DivX, d.Weights(100), 512)
	g := NewGenerator(cat, 1)
	set, err := g.DrawRange(0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Streams) != 500 {
		t.Fatalf("streams = %d", len(set.Streams))
	}
	for _, s := range set.Streams {
		if s.BitRate != DivX.BitRate {
			t.Fatalf("bit-rate %v, want the class's %v", s.BitRate, DivX.BitRate)
		}
		if s.Offset < 0 || s.Offset >= s.Title.Size {
			t.Fatalf("offset %v outside title of %v", s.Offset, s.Title.Size)
		}
	}
}

func TestGeneratorDrawErrors(t *testing.T) {
	cat, _ := NewCatalog(10, MP3, Zipf(10, 1), 512)
	g := NewGenerator(cat, 1)
	if _, err := g.DrawRange(0, 0); err == nil {
		t.Error("DrawRange(0, 0) accepted")
	}
	if _, err := g.DrawRange(-1, 10); err == nil {
		t.Error("DrawRange(-1, ...) accepted")
	}
}

// TestDrawRangePartitionAware: a nonzero firstID shifts only the IDs — titles and offsets stay the
// draws the seed dictates. Partitions built this way have globally unique
// IDs and per-seed-independent populations.
func TestDrawRangePartitionAware(t *testing.T) {
	d := XYDistribution{10, 90}
	cat, _ := NewCatalog(100, DVD, d.Weights(100), 512)
	base, err := NewGenerator(cat, 42).DrawRange(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	ranged, err := NewGenerator(cat, 42).DrawRange(1000, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Streams {
		b, r := base.Streams[i], ranged.Streams[i]
		if r.ID != 1000+i {
			t.Fatalf("stream %d: ID = %d, want %d", i, r.ID, 1000+i)
		}
		if b.Title.ID != r.Title.ID || b.Offset != r.Offset || b.BitRate != r.BitRate {
			t.Fatalf("stream %d: DrawRange(1000, n) draw differs from DrawRange(0, n): %+v vs %+v", i, r, b)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	d := XYDistribution{10, 90}
	cat, _ := NewCatalog(100, DVD, d.Weights(100), 512)
	a, _ := NewGenerator(cat, 42).DrawRange(0, 100)
	b, _ := NewGenerator(cat, 42).DrawRange(0, 100)
	for i := range a.Streams {
		if a.Streams[i].Title.ID != b.Streams[i].Title.ID {
			t.Fatal("same seed produced different draws")
		}
	}
}

func TestVBRTraceAndCushion(t *testing.T) {
	rng := sim.NewRNG(3)
	trace := VBRTrace(rng, 1*units.MBPS, 0.3, 1000)
	if len(trace) != 1000 {
		t.Fatalf("trace length = %d", len(trace))
	}
	var mean float64
	for _, r := range trace {
		if r <= 0 {
			t.Fatal("non-positive VBR rate")
		}
		mean += float64(r)
	}
	mean /= float64(len(trace))
	if math.Abs(mean-1e6) > 0.05e6 {
		t.Errorf("trace mean = %v, want ≈1MB/s", units.ByteRate(mean))
	}
	cushion := CushionFor(trace, time.Second)
	if cushion <= 0 {
		t.Error("VBR trace needs a positive cushion")
	}
	// A CBR "trace" needs no cushion.
	flat := []units.ByteRate{1e6, 1e6, 1e6}
	if c := CushionFor(flat, time.Second); c != 0 {
		t.Errorf("CBR cushion = %v, want 0", c)
	}
	if c := CushionFor(nil, time.Second); c != 0 {
		t.Errorf("empty cushion = %v", c)
	}
}

// Property: TopFraction is monotone nondecreasing in p and bounded by 1.
func TestTopFractionMonotoneProperty(t *testing.T) {
	d := XYDistribution{5, 95}
	cat, _ := NewCatalog(200, MP3, d.Weights(200), 512)
	f := func(a, b uint8) bool {
		pa, pb := float64(a)/255, float64(b)/255
		if pa > pb {
			pa, pb = pb, pa
		}
		ha, hb := cat.TopFraction(pa), cat.TopFraction(pb)
		return ha <= hb+1e-12 && hb <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for any strictly skewed X:Y (Y > X; at Y = X the ⌈X%·n⌉
// rounding can leave the hot group marginally under-weighted), weights
// are nonincreasing in rank.
func TestWeightsMonotoneProperty(t *testing.T) {
	f := func(x, y uint8) bool {
		xv, yv := float64(x%98)+1, float64(y%98)+1
		if yv < xv {
			xv, yv = yv, xv
		}
		if yv <= xv {
			yv = xv + 1 // strict skew; covers the ceiling error at n=150
		}
		d := XYDistribution{X: xv, Y: yv}
		w := d.Weights(150)
		for i := 1; i < len(w); i++ {
			if w[i] > w[i-1]+1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
