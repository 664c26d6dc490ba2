// Package workload generates the streaming workloads the paper evaluates:
// constant-bit-rate media streams drawn from a catalog with an X:Y
// popularity distribution ("X% of the titles receive Y% of the accesses").
//
// The paper's media classes (its §5): MP3 audio at 10 KB/s, DivX/MPEG-4 at
// 100 KB/s, DVD/MPEG-2 at 1 MB/s, and HDTV at 10 MB/s.
package workload

import (
	"fmt"
	"math"
	"time"

	"memstream/internal/sim"
	"memstream/internal/units"
)

// MediaClass is a named CBR stream type.
type MediaClass struct {
	Name     string
	BitRate  units.ByteRate // B̄ for this class
	Duration time.Duration  // typical title length
}

// The paper's four media classes.
var (
	MP3  = MediaClass{Name: "mp3", BitRate: 10 * units.KBPS, Duration: 4 * time.Minute}
	DivX = MediaClass{Name: "DivX", BitRate: 100 * units.KBPS, Duration: 100 * time.Minute}
	DVD  = MediaClass{Name: "DVD", BitRate: 1 * units.MBPS, Duration: 110 * time.Minute}
	HDTV = MediaClass{Name: "HDTV", BitRate: 10 * units.MBPS, Duration: 60 * time.Minute}
)

// Classes lists the paper's media classes in bit-rate order.
func Classes() []MediaClass { return []MediaClass{MP3, DivX, DVD, HDTV} }

// Size returns the storage footprint of one title of this class.
func (m MediaClass) Size() units.Bytes {
	return units.BytesIn(m.BitRate, m.Duration)
}

// Title is one piece of content in the catalog.
type Title struct {
	ID      int
	Class   MediaClass
	Size    units.Bytes
	Rank    int     // popularity rank, 0 = most popular
	Weight  float64 // normalized access probability
	StartLB int64   // placement: first logical block on the backing store
}

// Catalog is a set of titles with a popularity distribution.
type Catalog struct {
	Titles []Title
	total  float64

	// sampler serves Pick in O(1) per draw. It is built by the first Pick;
	// NewCatalog accepts only weights it can invert.
	sampler *Sampler
}

// XYDistribution is the paper's popularity model: X% of titles receive Y%
// of accesses, with uniform access within each group (its §5.2).
type XYDistribution struct {
	X, Y float64 // percentages in (0,100]
}

// Validate checks the distribution.
func (d XYDistribution) Validate() error {
	if d.X <= 0 || d.X > 100 || d.Y <= 0 || d.Y > 100 {
		return fmt.Errorf("workload: X:Y distribution %g:%g out of range", d.X, d.Y)
	}
	return nil
}

// String renders the distribution the way the paper labels it ("10:90").
func (d XYDistribution) String() string {
	return fmt.Sprintf("%g:%g", d.X, d.Y)
}

// PaperDistributions are the five popularity points of Figures 9 and 10.
func PaperDistributions() []XYDistribution {
	return []XYDistribution{{1, 99}, {5, 95}, {10, 90}, {20, 80}, {50, 50}}
}

// Weights returns per-rank access probabilities for n titles: the top
// ⌈X%·n⌉ titles split Y% of accesses uniformly; the rest split the
// remainder uniformly.
func (d XYDistribution) Weights(n int) []float64 {
	if n <= 0 {
		return nil
	}
	hot := int(float64(n)*d.X/100 + 0.999999)
	if hot < 1 {
		hot = 1
	}
	if hot > n {
		hot = n
	}
	w := make([]float64, n)
	hotShare := d.Y / 100
	coldShare := 1 - hotShare
	for i := range w {
		if i < hot {
			w[i] = hotShare / float64(hot)
		} else {
			w[i] = coldShare / float64(n-hot)
		}
	}
	if hot == n {
		for i := range w {
			w[i] = 1 / float64(n)
		}
	}
	return w
}

// Zipf returns per-rank probabilities w_i ∝ 1/(i+1)^s, a common
// alternative popularity model included for sensitivity studies.
func Zipf(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// NewCatalog builds n titles of class c ranked by popularity weights w
// (len(w) == n) and lays them out contiguously from block 0 of a store
// with the given block size. Every weight must be finite and non-negative
// and their sum positive and finite: those are the weights the popularity
// sampler inverts exactly. The sampler is not built here but by the first
// Pick: its exact inverse costs O(n²), and a catalog that is only laid
// out, sized or summed (TopFraction, TotalSize, cache.Plan) never pays it.
func NewCatalog(n int, c MediaClass, w []float64, blockSize units.Bytes) (*Catalog, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: catalog needs at least one title")
	}
	if len(w) != n {
		return nil, fmt.Errorf("workload: %d weights for %d titles", len(w), n)
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("workload: non-positive block size")
	}
	var total float64
	for i, x := range w {
		if !(x >= 0) || math.IsInf(x, 1) {
			return nil, fmt.Errorf("workload: title %d has weight %g, want finite and non-negative", i, x)
		}
		total += x
	}
	if !(total > 0) || math.IsInf(total, 1) {
		return nil, fmt.Errorf("workload: weights sum to %g, want positive and finite", total)
	}
	cat := &Catalog{Titles: make([]Title, n)}
	var lbn int64
	for i := 0; i < n; i++ {
		size := c.Size()
		blocks := int64(size / blockSize)
		if blocks < 1 {
			blocks = 1
		}
		cat.Titles[i] = Title{
			ID:      i,
			Class:   c,
			Size:    size,
			Rank:    i,
			Weight:  w[i],
			StartLB: lbn,
		}
		lbn += blocks
	}
	cat.total = total
	return cat, nil
}

// TotalSize returns the catalog's storage footprint (the paper's
// Size_disk: "the total storage required for all the streams serviced").
func (c *Catalog) TotalSize() units.Bytes {
	var s units.Bytes
	for _, t := range c.Titles {
		s += t.Size
	}
	return s
}

// Pick draws a title according to the popularity weights. The draw is
// O(1) in the catalog size (see Sampler) and byte-identical to the linear
// subtraction scan it replaced, which survives in sampler_test.go as the
// behavioral reference.
//
// The first Pick builds the sampler, so Pick is not safe for concurrent
// first use: a catalog shared between goroutines must be drawn from once
// before it is shared. Every caller today owns its catalog.
func (c *Catalog) Pick(rng *sim.RNG) *Title {
	if c.sampler == nil {
		w := make([]float64, len(c.Titles))
		for i := range c.Titles {
			w[i] = c.Titles[i].Weight
		}
		c.sampler = NewSampler(w, c.total) // never nil: NewCatalog vetted the weights
	}
	return &c.Titles[c.sampler.Draw(rng)]
}

// TopFraction returns how much access probability the most popular
// fraction p of titles captures — the analytic hit rate for a cache that
// stores exactly that prefix.
func (c *Catalog) TopFraction(p float64) float64 {
	if p <= 0 {
		return 0
	}
	n := int(float64(len(c.Titles))*p + 0.999999)
	if n > len(c.Titles) {
		n = len(c.Titles)
	}
	var h float64
	for i := 0; i < n; i++ {
		h += c.Titles[i].Weight
	}
	return h / c.total
}
