package workload

import (
	"math"

	"memstream/internal/sim"
)

// Sampler draws title ranks from the catalog's popularity weights in O(1)
// expected time regardless of catalog size, replacing the per-draw linear
// subtraction scan Pick used to run.
//
// It is not a textbook alias table: an alias table partitions the unit
// interval its own way and cannot reproduce the legacy scan's draws bit
// for bit, which the pinned Result fingerprints require. Instead the
// sampler inverts the scan exactly. The legacy draw computed
//
//	u := rng.Float64() * total
//	u -= w[0]; u -= w[1]; ...   // return first i where u <= 0
//
// in float64 arithmetic, so the rank chosen for a given u is determined by
// the *rounded* running differences. For each rank i the build computes
// bound[i], the largest float64 u whose rounded subtraction chain crosses
// zero by step i, by inverting the chain backwards: starting from
// threshold 0, each step finds the largest v with fl(v-w[j]) <= t via a
// couple of math.Nextafter refinements around t+w[j]. Because weights are
// non-negative, a chain that has crossed zero stays crossed, so the
// chosen rank for any u is simply the first i with u <= bound[i] — and
// the bounds are non-decreasing, which makes that a search over a sorted
// array.
//
// Draws then go through a guide table: bucket k of m spans the u-range
// [k·total/m, (k+1)·total/m) and stores the first rank whose bound can
// fall in it, so the forward scan after the table lookup touches O(1)
// bounds in expectation for any weight shape with m = n buckets.
type Sampler struct {
	total  float64
	scale  float64 // m / total, the bucket index multiplier
	bounds []float64
	guide  []int32
}

// NewSampler builds the exact-inverse sampler for the given weights and
// an explicitly supplied total (the running float64 sum in weight order,
// exactly as the legacy scan accumulated it). It returns nil when the
// weights cannot be inverted safely — a non-finite or negative weight, or
// a non-positive or infinite total. NewCatalog refuses such weights, so a
// catalog's sampler is never nil.
func NewSampler(w []float64, total float64) *Sampler {
	if len(w) == 0 || !(total > 0) || math.IsInf(total, 1) {
		return nil
	}
	for _, x := range w {
		if !(x >= 0) || math.IsInf(x, 1) {
			return nil
		}
	}
	s := &Sampler{total: total}
	s.bounds = make([]float64, len(w)-1)
	for i := range s.bounds {
		// Invert the subtraction chain for ranks i..0: t is the largest
		// value the running difference may hold after step j+1 while the
		// chain still crosses zero by step i.
		t := 0.0
		for j := i; j >= 0; j-- {
			t = largestPre(t, w[j])
		}
		s.bounds[i] = t
	}
	// Unreachable for the inputs accepted above: bounds[i] applies
	// bounds[i-1]'s inversion steps to the threshold largestPre(0, w[i])
	// instead of 0; that threshold is at least w[i] >= 0, and each step
	// (the largest v with fl(v-w) <= t) is non-decreasing in t because
	// fl(v-w) is monotone in v. A violation would break the sorted-search
	// draw silently, so it panics rather than mis-sample.
	for i := 1; i < len(s.bounds); i++ {
		if s.bounds[i] < s.bounds[i-1] {
			panic("workload: sampler bounds decrease for non-negative weights")
		}
	}
	m := len(w)
	s.scale = float64(m) / total
	s.guide = make([]int32, m)
	i := 0
	for k := range s.guide {
		// First rank whose bound lands in bucket k or later, using the
		// same rounded bound*scale expression the draw applies to u: any
		// rank the draw could need for a u in bucket k is at or after it.
		for i < len(s.bounds) && int(s.bounds[i]*s.scale) < k {
			i++
		}
		s.guide[k] = int32(i)
	}
	return s
}

// largestPre returns the largest float64 v with fl(v-w) <= t.
func largestPre(t, w float64) float64 {
	v := t + w
	for v-w <= t {
		v = math.Nextafter(v, math.Inf(1))
	}
	for v-w > t {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// Draw consumes exactly one rng.Float64 — the same single draw the legacy
// scan consumed — and returns the chosen rank.
func (s *Sampler) Draw(rng *sim.RNG) int {
	return s.at(rng.Float64() * s.total)
}

// at returns the rank the legacy subtraction scan would choose for u.
func (s *Sampler) at(u float64) int {
	k := int(u * s.scale)
	if k >= len(s.guide) {
		k = len(s.guide) - 1 // u == total after rounding: last bucket
	}
	if k < 0 {
		k = 0
	}
	i := int(s.guide[k])
	for i < len(s.bounds) && u > s.bounds[i] {
		i++
	}
	return i // i == len(bounds): fell through every weight → last rank
}
