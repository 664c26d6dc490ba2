package sim

import (
	"math"
	"math/bits"
	"sort"
)

// Reservoir estimates quantiles from a stream of samples using uniform
// reservoir sampling (Vitter's Algorithm R) with a deterministic RNG, so
// simulation percentile reports are reproducible.
type Reservoir struct {
	cap     int
	seen    uint64
	rng     *RNG
	samples []float64
}

// NewReservoir creates a reservoir holding up to capacity samples.
func NewReservoir(capacity int, seed uint64) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir{cap: capacity, rng: NewRNG(seed)}
}

// Reset empties the reservoir and reseeds its RNG, keeping the sample
// storage. A reset reservoir observes a stream exactly as a fresh
// NewReservoir(capacity, seed) would.
func (r *Reservoir) Reset(seed uint64) {
	r.seen = 0
	r.samples = r.samples[:0]
	r.rng = NewRNG(seed)
}

// Observe records one sample.
func (r *Reservoir) Observe(v float64) {
	r.seen++
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, v)
		return
	}
	// Replace a random element with probability cap/seen. Uint64n keeps
	// the slot choice unbiased; which slot is evicted does not affect the
	// retained sample's distribution, so Quantile may reorder samples
	// between observations without harm.
	j := r.rng.Uint64n(r.seen)
	if j < uint64(r.cap) {
		r.samples[j] = v
	}
}

// N reports how many samples were observed (not retained).
func (r *Reservoir) N() uint64 { return r.seen }

// Quantile returns the q-quantile (q clamped to [0,1]) of the retained
// sample, with linear interpolation between order statistics. The second
// result is false when no samples have been observed, distinguishing an
// empty reservoir from a genuine 0-valued quantile.
//
// The order is sort.Float64s' (NaN first), but only the two order
// statistics the interpolation reads are selected, in expected O(n),
// instead of sorting the whole sample: a run asks for one quantile of
// up to thousands of samples. Selection reorders the retained samples.
func (r *Reservoir) Quantile(q float64) (float64, bool) {
	return r.QuantileBy(q, func(v float64) float64 { return v })
}

// QuantileBy is Quantile of the samples mapped through a non-decreasing
// f, which is applied to the two order statistics the interpolation reads
// rather than to every sample. A non-decreasing map carries each order
// statistic to the mapped sample's, so the result is bit-equal to
// observing f(v) in place of every v, without paying f per observation.
func (r *Reservoir) QuantileBy(q float64, f func(float64) float64) (float64, bool) {
	n := len(r.samples)
	if n == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if n == 1 {
		return f(r.samples[0]), true
	}
	pos := q * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return f(orderStat(r.samples, n-1)), true
	}
	lo := f(orderStat(r.samples, i))
	// orderStat left every later order statistic in s[i+1:]; the next
	// one is their minimum.
	hi := r.samples[i+1]
	for _, v := range r.samples[i+2:] {
		if less(v, hi) {
			hi = v
		}
	}
	hi = f(hi)
	return lo + frac*(hi-lo), true
}

// Median is Quantile(0.5).
func (r *Reservoir) Median() (float64, bool) { return r.Quantile(0.5) }

// less is sort.Float64s' order: NaN before every number.
func less(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// orderStat reorders s so that s[k] holds its k-th smallest element
// under less, with none greater before it and none smaller after it, and
// returns s[k]. NaNs are moved to the front first, so the selection
// proper compares numbers only.
func orderStat(s []float64, k int) float64 {
	nans := 0
	for j, v := range s {
		if math.IsNaN(v) {
			s[j], s[nans] = s[nans], v
			nans++
		}
	}
	if k < nans {
		return s[k]
	}
	sel := s[nans:]
	k -= nans
	// Quickselect on a median-of-three pivot. A budget of twice the
	// ideal halving depth bounds the worst case: past it the remaining
	// window is sorted.
	lo, hi := 0, len(sel)-1
	for budget := 2 * bits.Len(uint(len(sel))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(sel[lo : hi+1])
			break
		}
		a, b := partition(sel, lo, hi)
		switch {
		case k < a:
			hi = a - 1
		case k > b:
			lo = b + 1
		default:
			return sel[k]
		}
	}
	return sel[k]
}

// partition splits s[lo..hi] three ways around a median-of-three pivot:
// on return s[lo:a] < pivot, s[a..b] == pivot and s[b+1:hi+1] > pivot.
func partition(s []float64, lo, hi int) (a, b int) {
	mid := lo + (hi-lo)/2
	if s[mid] < s[lo] {
		s[mid], s[lo] = s[lo], s[mid]
	}
	if s[hi] < s[lo] {
		s[hi], s[lo] = s[lo], s[hi]
	}
	if s[hi] < s[mid] {
		s[hi], s[mid] = s[mid], s[hi]
	}
	pivot := s[mid]
	// Dutch national flag: [lo,a) less, [a,j) equal, (b,hi] greater.
	a, j, b := lo, lo, hi
	for j <= b {
		switch v := s[j]; {
		case v < pivot:
			s[a], s[j] = v, s[a]
			a++
			j++
		case v > pivot:
			s[j], s[b] = s[b], v
			b--
		default:
			j++
		}
	}
	return a, b
}
