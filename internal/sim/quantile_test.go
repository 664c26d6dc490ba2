package sim

import (
	"maps"
	"math"
	"sort"
	"testing"
)

// sortedReservoir is the sort-based Reservoir the selection-based one
// replaced, kept as its oracle: every run of observations is followed by
// one in-place sort.Float64s, and Quantile reads the sorted sample.
type sortedReservoir struct {
	cap     int
	seen    uint64
	rng     *RNG
	samples []float64
	dirty   bool
}

func (r *sortedReservoir) Observe(v float64) {
	r.seen++
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, v)
		r.dirty = true
		return
	}
	j := r.rng.Uint64n(r.seen)
	if j < uint64(r.cap) {
		r.samples[j] = v
		r.dirty = true
	}
}

func (r *sortedReservoir) Quantile(q float64) (float64, bool) {
	if r.dirty {
		sort.Float64s(r.samples)
		r.dirty = false
	}
	return sortedQuantile(r.samples, q)
}

// sortedQuantile is the interpolated q-quantile of a sorted sample.
func sortedQuantile(sorted []float64, q float64) (float64, bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	q = math.Min(math.Max(q, 0), 1)
	if len(sorted) == 1 {
		return sorted[0], true
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1], true
	}
	return sorted[i] + frac*(sorted[i+1]-sorted[i]), true
}

// sameQuantile compares a selected quantile with the oracle's bit for
// bit, NaN matching any NaN. One exception: when the answer is the
// sample maximum and that maximum is a zero, sort.Float64s — which
// orders -0 and +0 as equal and is not stable — leaves either sign
// last, so either zero matches. Every interpolated answer is
// sign-exact: lo + frac*(hi-lo) is +0 whatever the signs of two zeros.
func sameQuantile(got, want float64, isMax bool) bool {
	switch {
	case math.IsNaN(got) || math.IsNaN(want):
		return math.IsNaN(got) && math.IsNaN(want)
	case isMax && got == 0 && want == 0:
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// quantileProbes are the q values every check asks for: the clamped
// ends, the exact order statistics of small samples, the midpoints
// between them, and a few in between.
func quantileProbes(n int) []float64 {
	qs := []float64{-0.5, 0, 0.05, 0.25, 0.5, 0.95, 0.99, 1, 1.5, math.Nextafter(1, 0)}
	if n > 1 {
		for _, k := range []int{1, n / 2, n - 2} {
			qs = append(qs, float64(k)/float64(n-1), (float64(k)+0.5)/float64(n-1))
		}
	}
	return qs
}

func isMaxQuery(n int, q float64) bool {
	q = math.Min(math.Max(q, 0), 1)
	return n == 1 || int(q*float64(n-1))+1 >= n
}

// drawValue picks a sample from a pool rich in ties, signed zeros, NaN
// and infinities, or a fresh uniform value.
func drawValue(src *RNG) float64 {
	pool := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 1, 2, -1, 0.5, math.Inf(1), math.Inf(-1), 1e-300}
	if src.Intn(3) == 0 {
		return src.Float64()*200 - 100
	}
	return pool[src.Intn(len(pool))]
}

// Programs that observe a stream and query at the end — the only way
// production code queries — give bit-equal quantiles under selection
// and under the sort, at every probe and for repeated queries.
func TestReservoirQuantileMatchesSortOracle(t *testing.T) {
	src := NewRNG(17)
	for prog := 0; prog < 400; prog++ {
		capacity := 1 + src.Intn(64)
		if prog%20 == 0 {
			capacity = 2000 + src.Intn(8192)
		}
		seed := src.Uint64()
		r := NewReservoir(capacity, seed)
		ref := &sortedReservoir{cap: capacity, rng: NewRNG(seed)}
		observations := src.Intn(3 * capacity)
		for i := 0; i < observations; i++ {
			v := drawValue(src)
			r.Observe(v)
			ref.Observe(v)
		}
		n := len(ref.samples)
		for _, q := range quantileProbes(n) {
			got, ok := r.Quantile(q)
			want, wantOK := ref.Quantile(q)
			if ok != wantOK || (ok && !sameQuantile(got, want, isMaxQuery(n, q))) {
				t.Fatalf("prog %d (cap %d, %d observed): Quantile(%v) = %v, %v; sort oracle %v, %v",
					prog, capacity, observations, q, got, ok, want, wantOK)
			}
		}
	}
}

// Programs that interleave Observe and Quantile: selection reorders the
// retained sample, so later replacements evict different slots than
// the sort-based reservoir's would, and the two retained multisets part
// ways. What must hold is that every query answers for the multiset
// retained at that moment.
func TestReservoirInterleavedQuantileMatchesRetained(t *testing.T) {
	src := NewRNG(23)
	for prog := 0; prog < 200; prog++ {
		capacity := 1 + src.Intn(48)
		r := NewReservoir(capacity, src.Uint64())
		for step := 0; step < 6*capacity; step++ {
			if src.Intn(4) != 0 {
				r.Observe(drawValue(src))
				continue
			}
			before := bitCounts(r.samples)
			sorted := append([]float64(nil), r.samples...)
			sort.Float64s(sorted)
			q := src.Float64()*1.2 - 0.1
			if src.Intn(4) == 0 {
				q = float64(src.Intn(3)) / 2
			}
			got, ok := r.Quantile(q)
			want, wantOK := sortedQuantile(sorted, q)
			if ok != wantOK || (ok && !sameQuantile(got, want, isMaxQuery(len(sorted), q))) {
				t.Fatalf("prog %d step %d: Quantile(%v) = %v, %v; retained multiset gives %v, %v",
					prog, step, q, got, ok, want, wantOK)
			}
			// Selection permutes the sample; it never changes it.
			if after := bitCounts(r.samples); !maps.Equal(before, after) {
				t.Fatalf("prog %d step %d: Quantile changed the retained multiset", prog, step)
			}
		}
	}
}

// bitCounts is a sample's multiset, keyed by bit pattern.
func bitCounts(s []float64) map[uint64]int {
	m := make(map[uint64]int, len(s))
	for _, v := range s {
		m[math.Float64bits(v)]++
	}
	return m
}

// Hand-picked edges: all-equal samples, NaN-only and NaN-led samples,
// signed zeros, the interpolation step between neighbouring order
// statistics, and a sorted and a reverse-sorted sample large enough to
// exercise the selection's worst-case guard.
func TestReservoirQuantileEdges(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := [][]float64{
		{3, 3, 3, 3},
		{math.NaN(), math.NaN()},
		{math.NaN(), 1, math.NaN(), 2},
		{negZero, 0, negZero},
		{negZero, -1},
		{1, 2},
		{math.Inf(-1), 0, math.Inf(1)},
	}
	var asc, desc, organ []float64
	for i := 0; i < 5000; i++ {
		asc = append(asc, float64(i))
		desc = append(desc, float64(5000-i))
		organ = append(organ, float64(min(i, 5000-i)))
	}
	cases = append(cases, asc, desc, organ)
	for ci, c := range cases {
		r := NewReservoir(len(c), 1)
		ref := &sortedReservoir{cap: len(c), rng: NewRNG(1)}
		for _, v := range c {
			r.Observe(v)
			ref.Observe(v)
		}
		for _, q := range quantileProbes(len(c)) {
			got, _ := r.Quantile(q)
			want, _ := ref.Quantile(q)
			if !sameQuantile(got, want, isMaxQuery(len(c), q)) {
				t.Errorf("case %d: Quantile(%v) = %v, sort oracle %v", ci, q, got, want)
			}
		}
	}
}

// TestQuantileByMatchesMappingEverySample pins QuantileBy to observing the
// mapped samples: random levels (integral byte counts with ties and zeros,
// and fractional ones) over random rates, under reservoirs small enough
// to evict, must give bit-equal quantiles of level/rate whether each
// sample is divided on the way in or only the two order statistics are.
func TestQuantileByMatchesMappingEverySample(t *testing.T) {
	rng := NewRNG(20030305)
	for trial := 0; trial < 300; trial++ {
		rate := 1e3 + rng.Float64()*1e8
		if trial%3 == 0 {
			rate = float64(1 + rng.Intn(1<<20)) // integral rates too
		}
		capacity := 1 + rng.Intn(64)
		mapped, raw := NewReservoir(capacity, uint64(trial)), NewReservoir(capacity, uint64(trial))
		for i, n := 0, rng.Intn(400); i < n; i++ {
			var level float64
			switch rng.Intn(4) {
			case 0:
				level = 0
			case 1:
				level = float64(rng.Intn(8)) * 65536 // ties
			case 2:
				level = float64(rng.Uint64n(1 << 40))
			default:
				level = rng.Float64() * 1e9
			}
			mapped.Observe(level / rate)
			raw.Observe(level)
		}
		toSeconds := func(level float64) float64 { return level / rate }
		for _, q := range []float64{0, 0.05, 0.5, 0.95, 1, rng.Float64()} {
			want, wok := mapped.Quantile(q)
			got, ok := raw.QuantileBy(q, toSeconds)
			if ok != wok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (rate %v, cap %d, %d seen), q=%v: QuantileBy %v (%v), mapped samples %v (%v)",
					trial, rate, capacity, raw.N(), q, got, ok, want, wok)
			}
		}
	}
}
