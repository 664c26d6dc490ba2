package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram bucket layout: quarter-octave log2 buckets spanning
// [2^minExp, 2^maxExp) seconds, one underflow bucket (values ≤ 2^minExp,
// including the very common "zero lag") and one overflow bucket. With
// minExp = -20 (~0.95µs) and maxExp = 4 (16s) that is 24 octaves × 4
// sub-buckets + 2 = 98 buckets, and every bucket's width is ≤ 25% of its
// lower bound, so a quantile the /metrics document reports at bucket
// resolution is within 25% of the samples it stands for.
const (
	histMinExp  = -20
	histMaxExp  = 4
	histSubBits = 2 // sub-buckets per octave = 1<<histSubBits
	histSub     = 1 << histSubBits

	// NumBuckets is the fixed bucket count of every Histogram.
	NumBuckets = (histMaxExp-histMinExp)*histSub + 2
)

var (
	histMin = math.Ldexp(1, histMinExp) // underflow bound, seconds
	histMax = math.Ldexp(1, histMaxExp) // overflow bound, seconds
)

// bucketOf maps a sample in seconds to its bucket index using the float's
// own binary representation: the exponent selects the octave and the top
// mantissa bits the sub-bucket. No log call, no branch on bucket bounds,
// no allocation.
func bucketOf(v float64) int {
	if !(v > histMin) { // also catches 0, negatives, and NaN
		return 0
	}
	if v >= histMax {
		return NumBuckets - 1
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52) - 1023
	sub := int(bits >> (52 - histSubBits) & (histSub - 1))
	return 1 + (exp-histMinExp)*histSub + sub
}

// BucketBound returns bucket i's inclusive upper bound in seconds. The
// overflow bucket's bound is +Inf.
func BucketBound(i int) float64 {
	switch {
	case i <= 0:
		return histMin
	case i >= NumBuckets-1:
		return math.Inf(1)
	}
	k := i - 1
	return math.Ldexp(1+float64(k%histSub+1)/histSub, histMinExp+k/histSub)
}

// bucketEstimate is the representative value reported for a quantile that
// lands in bucket i: 0 for the underflow bucket (lag below measurement
// resolution), the geometric midpoint for interior buckets, and the range
// maximum for the overflow bucket.
func bucketEstimate(i int) float64 {
	switch {
	case i <= 0:
		return 0
	case i >= NumBuckets-1:
		return histMax
	}
	hi := BucketBound(i)
	k := i - 1
	lo := math.Ldexp(1+float64(k%histSub)/histSub, histMinExp+k/histSub)
	return math.Sqrt(lo * hi)
}

// histShard is one writer's share of a Histogram: every bucket and the
// sum. The trailing pad keeps at least a cache line's worth of bytes
// between one shard's last word and the next shard's first, whatever
// the array's alignment, so writers on neighbouring shards never
// false-share.
type histShard struct {
	buckets [NumBuckets]atomic.Uint64
	sumNS   atomic.Uint64 // total of positive samples, nanoseconds
	_       [56]byte
}

// observe records one sample in seconds on the shard. Every sample is
// counted in its bucket, but only a positive one whose nanoseconds fit
// in a uint64 adds to the sum: Go leaves the conversion of anything
// larger, +Inf included, to the platform, and amd64 yields 2^63, which
// would throw the sum off by 2^63 per such sample.
func (s *histShard) observe(sec float64) {
	s.buckets[bucketOf(sec)].Add(1)
	if ns := sec * 1e9; ns > 0 && ns < 1<<64 {
		s.sumNS.Add(uint64(ns))
	}
}

// Histogram is a fixed-bucket latency histogram safe for concurrent use,
// sharded the way Counter is: a hot goroutine takes a HistogramHandle
// once and observes into its own cache-line-padded shard, so concurrent
// writers never share a bucket or sum word. Observe is lock-free and
// allocation-free; the read side folds the shards into one mergeable
// Snapshot. The zero value is ready to use.
type Histogram struct {
	shards [numShards]histShard
	next   atomic.Uint64 // handles issued; 64 bits so it never wraps
}

// HistogramHandle is a hot goroutine's pinned shard of a Histogram.
// Obtain one from Histogram.Handle at goroutine start; the zero handle
// is invalid.
type HistogramHandle struct {
	s *histShard
}

// Handle assigns the next shard round-robin, as Counter.Handle does.
func (h *Histogram) Handle() HistogramHandle {
	i := h.next.Add(1) - 1
	return HistogramHandle{s: &h.shards[i%numShards]}
}

// Observe records one sample in seconds on the handle's shard.
func (h HistogramHandle) Observe(sec float64) { h.s.observe(sec) }

// Observe records one sample in seconds on shard 0 — the cold path for
// callers without a handle, like Counter.Add.
func (h *Histogram) Observe(sec float64) { h.shards[0].observe(sec) }

// inUse is the prefix of shards that can hold samples: handles take
// shards in order, so one shard per handle issued, at least shard 0
// (the cold path's) and at most every shard. A handle issued after the
// load writes only samples a read taken now may miss anyway, so the
// read side folds this prefix alone and a histogram with few writers
// reads as cheaply as with one.
func (h *Histogram) inUse() []histShard {
	return h.shards[:min(max(h.next.Load(), 1), numShards)]
}

// N reports how many samples were observed.
func (h *Histogram) N() uint64 { return h.Snapshot().N }

// Snapshot folds the shards in use into one copy of the histogram's
// state. Buckets are loaded independently (no global lock), so a
// snapshot taken during concurrent Observes is a slightly time-smeared
// but internally valid histogram, and since every bucket only grows and
// the prefix in use only lengthens, a later snapshot never counts fewer
// samples than an earlier one.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	shards := h.inUse()
	for i := range shards {
		sh := &shards[i]
		for j := range sh.buckets {
			c := sh.buckets[j].Load()
			s.Counts[j] += c
			s.N += c
		}
		s.SumNS += sh.sumNS.Load()
	}
	return s
}

// Quantile reports the q-quantile in seconds from the live buckets; ok is
// false when no samples have been observed.
func (h *Histogram) Quantile(q float64) (float64, bool) {
	s := h.Snapshot()
	return s.Quantile(q)
}

// Snapshot is a point-in-time copy of a Histogram: mergeable across
// collectors (shards, servers) and the source for the JSON rendering.
type Snapshot struct {
	Counts [NumBuckets]uint64
	N      uint64
	SumNS  uint64
}

// Merge folds another snapshot into s.
func (s *Snapshot) Merge(o *Snapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.N += o.N
	s.SumNS += o.SumNS
}

// Quantile reports the q-quantile in seconds (q clamped to [0,1]); ok is
// false when the snapshot is empty. The estimate is bucket-resolution:
// exact to within the bucket's ≤25% width.
func (s *Snapshot) Quantile(q float64) (float64, bool) {
	if s.N == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.N)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			return bucketEstimate(i), true
		}
	}
	return bucketEstimate(NumBuckets - 1), true
}

// Wire renders the snapshot in the control-plane JSON schema: count, sum,
// standard quantiles (omitted while empty, so "no data yet" can never be
// mistaken for "true zero lag"), and the non-empty buckets.
func (s Snapshot) Wire() HistogramJSON {
	w := HistogramJSON{Count: s.N, SumMS: float64(s.SumNS) / 1e6}
	if s.N > 0 {
		w.Quantiles = map[string]float64{}
		for _, q := range [...]struct {
			name string
			q    float64
		}{{"p50_ms", 0.50}, {"p95_ms", 0.95}, {"p99_ms", 0.99}} {
			if v, ok := s.Quantile(q.q); ok {
				w.Quantiles[q.name] = v * 1e3
			}
		}
	}
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if i == NumBuckets-1 {
			w.Overflow = c
			continue
		}
		w.Buckets = append(w.Buckets, BucketJSON{LeMS: BucketBound(i) * 1e3, Count: c})
	}
	return w
}

// Snapshot is the inverse of Snapshot.Wire: each le_ms maps back to the
// bucket whose bound it is and Overflow to the overflow bucket, so a
// client can subtract two /metrics documents and read the window with
// Snapshot.Quantile, the server's own rule. An le_ms that is no bucket's
// bound counts in the first bucket whose bound is above it, the bucket a
// sample of that size falls in. Counts and N are exact; SumNS is the
// millisecond sum rounded to the nanosecond.
func (w HistogramJSON) Snapshot() Snapshot {
	var s Snapshot
	if ns := math.Round(w.SumMS * 1e6); ns > 0 && ns < 1<<64 {
		s.SumNS = uint64(ns)
	}
	for _, b := range w.Buckets {
		i := sort.Search(NumBuckets-1, func(i int) bool { return BucketBound(i)*1e3 >= b.LeMS })
		s.Counts[i] += b.Count
		s.N += b.Count
	}
	s.Counts[NumBuckets-1] += w.Overflow
	s.N += w.Overflow
	return s
}
