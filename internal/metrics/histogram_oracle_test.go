package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// refHistogram is the single-array histogram that Histogram's shards
// replaced: one bucket array and one sum that every writer shares. It
// is the oracle for the sharding: however samples spread over handles
// and the cold path, the folded Snapshot, N, Quantile and Wire must
// equal what this one array records. Its sum takes the same samples as
// a shard's (positive, nanoseconds fit in a uint64).
type refHistogram struct {
	buckets [NumBuckets]atomic.Uint64
	sumNS   atomic.Uint64
}

func (h *refHistogram) Observe(sec float64) {
	h.buckets[bucketOf(sec)].Add(1)
	if ns := sec * 1e9; ns > 0 && ns < 1<<64 {
		h.sumNS.Add(uint64(ns))
	}
}

func (h *refHistogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.N += c
	}
	s.SumNS = h.sumNS.Load()
	return s
}

// oracleSample draws one sample from a mix that reaches every bucket
// class: zero, negatives, NaN, ±Inf, exact bucket bounds, interior
// log-uniform values and finite overflow.
func oracleSample(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return -rng.Float64()
	case 2:
		return math.NaN()
	case 3:
		if rng.Intn(2) == 0 {
			return math.Inf(1)
		}
		return math.Inf(-1)
	case 4:
		return BucketBound(rng.Intn(NumBuckets - 1))
	case 5:
		return histMax * (1 + 100*rng.Float64()) // finite overflow
	}
	return math.Ldexp(1+rng.Float64(), histMinExp-1+rng.Intn(histMaxExp-histMinExp+2))
}

func TestShardedHistogramMatchesSingleArray(t *testing.T) {
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for _, k := range []int{1, 2, 3, numShards - 1, numShards, numShards + 1, 3*numShards + 5} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(k)))
			var h Histogram
			var ref refHistogram
			handles := make([]HistogramHandle, k)
			for i := range handles {
				handles[i] = h.Handle()
			}
			for i, n := 0, rng.Intn(5000); i < n; i++ {
				v := oracleSample(rng)
				ref.Observe(v)
				if j := rng.Intn(k + 1); j == k {
					h.Observe(v) // the cold path, shard 0
				} else {
					handles[j].Observe(v)
				}
			}
			got, want := h.Snapshot(), ref.Snapshot()
			if got != want {
				t.Fatalf("k=%d seed=%d: sharded snapshot differs from the single array:\n got N=%d sum=%d %v\nwant N=%d sum=%d %v",
					k, seed, got.N, got.SumNS, got.Counts, want.N, want.SumNS, want.Counts)
			}
			if h.N() != want.N {
				t.Errorf("k=%d seed=%d: N() = %d, want %d", k, seed, h.N(), want.N)
			}
			for _, q := range qs {
				gv, gok := h.Quantile(q)
				wv, wok := want.Quantile(q)
				if gv != wv || gok != wok {
					t.Errorf("k=%d seed=%d: Quantile(%v) = %v,%v, want %v,%v", k, seed, q, gv, gok, wv, wok)
				}
			}
			if gw, ww := got.Wire(), want.Wire(); !reflect.DeepEqual(gw, ww) {
				t.Errorf("k=%d seed=%d: Wire = %+v, want %+v", k, seed, gw, ww)
			}
		}
	}
}

// Regression: +Inf used to be converted to nanoseconds like any other
// sample, which yields 2^63 on amd64, so each one added 2^63 to SumNS
// (an odd number of them left it 2^63 off; an even number wrapped back
// round and hid the fault). +Inf still counts in the overflow bucket,
// and adds nothing to the sum.
func TestHistogramInfDoesNotCorruptSum(t *testing.T) {
	var h Histogram
	lag := h.Handle()
	lag.Observe(0.002)
	lag.Observe(math.Inf(1))
	h.Observe(math.Inf(1))
	lag.Observe(math.Inf(1))
	lag.Observe(0.003)
	s := h.Snapshot()
	if s.N != 5 || h.N() != 5 {
		t.Errorf("N = %d (snapshot) / %d (live), want 5", s.N, h.N())
	}
	if s.Counts[NumBuckets-1] != 3 {
		t.Errorf("overflow bucket = %d, want the 3 +Inf samples", s.Counts[NumBuckets-1])
	}
	if s.SumNS != 5_000_000 {
		t.Errorf("SumNS = %d, want 5000000 (only the finite samples)", s.SumNS)
	}
	w := s.Wire()
	if w.SumMS != 5 || w.Count != 5 || w.Overflow != 3 {
		t.Errorf("wire = sum %v ms, count %d, overflow %d; want 5, 5, 3", w.SumMS, w.Count, w.Overflow)
	}
}

// The wire form loses nothing a client needs: random histograms, with
// samples in the underflow and overflow buckets, keep every bucket count
// and N exact through Snapshot → Wire → JSON → HistogramJSON.Snapshot,
// and so read the same quantiles on both sides of the wire.
func TestWireSnapshotRoundTrip(t *testing.T) {
	qs := []float64{0, 0.01, 0.5, 0.95, 0.99, 1}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			h.Observe(oracleSample(rng))
		}
		want := h.Snapshot()
		data, err := json.Marshal(want.Wire())
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		var w HistogramJSON
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		got := w.Snapshot()
		if got.Counts != want.Counts || got.N != want.N {
			t.Fatalf("seed %d: round trip N=%d %v, want N=%d %v", seed, got.N, got.Counts, want.N, want.Counts)
		}
		for _, q := range qs {
			gv, gok := got.Quantile(q)
			wv, wok := want.Quantile(q)
			if gv != wv || gok != wok {
				t.Errorf("seed %d: Quantile(%v) = %v,%v after the round trip, want %v,%v", seed, q, gv, gok, wv, wok)
			}
		}
	}
}
