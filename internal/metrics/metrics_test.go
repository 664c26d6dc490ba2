package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestCounterHandleAndTotal(t *testing.T) {
	var c Counter
	h1, h2 := c.Handle(), c.Handle()
	h1.Add(3)
	h2.Add(4)
	c.Add(5)
	if got := c.Total(); got != 12 {
		t.Errorf("Total = %d, want 12", got)
	}
}

// Handles distribute round-robin: with more handles than shards the
// counter still sums exactly, and distinct early handles get distinct
// shards (the no-contention property for the common few-streams case).
func TestCounterManyHandlesExact(t *testing.T) {
	var c Counter
	const workers, perWorker = 64, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := c.Handle()
			for i := 0; i < perWorker; i++ {
				h.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Total(); got != workers*perWorker {
		t.Errorf("Total = %d, want %d", got, workers*perWorker)
	}
	if c.Handle().s == c.Handle().s {
		t.Error("consecutive handles share a shard; round-robin broken")
	}
}

func TestBucketOfEdges(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{histMin, 0},              // bound is inclusive on the underflow side
		{histMin * 1.01, 1},       // first interior bucket
		{histMax, NumBuckets - 1}, // overflow
		{1e9, NumBuckets - 1},
		{math.Inf(1), NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// Every interior sample lands in a bucket whose bounds contain it.
func TestBucketOfWithinBounds(t *testing.T) {
	for v := histMin * 1.001; v < histMax; v *= 1.07 {
		i := bucketOf(v)
		if i <= 0 || i >= NumBuckets-1 {
			t.Fatalf("bucketOf(%v) = %d, want interior", v, i)
		}
		hi := BucketBound(i)
		lo := BucketBound(i - 1)
		if v <= lo || v > hi {
			t.Errorf("v=%v in bucket %d but bounds are (%v, %v]", v, i, lo, hi)
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// 1000 samples spread uniformly over [1ms, 101ms): the true q-quantile
	// is 1ms + q·100ms, and the bucket estimate must land within one
	// quarter-octave (±25%).
	for i := 0; i < 1000; i++ {
		h.Observe(0.001 + float64(i)*0.0001)
	}
	if n := h.N(); n != 1000 {
		t.Fatalf("N = %d, want 1000", n)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, ok := h.Quantile(q)
		if !ok {
			t.Fatalf("Quantile(%v) not ok", q)
		}
		want := 0.001 + q*0.1
		if got < want*0.75 || got > want*1.25 {
			t.Errorf("Quantile(%v) = %v, want within 25%% of %v", q, got, want)
		}
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	var h Histogram
	if _, ok := h.Quantile(0.5); ok {
		t.Error("Quantile ok on empty histogram")
	}
	w := h.Snapshot().Wire()
	if w.Quantiles != nil {
		t.Errorf("empty histogram rendered quantiles %v; want absent", w.Quantiles)
	}
	if w.Count != 0 || len(w.Buckets) != 0 {
		t.Errorf("empty histogram wire = %+v, want empty", w)
	}
}

// Zero-lag samples (the on-schedule common case) land in the underflow
// bucket and report a 0 quantile — distinguishable from "no data" only
// by Count, which is exactly how Wire decides to render quantiles.
func TestHistogramZeroLag(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	v, ok := h.Quantile(0.99)
	if !ok || v != 0 {
		t.Errorf("Quantile(0.99) = %v,%v after zero-lag samples, want 0,true", v, ok)
	}
	if w := h.Snapshot().Wire(); w.Quantiles["p50_ms"] != 0 || w.Count != 10 {
		t.Errorf("wire = %+v, want count=10 with zero quantiles present", w)
	}
}

func TestSnapshotMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(0.001)
		b.Observe(0.1)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(&sb)
	if sa.N != 200 {
		t.Errorf("merged N = %d, want 200", sa.N)
	}
	if v, _ := sa.Quantile(0.25); v < 0.00075 || v > 0.00125 {
		t.Errorf("merged p25 = %v, want ~1ms", v)
	}
	if v, _ := sa.Quantile(0.75); v < 0.075 || v > 0.125 {
		t.Errorf("merged p75 = %v, want ~100ms", v)
	}
}

// The hard hot-path budget: Observe and Add allocate nothing. This is a
// test (not just a benchmark) so `go test` itself gates the invariant.
func TestHotPathZeroAllocs(t *testing.T) {
	var h Histogram
	var c Counter
	hd, lag := c.Handle(), h.Handle()
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(0.0042)
		lag.Observe(0.0042)
		hd.Add(1)
	}); n != 0 {
		t.Errorf("hot path allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("cold Add allocates %v per op, want 0", n)
	}
}

// Race hammer: N writers on the counter and histogram while snapshots,
// totals, and quantiles are read concurrently. Run under -race in CI.
func TestConcurrentObserveAndSnapshot(t *testing.T) {
	var h Histogram
	var c Counter
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hd := c.Handle()
			// A minimum batch guarantees every writer records something
			// even if the reader loop below finishes first.
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i%100) * 1e-4)
				hd.Add(1)
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(float64(i%100) * 1e-4)
					hd.Add(1)
				}
			}
		}(w)
	}
	for i := 0; i < 500; i++ {
		s := h.Snapshot()
		var sum uint64
		for _, n := range s.Counts {
			sum += n
		}
		if sum != s.N {
			t.Fatalf("snapshot N=%d but buckets sum to %d", s.N, sum)
		}
		s.Quantile(0.95)
		c.Total()
	}
	close(stop)
	wg.Wait()
	if c.Total() == 0 || h.N() == 0 {
		t.Error("hammer recorded nothing")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if got := g.Load(); got != 0 {
		t.Fatalf("zero Gauge = %d", got)
	}
	g.Add(5)
	g.Add(-2)
	if got := g.Load(); got != 3 {
		t.Errorf("after +5-2: %d, want 3", got)
	}
	g.Set(-7)
	if got := g.Load(); got != -7 {
		t.Errorf("after Set(-7): %d", got)
	}
	allocs := testing.AllocsPerRun(100, func() { g.Add(1); _ = g.Load() })
	if allocs != 0 {
		t.Errorf("Gauge hot path allocates %.1f/op", allocs)
	}
}
