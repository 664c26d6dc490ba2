package metrics

import (
	"sync"
	"testing"

	"memstream/internal/allocgate"
	"memstream/internal/sim"
)

// zeroAllocBenchmarks is the collector's per-chunk/per-quantum streaming
// hot path: histogram Observe on the cold path and through a pinned
// handle, and sharded counter Add, alone and under RunParallel
// contention. The parallel variants also document the contention
// behaviour that motivated sharding.
var zeroAllocBenchmarks = []func(*testing.B){
	BenchmarkHistogramObserve, BenchmarkHistogramObserveParallel,
	BenchmarkHistogramHandleObserve, BenchmarkHistogramHandleObserveParallel,
	BenchmarkCounterHandleAdd, BenchmarkCounterHandleAddParallel,
}

// TestHotPathZeroAllocs holds every benchmark in zeroAllocBenchmarks to
// 0 allocs/op. A thousand iterations amortise RunParallel's goroutine
// start, a few allocations per goroutine.
func TestHotPathZeroAllocs(t *testing.T) { allocgate.Check(t, 1000, zeroAllocBenchmarks...) }

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-5)
			i++
		}
	})
}

// The pinned-shard observe path a wheel worker or a goroutine-plane
// stream uses. Against BenchmarkHistogramObserveParallel (every writer
// on shard 0), the parallel variant shows what sharding buys writers
// that would otherwise share the bucket and sum lines.
func BenchmarkHistogramHandleObserve(b *testing.B) {
	var h Histogram
	lag := h.Handle()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lag.Observe(float64(i%1000) * 1e-5)
	}
}

func BenchmarkHistogramHandleObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		lag := h.Handle()
		i := 0
		for pb.Next() {
			lag.Observe(float64(i%1000) * 1e-5)
			i++
		}
	})
}

func BenchmarkCounterHandleAdd(b *testing.B) {
	var c Counter
	h := c.Handle()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(1)
	}
}

func BenchmarkCounterHandleAddParallel(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		h := c.Handle()
		for pb.Next() {
			h.Add(1)
		}
	})
}

// Baseline: the design this package replaced — every lag sample taking a
// sync.Mutex around a sampling reservoir (internal/serve's first lag
// recorder). Compare against BenchmarkHistogram{,Handle}Observe{,Parallel}
// for the hot-path cost delta; the reservoir also allocates on its sample
// buffer growth, so it cannot meet the 0 allocs/op budget.
func BenchmarkMutexReservoirObserve(b *testing.B) {
	var mu sync.Mutex
	r := sim.NewReservoir(8192, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		r.Observe(float64(i%1000) * 1e-5)
		mu.Unlock()
	}
}

func BenchmarkMutexReservoirObserveParallel(b *testing.B) {
	var mu sync.Mutex
	r := sim.NewReservoir(8192, 1)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			mu.Lock()
			r.Observe(float64(i%1000) * 1e-5)
			mu.Unlock()
			i++
		}
	})
}

func BenchmarkSnapshotAndQuantile(b *testing.B) {
	var h Histogram
	for i := 0; i < 100000; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		s.Quantile(0.95)
	}
}

// The same read with every shard in use — a goroutine-plane server past
// numShards streams: the snapshot folds all of them.
func BenchmarkSnapshotAndQuantileSharded(b *testing.B) {
	var h Histogram
	for k := 0; k < numShards; k++ {
		lag := h.Handle()
		for i := 0; i < 100000/numShards; i++ {
			lag.Observe(float64(i%1000) * 1e-5)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		s.Quantile(0.95)
	}
}
