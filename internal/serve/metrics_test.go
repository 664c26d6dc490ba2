package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"memstream/internal/metrics"
	"memstream/internal/units"
)

// Regression: with zero lag samples the pacing-lag quantiles used to
// render as 0, indistinguishable from true zero lag. They must be absent
// from the /metrics document until at least one sample exists, and
// appear once one does — including a genuine zero-lag sample, which then
// reads 0 alongside lag.count=1. The same document carries every
// outcome counter and the admission gauges.
func TestMetricsLineOmitsQuantilesWithoutSamples(t *testing.T) {
	s := newTestServer(t, testConfig(1*units.GB))
	h := s.ControlHandler()
	get := func() metrics.Document {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var doc metrics.Document
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("GET /metrics: %v: %s", err, rec.Body.Bytes())
		}
		return doc
	}
	doc := get()
	for _, k := range []string{"accepted", "sheds", "reaped", "aborted", "bad_requests", "admitted_total",
		"admission_busy", "completed", "evicted", "bytes_out", "wheel_ticks", "wheel_fires"} {
		if _, ok := doc.Counters[k]; !ok {
			t.Errorf("counters.%s missing", k)
		}
	}
	for _, k := range []string{"admitted", "capacity", "active_streams", "wheel_streams"} {
		if _, ok := doc.Gauges[k]; !ok {
			t.Errorf("gauges.%s missing", k)
		}
	}
	if doc.Lag.Count != 0 || doc.Lag.Quantiles != nil {
		t.Errorf("lag = %+v with no samples; want count 0 and no quantiles", doc.Lag)
	}

	s.metrics.Lag.Observe(0) // a true zero-lag quantum
	doc = get()
	if doc.Lag.Count != 1 {
		t.Errorf("lag.count = %d after one observation, want 1", doc.Lag.Count)
	}
	for _, k := range []string{"p50_ms", "p95_ms", "p99_ms"} {
		if v, ok := doc.Lag.Quantiles[k]; !ok || v != 0 {
			t.Errorf("lag.quantiles.%s = %v,%v, want 0 (true zero lag, told apart by count=1)", k, v, ok)
		}
	}
}

// checkWire holds one wire rendering of the lag histogram to what a
// reader may rely on: with count=0 no quantile is rendered, with count>0
// every standard quantile is. It returns the count, and reports through
// t.Errorf so that reader goroutines may call it.
func checkWire(t *testing.T, w metrics.HistogramJSON) uint64 {
	t.Helper()
	for _, k := range []string{"p50_ms", "p95_ms", "p99_ms"} {
		_, present := w.Quantiles[k]
		if w.Count == 0 && present {
			t.Errorf("torn rendering: count=0 but %s=%v", k, w.Quantiles[k])
		}
		if w.Count > 0 && !present {
			t.Errorf("count=%d but %s missing", w.Count, k)
		}
	}
	return w.Count
}

// TestMetricsLineNotTorn is the regression test for a torn lag
// rendering: the sample count and each quantile used to be read under
// separate lock acquisitions, so a concurrent lag sample could land
// between them and produce a count of 0 alongside a nonzero p50. The
// wire form derives both from one snapshot, so that combination stays
// impossible; run under -race this also proves the lock-free observe and
// snapshot paths are data-race-free.
func TestMetricsLineNotTorn(t *testing.T) {
	m := newMetrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lag := m.Lag.Handle()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					lag.Observe(float64(w*1000+i) * 1e-3)
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		checkWire(t, m.Lag.Snapshot().Wire())
	}
	close(stop)
	wg.Wait()
}

// The lag histogram under its production write pattern: writers each
// observing through their own pinned handle while readers take
// snapshots and render the wire form. Every reader must see the sample
// count never decrease (every bucket only grows, and the shard prefix a
// read folds only lengthens), and once the writers are done the merged
// counts must be exact, bucket by bucket. More writers than shards, so
// some shards take two. make race runs it under the race detector.
func TestLagHandlesHammer(t *testing.T) {
	const writers, perWriter, readers = 24, 5000, 2
	m := newMetrics()
	sample := func(w, i int) float64 { return float64((w*perWriter+i)%400) * 5e-5 }

	var wg, rwg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var lastSnap, lastWire uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := m.Lag.Snapshot().N
				if snap < lastSnap {
					t.Errorf("snapshot N went from %d to %d", lastSnap, snap)
					return
				}
				lastSnap = snap
				n := checkWire(t, m.Lag.Snapshot().Wire())
				if n < lastWire {
					t.Errorf("wire count went from %d to %d", lastWire, n)
					return
				}
				lastWire = n
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lag := m.Lag.Handle()
			for i := 0; i < perWriter; i++ {
				lag.Observe(sample(w, i))
			}
		}(w)
	}
	wg.Wait()
	close(done)
	rwg.Wait()

	var ref metrics.Histogram // every sample on one shard, one goroutine
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			ref.Observe(sample(w, i))
		}
	}
	if got, want := m.Lag.Snapshot(), ref.Snapshot(); got != want {
		t.Errorf("merged lag histogram: N=%d sum=%d, want N=%d sum=%d (or buckets differ)",
			got.N, got.SumNS, want.N, want.SumNS)
	}
	if n := checkWire(t, m.Lag.Snapshot().Wire()); n != writers*perWriter {
		t.Errorf("wire count = %d, want %d", n, writers*perWriter)
	}
}
