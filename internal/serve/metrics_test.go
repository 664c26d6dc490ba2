package serve

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"memstream/internal/metrics"
)

// parseLine splits a METRICS line into its key=value pairs.
func parseLine(t *testing.T, line string) map[string]string {
	t.Helper()
	kv := map[string]string{}
	for _, f := range strings.Fields(line) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			t.Fatalf("malformed field %q in %q", f, line)
		}
		kv[k] = v
	}
	return kv
}

// Regression: with zero lag samples the line used to render
// lag_p50_ms=0.000, indistinguishable from true zero lag. The quantile
// keys must be omitted until at least one sample exists, and appear once
// one does — including a genuine zero-lag sample, which then correctly
// renders 0.000 alongside lag_samples=1.
func TestMetricsLineOmitsQuantilesWithoutSamples(t *testing.T) {
	m := newMetrics()
	kv := parseLine(t, m.Line(3))
	if kv["admitted"] != "3" {
		t.Errorf("admitted = %q, want 3", kv["admitted"])
	}
	if kv["lag_samples"] != "0" {
		t.Errorf("lag_samples = %q, want 0", kv["lag_samples"])
	}
	for _, k := range []string{"lag_p50_ms", "lag_p95_ms", "lag_p99_ms"} {
		if v, present := kv[k]; present {
			t.Errorf("%s = %q present with no samples; key must be omitted", k, v)
		}
	}
	if _, present := kv["aborted"]; !present {
		t.Error("aborted key missing from METRICS line")
	}

	m.Lag.Observe(0) // a true zero-lag quantum
	kv = parseLine(t, m.Line(3))
	if kv["lag_samples"] != "1" {
		t.Errorf("lag_samples = %q after one observation, want 1", kv["lag_samples"])
	}
	for _, k := range []string{"lag_p50_ms", "lag_p95_ms", "lag_p99_ms"} {
		if kv[k] != "0.000" {
			t.Errorf("%s = %q, want 0.000 (true zero lag, now distinguishable by lag_samples=1)", k, kv[k])
		}
	}
}

// TestMetricsLineNotTorn is the regression test for a torn METRICS line:
// Line used to read lag_samples and each quantile under separate lock
// acquisitions, so a concurrent lag sample could land between them and
// produce lag_samples=0 alongside a nonzero lag_p50_ms. The histogram
// rendering derives both from one snapshot, so that combination stays
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
		kv := parseLine(t, m.Line(0))
		n, err := strconv.ParseUint(kv["lag_samples"], 10, 64)
		if err != nil {
			t.Fatalf("bad lag_samples %q: %v", kv["lag_samples"], err)
		}
		for _, k := range []string{"lag_p50_ms", "lag_p95_ms", "lag_p99_ms"} {
			v, present := kv[k]
			if n == 0 {
				if present {
					t.Fatalf("torn line: lag_samples=0 but %s=%v rendered", k, v)
				}
				continue
			}
			if !present {
				t.Fatalf("lag_samples=%d but %s missing", n, k)
			}
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Fatalf("bad %s %q: %v", k, v, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// The lag histogram under its production write pattern: writers each
// observing through their own pinned handle while readers take
// snapshots and render METRICS lines. Every reader must see the sample
// count never decrease (every bucket only grows, and the shard prefix a
// read folds only lengthens), and once the writers are done the merged
// counts must be exact, bucket by bucket. More writers than shards, so
// some shards take two. Run under -race in CI.
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
			var lastSnap, lastLine uint64
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
				_, after, _ := strings.Cut(m.Line(0), " lag_samples=")
				field, _, _ := strings.Cut(after, " ")
				n, err := strconv.ParseUint(field, 10, 64)
				if err != nil {
					t.Errorf("lag_samples %q: %v", field, err)
					return
				}
				if n < lastLine {
					t.Errorf("METRICS lag_samples went from %d to %d", lastLine, n)
					return
				}
				lastLine = n
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
	if kv := parseLine(t, m.Line(0)); kv["lag_samples"] != strconv.Itoa(writers*perWriter) {
		t.Errorf("lag_samples = %s, want %d", kv["lag_samples"], writers*perWriter)
	}
}
