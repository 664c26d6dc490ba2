package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"memstream/internal/disk"
	"memstream/internal/metrics"
	"memstream/internal/model"
	"memstream/internal/schedule"
	"memstream/internal/serve"
	"memstream/internal/units"
)

// startServer runs a hardened serve.Server on a loopback port with fast
// deadlines, returning its address and the server for slot inspection.
func startServer(t *testing.T, limit units.Bytes) (string, *serve.Server) {
	t.Helper()
	return startServerMode(t, limit, serve.PacingGoroutine)
}

func startServerMode(t *testing.T, limit units.Bytes, pacing serve.PacingMode) (string, *serve.Server) {
	t.Helper()
	p := disk.FutureDisk()
	s, err := serve.New(serve.Config{
		Admission: &schedule.MixedAdmission{
			Disk:    model.DeviceSpec{Rate: p.OuterRate, Latency: p.AvgAccess()},
			DRAMCap: 1 * units.GB,
		},
		DefaultRate:  100 * units.KBPS,
		Limit:        limit,
		ReadTimeout:  time.Second,
		WriteTimeout: 100 * time.Millisecond,
		DrainTimeout: 2 * time.Second,
		Quantum:      5 * time.Millisecond,
		Pacing:       pacing,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("server did not drain")
		}
		s.Close()
	})
	return ln.Addr().String(), s
}

// The full loop: a mixed client population (normal + slow + stalled)
// runs against a live server; normal and slow clients complete, stalled
// clients are evicted, and the server ends with zero leaked slots.
func TestLoadAgainstLiveServer(t *testing.T) {
	addr, s := startServer(t, 20*units.KB) // ~40ms per stream at 100KB/s with 5ms quanta
	rep, err := run(config{
		addr:     addr,
		clients:  6,
		slow:     1,
		stall:    2,
		rate:     "100KB",
		duration: 800 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report:\n%s", rep)
	if rep.Errors != 0 {
		t.Errorf("Errors = %d, want 0", rep.Errors)
	}
	if rep.Admitted != 6 {
		t.Errorf("Admitted = %d, want 6 (1GB DRAM fits all)", rep.Admitted)
	}
	// The 4 reading clients (3 normal + 1 slow) receive the full limit.
	if rep.Completed < 4 {
		t.Errorf("Completed = %d, want ≥ 4", rep.Completed)
	}
	// Both stalled clients observe the server closing on them.
	if rep.Evicted != 2 {
		t.Errorf("stall evictions = %d, want 2", rep.Evicted)
	}
	if rep.Bytes < int64(4*20*units.KB) {
		t.Errorf("Bytes = %d, want ≥ %d", rep.Bytes, int64(4*20*units.KB))
	}
	if _, ok := rep.Latency.Quantile(0.5); !ok {
		t.Error("no admission-latency samples recorded")
	}
	// Zero leaked slots after the load: the waitDrained probe the smoke
	// test uses must succeed promptly.
	if err := waitDrained(addr, 3*time.Second); err != nil {
		t.Errorf("server did not drain after load: %v", err)
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("Admitted = %d after load, want 0", got)
	}
}

func TestQueryStatAndMetrics(t *testing.T) {
	addr, _ := startServer(t, 1*units.KB)
	line, err := query(addr, "STAT", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "OK admitted=0 capacity=") {
		t.Errorf("STAT = %q", line)
	}
	line, err = query(addr, "METRICS", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "OK ") || !strings.Contains(line, "evicted=") {
		t.Errorf("METRICS = %q", line)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := run(config{clients: 0}); err == nil {
		t.Error("clients=0 accepted")
	}
	if _, err := run(config{clients: 2, slow: 2, stall: 1}); err == nil {
		t.Error("slow+stall > clients accepted")
	}
	if _, err := run(config{clients: 1, rate: "fast"}); err == nil {
		t.Error("bad rate accepted")
	}
}

// The -http-metrics probe against a live control plane: flattened
// key=value output with the counter and status keys the smoke greps for.
func TestProbeHTTP(t *testing.T) {
	_, s := startServer(t, 1*units.KB)
	ts := httptest.NewServer(s.ControlHandler())
	defer ts.Close()

	var buf bytes.Buffer
	if err := probeHTTP(&buf, ts.URL+"/"); err != nil { // trailing slash is tolerated
		t.Fatal(err)
	}
	out := buf.String()
	for _, key := range []string{
		"status.state=serving", "status.admitted=0",
		"counters.admitted_total=0", "counters.reaped=0", "counters.aborted=0",
		"lag.count=0", "tier.dram.utilization=", "tier.disk.utilization=", "streams.live=0",
	} {
		if !strings.Contains(out, key) {
			t.Errorf("probe output missing %q:\n%s", key, out)
		}
	}
	// No samples yet: quantile keys must be absent, matching the METRICS
	// line's omission semantics.
	if strings.Contains(out, "lag.p95_ms=") {
		t.Errorf("probe rendered quantiles with zero samples:\n%s", out)
	}

	if err := probeHTTP(io.Discard, "http://127.0.0.1:1"); err == nil {
		t.Error("probe against dead endpoint succeeded")
	}
}

func TestVerifyDeltas(t *testing.T) {
	before := map[string]uint64{
		"admitted_total": 3, "admission_busy": 1, "completed": 2,
		"evicted": 1, "aborted": 0, "reaped": 5, "bytes_out": 1000,
	}
	after := map[string]uint64{
		"admitted_total": 9, "admission_busy": 3, "completed": 5,
		"evicted": 3, "aborted": 1, "reaped": 5, "bytes_out": 90000,
	}
	rep := &report{Admitted: 6, Busy: 2, Completed: 3, Evicted: 2, Bytes: 80000}
	if problems := verifyDeltas(before, after, rep); len(problems) != 0 {
		t.Errorf("consistent deltas flagged: %v", problems)
	}

	// An eviction the client could not observe (still draining buffers at
	// window end) shifts a stream from the abort to the eviction bucket;
	// conservation still holds and must NOT be flagged.
	after["evicted"] = 4
	after["aborted"] = 0
	if problems := verifyDeltas(before, after, rep); len(problems) != 0 {
		t.Errorf("unobserved eviction flagged: %v", problems)
	}

	// A reaped increment during the load is always a miscount.
	after["reaped"] = 6
	if problems := verifyDeltas(before, after, rep); len(problems) != 1 || !strings.Contains(problems[0], "reaped") {
		t.Errorf("reaped cross-count not flagged: %v", problems)
	}
	after["reaped"] = 5

	// A lost stream — fewer terminal events than admissions — breaks
	// conservation.
	after["aborted"] = 0
	after["evicted"] = 3
	problems := verifyDeltas(before, after, rep)
	if len(problems) != 1 || !strings.Contains(problems[0], "conservation") {
		t.Errorf("lost stream not flagged: %v", problems)
	}

	// Fewer server evictions than clients actually observed is a
	// miscount even when conservation balances (evicted leaked into
	// aborted).
	after["evicted"] = 2
	after["aborted"] = 2
	problems = verifyDeltas(before, after, rep)
	if len(problems) != 1 || !strings.Contains(problems[0], "evicted") {
		t.Errorf("evicted undercount not flagged: %v", problems)
	}
}

// End-to-end: the load runs with a control plane attached and the
// verifier confirms the server's deltas — including a non-trivial
// baseline from a prior run, which the delta arithmetic must cancel
// out. No stalled clients here: with a finite -limit a stall can fit
// entirely in kernel socket buffers, making the server's "completed"
// and the client's "evicted" both defensible — the smoke runs the
// stalled verification against -limit 0 where eviction is forced. Both
// planes: the wheel ends its streams in its writer workers, the goroutine
// plane on each stream's own goroutine, and the verifier checks the
// accounting either way.
func TestVerifyAgainstHTTPLive(t *testing.T) {
	for _, pacing := range []serve.PacingMode{serve.PacingGoroutine, serve.PacingWheel} {
		t.Run(pacing.String(), func(t *testing.T) {
			addr, s := startServerMode(t, 20*units.KB, pacing)
			ts := httptest.NewServer(s.ControlHandler())
			defer ts.Close()

			cfg := config{addr: addr, clients: 4, slow: 1, rate: "100KB", duration: 800 * time.Millisecond}

			// First run pollutes the baseline; wait for its accounting to settle.
			if _, err := run(cfg); err != nil {
				t.Fatal(err)
			}
			waitFor(t, ts, 3*time.Second)

			before, err := fetchMetrics(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Errors != 0 {
				t.Fatalf("load errors: %d\n%s", rep.Errors, rep)
			}
			if err := verifyAgainstHTTP(ts.URL, before, rep); err != nil {
				t.Errorf("verification failed against live server: %v", err)
			}
		})
	}
}

// waitFor polls /status until no streams are live, so counter snapshots
// taken afterwards are final.
func waitFor(t *testing.T, ts *httptest.Server, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		var st metrics.Status
		if err := fetchJSON(ts.URL, "/status", &st); err != nil {
			t.Fatal(err)
		}
		if st.ActiveStreams == 0 && st.Admitted == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not settle: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestParsePopulations(t *testing.T) {
	got, err := parsePopulations(" 100, 500 ,1000 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 100 || got[1] != 500 || got[2] != 1000 {
		t.Errorf("parsePopulations = %v, want [100 500 1000]", got)
	}
	for _, bad := range []string{"", ",,", "10,zero", "0", "-5", "1.5"} {
		if _, err := parsePopulations(bad); err == nil {
			t.Errorf("parsePopulations(%q) accepted", bad)
		}
	}
}

func TestLagDeltaQuantile(t *testing.T) {
	before := metrics.HistogramJSON{
		Count:   10,
		Buckets: []metrics.BucketJSON{{LeMS: 1, Count: 6}, {LeMS: 2, Count: 4}},
	}
	after := metrics.HistogramJSON{
		Count: 110,
		Buckets: []metrics.BucketJSON{
			{LeMS: 1, Count: 96}, // +90 in this window
			{LeMS: 2, Count: 9},  // +5
			{LeMS: 16, Count: 5}, // +5
		},
	}
	// 100 window samples: ranks 1–90 land in le=1, 91–95 in le=2, 96–100
	// in le=16.
	if got := lagDeltaQuantile(before, after, 0.50); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := lagDeltaQuantile(before, after, 0.95); got != 2 {
		t.Errorf("p95 = %v, want 2", got)
	}
	if got := lagDeltaQuantile(before, after, 0.99); got != 16 {
		t.Errorf("p99 = %v, want 16", got)
	}
	// Empty window: the cumulative totals are equal, so no quantile.
	if got := lagDeltaQuantile(after, after, 0.99); got != 0 {
		t.Errorf("empty-window quantile = %v, want 0", got)
	}
	// All window samples in overflow: report the finite histogram ceiling,
	// never ±Inf (it must survive JSON marshalling).
	of := metrics.HistogramJSON{Count: 5, Overflow: 5}
	ceiling := metrics.BucketBound(metrics.NumBuckets-2) * 1e3
	if got := lagDeltaQuantile(metrics.HistogramJSON{}, of, 0.5); got != ceiling {
		t.Errorf("overflow-only quantile = %v, want ceiling %v", got, ceiling)
	}
}

// A real two-step sweep against a live wheel-mode server: every step's
// deltas are isolated (step 2's counters don't include step 1's), each
// cohort completes, conservation holds per step, and the JSON document
// lands on disk with the declared schema.
func TestRunSweepLive(t *testing.T) {
	addr, s := startServerMode(t, 20*units.KB, serve.PacingWheel)
	ts := httptest.NewServer(s.ControlHandler())
	defer ts.Close()

	jsonPath := t.TempDir() + "/sweep.json"
	cfg := config{addr: addr, rate: "100KB", duration: 800 * time.Millisecond}
	var buf bytes.Buffer
	if err := runSweep(&buf, ts.URL, cfg, "3,5", jsonPath); err != nil {
		t.Fatalf("runSweep: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	t.Logf("sweep output:\n%s", out)
	if !strings.Contains(out, "sweep streams=3:") || !strings.Contains(out, "sweep streams=5:") {
		t.Errorf("missing per-step lines:\n%s", out)
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc sweepReport
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("sweep JSON invalid: %v", err)
	}
	if doc.Schema != "memsload-sweep/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(doc.Steps))
	}
	for i, want := range []int{3, 5} {
		st := doc.Steps[i]
		if st.Streams != want {
			t.Errorf("step %d: streams = %d, want %d", i, st.Streams, want)
		}
		// Isolation + completion: this step's window admitted and completed
		// exactly its own cohort (20KB at 100KB/s finishes well inside the
		// run window), with no carry-over from the previous step.
		if st.Admitted != uint64(want) || st.Completed != uint64(want) {
			t.Errorf("step %d: admitted=%d completed=%d, want both %d", i, st.Admitted, st.Completed, want)
		}
		if st.Errors != 0 || st.Busy != 0 {
			t.Errorf("step %d: errors=%d busy=%d, want 0", i, st.Errors, st.Busy)
		}
		if got, want := st.Completed+st.Evicted+st.Aborted, st.Admitted; got != want {
			t.Errorf("step %d: conservation %d != admitted %d", i, got, want)
		}
		if st.BytesOut != uint64(want)*uint64(20*units.KB) {
			t.Errorf("step %d: bytes_out = %d, want %d", i, st.BytesOut, uint64(want)*uint64(20*units.KB))
		}
		if st.WheelFires == 0 {
			t.Errorf("step %d: wheel plane idle (wheel_fires=0)", i)
		}
		if st.LagSamples == 0 {
			t.Errorf("step %d: no lag samples in window", i)
		}
	}
}

func TestReportString(t *testing.T) {
	rep, err := run(config{addr: "127.0.0.1:1", clients: 2, rate: "100KB", duration: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing listens there: both clients error, and the report renders.
	if rep.Errors != 2 {
		t.Errorf("Errors = %d, want 2", rep.Errors)
	}
	out := rep.String()
	for _, key := range []string{"errors=2", "bytes_in=", "admission_latency_ms"} {
		if !strings.Contains(out, key) {
			t.Errorf("report %q missing %q", out, key)
		}
	}
}
