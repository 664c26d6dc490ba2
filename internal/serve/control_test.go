package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memstream/internal/metrics"
	"memstream/internal/units"
)

// dialPlay starts one admitted stream against a Serve-run server and
// returns its reader; the caller keeps the conn open for the test body.
func dialPlay(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte("PLAY 100KB\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "OK streaming") {
		t.Fatalf("PLAY response = %q", line)
	}
	return conn, r
}

func getJSON(t *testing.T, ts *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", path, err)
	}
}

func TestControlStatusAndMetricsDocuments(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.Limit = 0
	s := newTestServer(t, cfg)
	addr, _, _ := startServe(t, s)
	ts := httptest.NewServer(s.ControlHandler())
	defer ts.Close()

	_, r1 := dialPlay(t, addr)
	go io.Copy(io.Discard, r1)
	_, r2 := dialPlay(t, addr)
	go io.Copy(io.Discard, r2)
	waitFor(t, 2*time.Second, func() bool { return s.Admitted() == 2 })

	var st metrics.Status
	getJSON(t, ts, "/status", &st)
	if st.Server != "memserve" || st.State != "serving" {
		t.Errorf("status = %+v, want serving memserve", st)
	}
	if st.Admitted != 2 || st.ActiveStreams != 2 {
		t.Errorf("status admitted=%d active=%d, want 2/2", st.Admitted, st.ActiveStreams)
	}
	if st.Capacity <= 0 || st.AggregateBps != 2*100e3 {
		t.Errorf("status capacity=%d aggregate=%v, want >0 and 200000", st.Capacity, st.AggregateBps)
	}

	// Let at least one paced quantum land so lag samples and bytes exist.
	waitFor(t, 2*time.Second, func() bool { return s.metrics.lagSamples() > 0 })

	var doc metrics.Document
	getJSON(t, ts, "/metrics", &doc)
	if doc.Counters["admitted_total"] != 2 {
		t.Errorf("admitted_total = %d, want 2", doc.Counters["admitted_total"])
	}
	if doc.Gauges["active_streams"] != 2 {
		t.Errorf("active_streams gauge = %d, want 2", doc.Gauges["active_streams"])
	}
	if len(doc.Streams) != 2 {
		t.Fatalf("streams = %+v, want 2 entries", doc.Streams)
	}
	if doc.Streams[0].ID >= doc.Streams[1].ID {
		t.Errorf("streams not ordered by id: %+v", doc.Streams)
	}
	for _, st := range doc.Streams {
		if st.RateBps != 100e3 {
			t.Errorf("stream %d rate = %v, want 100000", st.ID, st.RateBps)
		}
	}
	if doc.Lag.Count == 0 {
		t.Error("lag histogram empty after paced quanta")
	}
	if len(doc.Tiers) != 2 || doc.Tiers[0].Name != "dram" || doc.Tiers[1].Name != "disk" {
		t.Fatalf("tiers = %+v, want [dram disk]", doc.Tiers)
	}
	if doc.Tiers[1].AggregateBps != 2*100e3 || doc.Tiers[1].Utilization <= 0 {
		t.Errorf("disk tier = %+v, want aggregate 200000 and positive utilization", doc.Tiers[1])
	}
	if doc.Tiers[0].UsedBytes <= 0 {
		t.Errorf("dram tier = %+v, want positive planned use with admitted streams", doc.Tiers[0])
	}
}

func TestControlStreamStop(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.Pacing = PacingGoroutine // the wheel has TestWheelStopStream
	cfg.Limit = 0
	s := newTestServer(t, cfg)
	addr, _, _ := startServe(t, s)
	ts := httptest.NewServer(s.ControlHandler())
	defer ts.Close()

	_, r := dialPlay(t, addr)
	copied := make(chan struct{})
	go func() { io.Copy(io.Discard, r); close(copied) }()
	waitFor(t, 2*time.Second, func() bool { return s.Admitted() == 1 })

	var doc metrics.Document
	getJSON(t, ts, "/metrics", &doc)
	if len(doc.Streams) != 1 {
		t.Fatalf("streams = %+v, want 1", doc.Streams)
	}
	id := doc.Streams[0].ID

	resp, err := ts.Client().Post(fmt.Sprintf("%s/streams/%d/stop", ts.URL, id), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stop = %d, want 200", resp.StatusCode)
	}

	// The client sees its stream end, the slot returns, and the kill
	// counts as an eviction (server-initiated force-close).
	select {
	case <-copied:
	case <-time.After(2 * time.Second):
		t.Fatal("client still streaming after control-plane stop")
	}
	waitFor(t, 2*time.Second, func() bool { return s.Admitted() == 0 })
	if got := s.metrics.Evicted.Load(); got != 1 {
		t.Errorf("Evicted = %d after stop, want 1", got)
	}
	if got := s.metrics.Aborted.Load(); got != 0 {
		t.Errorf("Aborted = %d after stop, want 0", got)
	}

	// Stopping a dead id is a 404.
	resp, err = ts.Client().Post(fmt.Sprintf("%s/streams/%d/stop", ts.URL, id), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stop dead id = %d, want 404", resp.StatusCode)
	}
}

func TestControlDrainTrigger(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.Limit = 0
	cfg.DrainTimeout = 300 * time.Millisecond
	s := newTestServer(t, cfg)
	addr, _, errc := startServe(t, s)
	ts := httptest.NewServer(s.ControlHandler())
	defer ts.Close()

	_, r := dialPlay(t, addr)
	go io.Copy(io.Discard, r)
	waitFor(t, 2*time.Second, func() bool { return s.Admitted() == 1 })

	resp, err := ts.Client().Post(ts.URL+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain = %d, want 202", resp.StatusCode)
	}

	// Serve returns nil exactly as with a context cancel, slots released.
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve returned %v after control-plane drain, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after POST /drain")
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("Admitted = %d after drain, want 0", got)
	}
	var st metrics.Status
	getJSON(t, ts, "/status", &st)
	if st.State != "draining" {
		t.Errorf("state = %q after drain, want draining", st.State)
	}
}

// The satellite race test: N goroutines hammer the collector (lag
// histogram + sharded bytes counter) while GET /metrics snapshots
// concurrently. Run under -race in CI; the decoded documents must be
// valid JSON with internally consistent histograms every time.
func TestControlMetricsUnderConcurrentLoad(t *testing.T) {
	s := newTestServer(t, testConfig(1*units.GB))
	ts := httptest.NewServer(s.ControlHandler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.metrics.BytesOut.Handle()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					s.metrics.ObserveLag(float64(i%50) * 1e-4)
					h.Add(1024)
					s.metrics.Completed.Add(1)
				}
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		var doc metrics.Document
		getJSON(t, ts, "/metrics", &doc)
		var bucketSum uint64 = doc.Lag.Overflow
		for _, b := range doc.Lag.Buckets {
			bucketSum += b.Count
		}
		if bucketSum != doc.Lag.Count {
			t.Fatalf("histogram count %d != bucket sum %d", doc.Lag.Count, bucketSum)
		}
		if doc.Lag.Count > 0 {
			if _, ok := doc.Lag.Quantiles["p95_ms"]; !ok {
				t.Fatal("histogram has samples but no quantiles")
			}
		}
	}
	close(stop)
	wg.Wait()
}
