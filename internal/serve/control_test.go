package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"runtime"
	"strconv"
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

// A tracked connection that has not asked for a stream is a registry
// entry without an id: GET /metrics counts it under conns but lists no
// stream for it, and POST /streams/0/stop finds nothing to stop.
func TestControlSkipsConnectionsNotYetStreams(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.ReadTimeout = 30 * time.Second // the client stays silent
	s := newTestServer(t, cfg)
	_, done := runHandle(t, s)
	waitFor(t, 2*time.Second, func() bool { return s.activeConns() == 1 })
	h := s.ControlHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var doc metrics.Document
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Gauges["conns"] != 1 || len(doc.Streams) != 0 {
		t.Errorf("conns = %d, streams = %+v; want 1 connection and no stream", doc.Gauges["conns"], doc.Streams)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/streams/0/stop", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("POST /streams/0/stop = %d, want 404", rec.Code)
	}
	select {
	case <-done:
		t.Error("stopping stream 0 closed a connection that is not a stream")
	default:
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
// concurrently. make race runs it under the race detector; the decoded
// documents must be valid JSON with internally consistent histograms
// every time.
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
			pin := s.metrics.pin()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					pin.lag.Observe(float64(i%50) * 1e-4)
					pin.out.Add(1024)
					s.metrics.Completed.Add(1)
					if i%64 == 63 {
						// Let the scrapes in: eight spinning writers on
						// a small box otherwise starve the HTTP side.
						runtime.Gosched()
					}
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

// GET /metrics streams the per-stream array in place of the null that a
// nil Streams marshals to, so every marshalled envelope must end
// `"streams":null}`: Streams stays the last field of metrics.Document
// and never takes omitempty.
func TestMetricsEnvelopeEndsInStreams(t *testing.T) {
	var lag metrics.Histogram
	lag.Observe(0.002)
	lag.Observe(100) // overflow
	full := metrics.Document{
		Server:   "memserve",
		State:    "draining",
		UptimeMS: 12,
		Counters: map[string]uint64{"accepted": 3},
		Gauges:   map[string]int64{"admitted": 1},
		Lag:      lag.Snapshot().Wire(),
		Tiers:    []metrics.Tier{{Name: "dram", CapBytes: 1}, {Name: "disk", RateBps: 2}},
	}
	for _, doc := range []metrics.Document{{}, full} {
		envelope, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(envelope, []byte(`"streams":null}`)) {
			t.Errorf("envelope %s does not end in \"streams\":null}", envelope)
		}
	}
}

// stopConn stands for a live stream's connection in FuzzControlHandler's
// registry; it only records that the control plane closed it.
type stopConn struct {
	net.Conn
	closed bool
}

func (c *stopConn) Close() error {
	c.closed = true
	return nil
}

// FuzzControlHandler sends the control plane any method on any of its
// routes, and on some it does not have, with any stream id, in process.
// The handler must never panic; it answers 200, 202, 400, 404 or 405
// and nothing else; every 2xx body is JSON; every other reply is a JSON
// object with a string "error"; and no request closes a
// stream but a stop that named that stream's id. The fuzzed id is one
// path segment, and the path is sent clean, as a client would send it:
// the mux redirects any other path before a handler runs.
func FuzzControlHandler(f *testing.F) {
	routes := [...]string{"/metrics", "/status", "/streams/%s/stop", "/drain", "/streams/%s", "/%s"}
	for _, seed := range []struct {
		method string
		route  uint8
		id     string
	}{
		{"GET", 0, ""}, {"HEAD", 0, ""}, {"POST", 0, ""}, {"GET", 1, ""},
		{"POST", 2, "0"}, {"POST", 2, "1"}, {"POST", 2, "3"}, {"POST", 2, "99"}, {"POST", 2, "01"},
		{"POST", 2, "x"}, {"POST", 2, "-1"}, {"POST", 2, "+1"}, {"POST", 2, "18446744073709551616"},
		{"POST", 2, ""}, {"POST", 2, ".."}, {"POST", 2, "1/stop"}, {"GET", 2, "1"},
		{"CONNECT", 2, "2"}, {"POST", 3, ""}, {"DELETE", 3, ""}, {"PUT", 4, "1"},
		{"GET", 5, "metrics"}, {"POST", 5, "drain"}, {"get", 1, ""},
	} {
		f.Add(seed.method, seed.route, seed.id)
	}
	cfg := testConfig(0)
	cfg.Pacing = PacingGoroutine // nothing streams, so no wheel to Close
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	// Registry entries alone, linked as track and play would: a stop
	// closes the entry's conn, and with no stream goroutine behind it
	// nothing else happens. Entry 0 is a tracked connection that is not
	// yet a stream, which no request may close.
	conns := map[uint64]*stopConn{}
	s.mu.Lock()
	for id := uint64(0); id <= 3; id++ {
		conns[id] = &stopConn{}
		s.link(&streamState{id: id, rate: cfg.DefaultRate, conn: conns[id]})
	}
	s.mu.Unlock()
	h := s.ControlHandler()
	f.Fuzz(func(t *testing.T, method string, route uint8, id string) {
		target := path.Clean(strings.ReplaceAll(routes[int(route)%len(routes)], "%s", url.PathEscape(id)))
		req, err := http.NewRequest(method, target, nil)
		if err != nil {
			return // no client can send it: not a method token
		}
		for _, c := range conns {
			c.closed = false
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed:
		default:
			t.Fatalf("%s %s: status %d", method, target, rec.Code)
		}
		if rec.Code/100 == 2 && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %s: %d with a body that is not JSON: %q", method, target, rec.Code, rec.Body.Bytes())
		}
		if rec.Code/100 != 2 {
			var body struct {
				Error *string `json:"error"`
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" ||
				json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == nil {
				t.Fatalf("%s %s: %d as %q with a body that is not a JSON error object: %q",
					method, target, rec.Code, ct, rec.Body.Bytes())
			}
		}
		named, err := strconv.ParseUint(id, 10, 64)
		for sid, c := range conns {
			if c.closed && (err != nil || sid != named || sid == 0) {
				t.Fatalf("%s %s closed stream %d", method, target, sid)
			}
		}
	})
}
