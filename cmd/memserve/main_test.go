package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"memstream/internal/disk"
	"memstream/internal/metrics"
	"memstream/internal/model"
	"memstream/internal/units"
)

// buildOpts is the test baseline: defaults everywhere, with overrides
// applied by the caller.
func buildOpts() options {
	return options{dram: "1GB", rate: "100KB", limit: "1MB"}
}

func TestBuildValidatesFlags(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*options)
	}{
		{"bad -dram", func(o *options) { o.dram = "nonsense" }},
		{"bad -bitrate", func(o *options) { o.rate = "fast" }},
		{"bad -limit", func(o *options) { o.limit = "much" }},
		{"bad -pacing", func(o *options) { o.pacing = "heap" }},
	} {
		o := buildOpts()
		c.mutate(&o)
		if srv, err := build(o); err == nil {
			srv.Close()
			t.Errorf("%s accepted", c.name)
		}
	}
	for _, pacing := range []string{"", "goroutine", "wheel"} {
		o := buildOpts()
		o.pacing = pacing
		srv, err := build(o)
		if err != nil {
			t.Errorf("pacing %q rejected: %v", pacing, err)
			continue
		}
		srv.Close()
	}
}

// The admission spec must plan against the block-weighted effective zone
// rate, like the simulator's diskSpec — not the outer-zone maximum, which
// overcommits whole-surface layouts. The capacity yardstick is therefore
// strictly lower than an OuterRate plan would claim.
func TestCapacityUsesEffectiveRate(t *testing.T) {
	srv, err := build(buildOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := disk.FutureDisk()
	d, err := disk.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.EffectiveRate() >= p.OuterRate {
		t.Fatalf("EffectiveRate %v not below OuterRate %v; test premise broken",
			d.EffectiveRate(), p.OuterRate)
	}
	effective := model.MaxStreamsDirect(100*units.KBPS,
		model.DeviceSpec{Rate: d.EffectiveRate(), Latency: p.AvgAccess()}, 1*units.GB)
	outer := model.MaxStreamsDirect(100*units.KBPS,
		model.DeviceSpec{Rate: p.OuterRate, Latency: p.AvgAccess()}, 1*units.GB)
	if got := srv.Capacity(); got != effective {
		t.Errorf("Capacity = %d, want the EffectiveRate plan %d", got, effective)
	}
	if srv.Capacity() >= outer {
		t.Errorf("Capacity = %d not below the OuterRate plan %d; admission would overcommit inner zones",
			srv.Capacity(), outer)
	}
}

// End-to-end SIGTERM drain: the wiring main uses (signal.NotifyContext →
// serve.Serve) must stop accepting, evict the in-flight stream at the
// drain deadline, release its slot, and return nil — exit code 0.
func TestSigtermDrainReleasesSlots(t *testing.T) {
	o := buildOpts()
	o.limit = "0"
	o.readTO = 100 * time.Millisecond
	o.writeTO = 100 * time.Millisecond
	o.drain = 300 * time.Millisecond
	o.maxConns = 16
	o.quantum = 10 * time.Millisecond
	srv, err := build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
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
	go io.Copy(io.Discard, r) // keep reading; with -limit 0 only the drain ends us

	// Deliver a real SIGTERM to ourselves; NotifyContext turns it into
	// the drain trigger instead of killing the test binary.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain after SIGTERM")
	}
	if got := srv.Admitted(); got != 0 {
		t.Errorf("Admitted = %d after SIGTERM drain, want 0", got)
	}
	if got := srv.Metrics().Evicted.Load(); got != 1 {
		t.Errorf("Evicted = %d, want 1 (the unlimited stream force-closed at the deadline)", got)
	}
}

// End-to-end wheel plane through the real wiring: -pacing=wheel serves a
// PLAY to completion over TCP and the control plane's /metrics shows the
// wheel actually drove the stream (nonzero ticks and fires).
func TestWheelPacingEndToEnd(t *testing.T) {
	o := buildOpts()
	o.limit = "32KB"
	o.quantum = 5 * time.Millisecond
	o.pacing = "wheel"
	o.writers = 2
	srv, err := build(o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("PLAY 500KB\n")); err != nil {
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
	body, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 32000 { // ParseBytes("32KB") is decimal
		t.Errorf("streamed %d bytes, want 32000", len(body))
	}

	rec := httptest.NewRecorder()
	srv.ControlHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var doc metrics.Document
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	if got := doc.Counters["completed"]; got != 1 {
		t.Errorf("counters.completed = %d, want 1", got)
	}
	if doc.Counters["wheel_ticks"] == 0 {
		t.Error("counters.wheel_ticks = 0: wheel plane idle")
	}
	if doc.Counters["wheel_fires"] == 0 {
		t.Error("counters.wheel_fires = 0: wheel never fired a stream")
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}
