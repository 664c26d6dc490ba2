package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/schedule"
	"memstream/internal/units"
)

// testConfig provisions the FutureDisk admission spec with fast test
// deadlines. Individual tests override fields before calling New.
func testConfig(dram units.Bytes) Config {
	p := disk.FutureDisk()
	return Config{
		Admission: &schedule.MixedAdmission{
			Disk:    model.DeviceSpec{Rate: p.OuterRate, Latency: p.AvgAccess()},
			DRAMCap: dram,
		},
		DefaultRate:  100 * units.KBPS,
		Limit:        64 * units.KB,
		ReadTimeout:  100 * time.Millisecond,
		WriteTimeout: 100 * time.Millisecond,
		DrainTimeout: 2 * time.Second,
		Quantum:      10 * time.Millisecond,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// runHandle drives one connection through the handler on a pipe and
// returns the client end plus a channel that closes when the handler
// (and its releases) have unwound.
func runHandle(t *testing.T, s *Server) (net.Conn, <-chan struct{}) {
	t.Helper()
	client, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Close()
		s.handle(srv)
	}()
	t.Cleanup(func() {
		client.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("handler did not unwind")
		}
	})
	return client, done
}

func waitDone(t *testing.T, done <-chan struct{}, within time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(within):
		t.Fatalf("%s: handler still running after %v", what, within)
	}
}

// A client that connects and never sends a request line is reaped by the
// read deadline instead of pinning a goroutine forever.
func TestReadDeadlineReapsSilentClient(t *testing.T) {
	s := newTestServer(t, testConfig(1*units.GB))
	_, done := runHandle(t, s)
	waitDone(t, done, 2*time.Second, "silent client")
	if got := s.metrics.Reaped.Load(); got != 1 {
		t.Errorf("Reaped = %d, want 1", got)
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("Admitted = %d, want 0", got)
	}
}

// A slowloris client that trickles a partial line and stalls hits the
// same reaper.
func TestReadDeadlineReapsPartialLine(t *testing.T) {
	s := newTestServer(t, testConfig(1*units.GB))
	client, done := runHandle(t, s)
	if _, err := client.Write([]byte("PLA")); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, 2*time.Second, "partial line")
	if got := s.metrics.Reaped.Load(); got != 1 {
		t.Errorf("Reaped = %d, want 1", got)
	}
}

// A request "line" that never terminates within maxRequestLine bytes is
// cut off by the size limit, not buffered without bound.
func TestOversizeRequestLineReaped(t *testing.T) {
	s := newTestServer(t, testConfig(1*units.GB))
	client, done := runHandle(t, s)
	go client.Write([]byte(strings.Repeat("X", 4*maxRequestLine))) // blocks on the pipe; handler stops at the limit
	waitDone(t, done, 2*time.Second, "oversize line")
	if got := s.metrics.Reaped.Load(); got != 1 {
		t.Errorf("Reaped = %d, want 1", got)
	}
}

// Regression for the Reaped miscount: a client that writes a partial
// request line and disconnects used to be counted as a slowloris reap.
// The server never timed anything out — that is an abort.
func TestPartialLineDisconnectCountsAborted(t *testing.T) {
	s := newTestServer(t, testConfig(1*units.GB))
	client, done := runHandle(t, s)
	if _, err := client.Write([]byte("PLA")); err != nil {
		t.Fatal(err)
	}
	client.Close() // vanish mid-request-line
	waitDone(t, done, 2*time.Second, "partial line disconnect")
	if got := s.metrics.Aborted.Load(); got != 1 {
		t.Errorf("Aborted = %d, want 1", got)
	}
	if got := s.metrics.Reaped.Load(); got != 0 {
		t.Errorf("Reaped = %d, want 0 (no deadline fired)", got)
	}
}

// A clean connect-and-close with no bytes sent counts under neither
// Reaped nor Aborted: no request was ever started (health probes must
// not pollute the outcome counters).
func TestSilentCleanCloseUncounted(t *testing.T) {
	s := newTestServer(t, testConfig(1*units.GB))
	client, done := runHandle(t, s)
	client.Close()
	waitDone(t, done, 2*time.Second, "clean close")
	if got := s.metrics.Reaped.Load(); got != 0 {
		t.Errorf("Reaped = %d, want 0", got)
	}
	if got := s.metrics.Aborted.Load(); got != 0 {
		t.Errorf("Aborted = %d, want 0", got)
	}
}

// Regression for the Evicted miscount: a client that vanishes before the
// "OK streaming" banner is written used to count as an eviction even
// though no paced chunk was ever sent. It aborts; the slot still comes
// back.
func TestBannerWriteFailureCountsAborted(t *testing.T) {
	s := newTestServer(t, testConfig(1*units.GB))
	client, done := runHandle(t, s)
	if _, err := client.Write([]byte("PLAY 100KB\n")); err != nil {
		t.Fatal(err)
	}
	client.Close() // gone before reading the banner
	waitDone(t, done, 2*time.Second, "banner write failure")
	if got := s.metrics.Aborted.Load(); got != 1 {
		t.Errorf("Aborted = %d, want 1", got)
	}
	if got := s.metrics.Evicted.Load(); got != 0 {
		t.Errorf("Evicted = %d, want 0 (server never killed anything)", got)
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("Admitted = %d after abort, want 0", got)
	}
	if got := s.metrics.ActiveStreams.Load(); got != 0 {
		t.Errorf("ActiveStreams = %d after abort, want 0", got)
	}
}

// A client that disconnects mid-stream (read some chunks, then gone) is
// an abort, not an eviction: Evicted stays strictly "the server killed
// it" (write deadline or drain/stop force-close).
func TestMidStreamDisconnectCountsAborted(t *testing.T) {
	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(1 * units.GB)
			cfg.Pacing = mode
			cfg.Limit = 0 // unlimited: the stream ends only when the client goes away
			s := newTestServer(t, cfg)
			client, done := runHandle(t, s)
			if _, err := client.Write([]byte("PLAY 100KB\n")); err != nil {
				t.Fatal(err)
			}
			r := bufio.NewReader(client)
			if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK streaming") {
				t.Fatalf("PLAY response = %q, %v", line, err)
			}
			buf := make([]byte, 4096)
			if _, err := r.Read(buf); err != nil { // at least one paced chunk arrived
				t.Fatal(err)
			}
			client.Close() // vanish mid-stream
			waitDone(t, done, 2*time.Second, "mid-stream disconnect")
			if got := s.metrics.Aborted.Load(); got != 1 {
				t.Errorf("Aborted = %d, want 1", got)
			}
			if got := s.metrics.Evicted.Load(); got != 0 {
				t.Errorf("Evicted = %d, want 0", got)
			}
			if got := s.Admitted(); got != 0 {
				t.Errorf("Admitted = %d after abort, want 0", got)
			}
		})
	}
}

// The eviction guarantee: a client that stops reading mid-stream loses
// its connection within the write deadline and its admission slot is
// returned — stalled clients cannot pin Theorem 1 capacity.
func TestStalledReaderEvictedAndSlotReleased(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.Pacing = PacingGoroutine // TestStalledReaderEvictionBound covers both planes
	cfg.Limit = 0                // unlimited: only eviction can end the stream
	s := newTestServer(t, cfg)
	client, done := runHandle(t, s)

	if _, err := client.Write([]byte("PLAY 100KB\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(client).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "OK streaming") {
		t.Fatalf("PLAY response = %q", line)
	}
	if got := s.Admitted(); got != 1 {
		t.Fatalf("Admitted = %d mid-stream, want 1", got)
	}

	// Stop reading entirely. The pipe is unbuffered, so the next chunk
	// write blocks until the write deadline evicts us.
	start := time.Now()
	waitDone(t, done, 2*time.Second, "stalled reader")
	if elapsed := time.Since(start); elapsed > 1*time.Second {
		t.Errorf("eviction took %v, want within ~write deadline (100ms)", elapsed)
	}
	if got := s.metrics.Evicted.Load(); got != 1 {
		t.Errorf("Evicted = %d, want 1", got)
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("Admitted = %d after eviction, want 0", got)
	}
	if got := s.metrics.ActiveStreams.Load(); got != 0 {
		t.Errorf("ActiveStreams = %d after eviction, want 0", got)
	}
}

// Regression for the sub-quantum rate bug: at 5 B/s a 100ms quantum owes
// 0.5 bytes, which int truncation turned into a zero-length chunk — the
// stream never progressed and held its slot forever. The pacer carries
// fractional bytes, so the stream completes and releases.
func TestSubQuantumRateStreamCompletes(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.Pacing = PacingGoroutine // the wheel has TestWheelSubQuantumRateStreamCompletes
	cfg.Limit = 3 * units.B
	s := newTestServer(t, cfg)
	client, done := runHandle(t, s)

	if _, err := client.Write([]byte("PLAY 5B\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(client)
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
	waitDone(t, done, 5*time.Second, "sub-quantum stream")
	if len(body) != 3 {
		t.Errorf("streamed %d bytes at 5B/s, want 3", len(body))
	}
	if got := s.metrics.Completed.Load(); got != 1 {
		t.Errorf("Completed = %d, want 1", got)
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("Admitted = %d after completion, want 0", got)
	}
}

// The BUSY path for admission-control refusal performs no Release: a
// refused PLAY must leave the admitted population exactly as it was.
func TestAdmissionBusyPerformsNoRelease(t *testing.T) {
	cfg := testConfig(1 * units.MB) // tiny DRAM: a handful of heavy streams
	s := newTestServer(t, cfg)
	full := 0
	for {
		ok, err := s.cfg.Admission.TryAdmit(10 * units.MBPS)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		full++
	}
	if full == 0 {
		t.Fatal("expected a positive admission capacity")
	}

	client, done := runHandle(t, s)
	if _, err := client.Write([]byte("PLAY 10MB\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(client).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "BUSY") {
		t.Fatalf("over-capacity response = %q", line)
	}
	waitDone(t, done, 2*time.Second, "admission busy")
	if got := s.Admitted(); got != full {
		t.Errorf("Admitted = %d after BUSY, want %d (refusal must not release)", got, full)
	}
	if got := s.metrics.AdmissionBusy.Load(); got != 1 {
		t.Errorf("AdmissionBusy = %d, want 1", got)
	}
}

func TestStatAndMetricsCommands(t *testing.T) {
	s := newTestServer(t, testConfig(1*units.GB))
	client, done := runHandle(t, s)
	if _, err := client.Write([]byte("STAT\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(client).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "OK admitted=0 capacity=") {
		t.Fatalf("STAT response = %q", line)
	}
	waitDone(t, done, 2*time.Second, "STAT")

	client2, done2 := runHandle(t, s)
	if _, err := client2.Write([]byte("METRICS\n")); err != nil {
		t.Fatal(err)
	}
	line, err = bufio.NewReader(client2).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"accepted=", "sheds=", "reaped=", "aborted=", "admitted=", "evicted=", "bytes_out=", "lag_samples=0"} {
		if !strings.Contains(line, key) {
			t.Errorf("METRICS response %q missing %q", line, key)
		}
	}
	// No streams have run: the lag quantile keys must be absent, not 0.000.
	if strings.Contains(line, "lag_p95_ms=") {
		t.Errorf("METRICS response %q renders lag quantiles with lag_samples=0", line)
	}
	waitDone(t, done2, 2*time.Second, "METRICS")
}

func TestBadRequests(t *testing.T) {
	for _, req := range []string{"PLAY fast", "PLAY -3KB", "DELETE everything", "   "} {
		s := newTestServer(t, testConfig(1*units.GB))
		client, done := runHandle(t, s)
		if _, err := client.Write([]byte(req + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(client).ReadString('\n')
		if err != nil {
			t.Fatalf("%q: %v", req, err)
		}
		if !strings.HasPrefix(line, "ERR") {
			t.Errorf("request %q: response %q, want ERR", req, line)
		}
		waitDone(t, done, 2*time.Second, req)
		if got := s.metrics.BadRequests.Load(); got != 1 {
			t.Errorf("request %q: BadRequests = %d, want 1", req, got)
		}
	}
}

// --- Serve-level lifecycle tests over real TCP ---

// startServe launches Serve on a loopback listener and returns the dial
// address, the cancel that triggers the drain, and the Serve error channel.
func startServe(t *testing.T, s *Server) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		errc <- s.Serve(ctx, ln)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after cancel")
		}
	})
	return ln.Addr().String(), cancel, errc
}

// The graceful-drain guarantee: cancelling the serve context (what
// SIGINT/SIGTERM trigger in cmd/memserve) stops accepting, force-closes
// in-flight streams at the drain deadline, releases every admission
// slot, and returns nil.
func TestDrainReleasesAllSlots(t *testing.T) {
	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(1 * units.GB)
			cfg.Pacing = mode
			cfg.Limit = 0 // unlimited: streams end only by eviction or drain
			cfg.DrainTimeout = 300 * time.Millisecond
			s := newTestServer(t, cfg)
			addr, cancel, errc := startServe(t, s)

			// Three live streams, each with a client that keeps reading.
			var wg sync.WaitGroup
			for i := 0; i < 3; i++ {
				conn, err := net.Dial("tcp", addr)
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
				wg.Add(1)
				go func() {
					defer wg.Done()
					io.Copy(io.Discard, r) // keep consuming until the server closes us
				}()
			}
			waitFor(t, time.Second, func() bool { return s.Admitted() == 3 })

			cancel()
			select {
			case err := <-errc:
				if err != nil {
					t.Fatalf("Serve returned %v after drain, want nil", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not return within the drain window")
			}
			if got := s.Admitted(); got != 0 {
				t.Errorf("Admitted = %d after drain, want 0", got)
			}
			if got := s.metrics.ActiveStreams.Load(); got != 0 {
				t.Errorf("ActiveStreams = %d after drain, want 0", got)
			}
			if got := s.activeConns(); got != 0 {
				t.Errorf("%d connections still tracked after drain", got)
			}
			wg.Wait() // all clients saw the server close their stream
			// New connections are refused once the listener is down.
			if conn, err := net.Dial("tcp", addr); err == nil {
				conn.Close()
				t.Error("dial succeeded after drain; listener should be closed")
			}
		})
	}
}

// A drain lets short in-flight streams finish: the stream completes its
// byte budget well before the drain deadline and counts as Completed,
// not Evicted.
func TestDrainLetsInFlightStreamsFinish(t *testing.T) {
	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(1 * units.GB)
			cfg.Pacing = mode
			cfg.Limit = 10 * units.KB // ~100ms at 100KB/s with 10ms quanta
			cfg.DrainTimeout = 5 * time.Second
			s := newTestServer(t, cfg)
			addr, cancel, errc := startServe(t, s)

			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("PLAY 100KB\n")); err != nil {
				t.Fatal(err)
			}
			r := bufio.NewReader(conn)
			if _, err := r.ReadString('\n'); err != nil {
				t.Fatal(err)
			}
			cancel() // drain begins while the stream is in flight

			n, _ := io.Copy(io.Discard, r)
			if n < int64(cfg.Limit) {
				t.Errorf("drained stream delivered %d bytes, want ≥ %v", n, cfg.Limit)
			}
			select {
			case err := <-errc:
				if err != nil {
					t.Fatalf("Serve returned %v, want nil", err)
				}
			case <-time.After(4 * time.Second):
				t.Fatal("Serve did not return before the drain deadline despite streams finishing")
			}
			if got := s.metrics.Completed.Load(); got != 1 {
				t.Errorf("Completed = %d, want 1", got)
			}
			if got := s.metrics.Evicted.Load(); got != 0 {
				t.Errorf("Evicted = %d, want 0", got)
			}
		})
	}
}

// The max-connections semaphore sheds excess connections with a fast
// BUSY and no admission Release; the slot frees once the occupant leaves.
func TestMaxConnsShedsWithoutRelease(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.MaxConns = 1
	cfg.ReadTimeout = 2 * time.Second
	s := newTestServer(t, cfg)
	addr, _, _ := startServe(t, s)

	// Occupy the single slot with a connection that never speaks.
	occupant, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer occupant.Close()
	waitFor(t, time.Second, func() bool { return s.metrics.Accepted.Load() == 1 })

	shedConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer shedConn.Close()
	line, err := bufio.NewReader(shedConn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "BUSY") {
		t.Fatalf("over-cap response = %q, want BUSY", line)
	}
	if got := s.metrics.Sheds.Load(); got != 1 {
		t.Errorf("Sheds = %d, want 1", got)
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("Admitted = %d after shed, want 0 (shed must not touch admission)", got)
	}

	// Free the slot and verify the semaphore was not double-released or
	// leaked: the next connection is served normally.
	occupant.Close()
	waitFor(t, 5*time.Second, func() bool {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return false
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("STAT\n")); err != nil {
			return false
		}
		conn.SetReadDeadline(time.Now().Add(time.Second))
		resp, err := bufio.NewReader(conn).ReadString('\n')
		return err == nil && strings.HasPrefix(resp, "OK")
	})
}

func waitFor(t *testing.T, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition not met within %v", within)
}

// playBanner sends one PLAY at the given rate and returns the reply line
// and the reader positioned after it.
func playBanner(client net.Conn, rate units.ByteRate) (string, *bufio.Reader, error) {
	req := "PLAY " + strconv.FormatFloat(float64(rate), 'f', -1, 64) + "\n"
	if _, err := client.Write([]byte(req)); err != nil {
		return "", nil, err
	}
	r := bufio.NewReader(client)
	line, err := r.ReadString('\n')
	return line, r, err
}

// The banner a client reads is the formatted line, byte for byte, whether
// it came from the cache, filled the cache, or found the cache full; and
// the cache stops growing at its bound.
func TestBannerCacheMatchesFormat(t *testing.T) {
	cfg := testConfig(0)
	// A device fast enough that the GB/s bracket is admitted too.
	cfg.Admission.Disk = model.DeviceSpec{Rate: 1e15, Latency: time.Millisecond}
	s := newTestServer(t, cfg)

	// One rate per ByteRate.String bracket and at each bracket's rounding
	// edge, then more distinct rates than the cache holds.
	rates := []units.ByteRate{5, 999.6, 1500, 999999, 2.5e6, 1.2e9, 3e12}
	for i := 0; i < maxBannerRates+16; i++ {
		rates = append(rates, units.ByteRate(20000+i))
	}
	// Again, now that the cache is full: early rates hit, late ones miss.
	rates = append(rates, rates...)
	for _, rate := range rates {
		client, _ := runHandle(t, s) // its cleanup waits for the handler
		line, _, err := playBanner(client, rate)
		if err != nil {
			t.Fatalf("PLAY %v: %v", float64(rate), err)
		}
		client.Close()
		if want := fmt.Sprintf("OK streaming at %v\n", rate); line != want {
			t.Errorf("PLAY %v: banner %q, want %q", float64(rate), line, want)
		}
	}
	s.mu.Lock()
	cached := len(s.banners)
	s.mu.Unlock()
	if cached != maxBannerRates {
		t.Errorf("banner cache holds %d rates after %d distinct ones, want the bound %d",
			cached, len(rates)/2, maxBannerRates)
	}
}

// A flash crowd on both planes: a thousand PLAYs at mixed rates arrive at
// once over in-memory connections, every one is admitted and answered
// with its own rate's banner, then all hang up. Every slot must come back
// and every stream must end under exactly one outcome counter.
func TestPlayBurst(t *testing.T) {
	const clients = 1000
	rates := []units.ByteRate{10 * units.KBPS, 100 * units.KBPS, 33333, 250 * units.KBPS}
	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(64 * units.GB)
			cfg.Pacing = mode
			cfg.Limit = 0
			cfg.Quantum = 50 * time.Millisecond
			// Nobody stalls: no deadline may fire however slowly the race
			// detector runs the crowd, so only hang-ups end streams.
			cfg.ReadTimeout = 30 * time.Second
			cfg.WriteTimeout = 30 * time.Second
			s := newTestServer(t, cfg)

			conns := make([]net.Conn, clients)
			var handlers, answered sync.WaitGroup
			for i := range conns {
				client, srv := net.Pipe()
				conns[i] = client
				handlers.Add(1)
				go func() {
					defer handlers.Done()
					defer srv.Close()
					s.handle(srv)
				}()
				answered.Add(1)
				go func(rate units.ByteRate) {
					line, r, err := playBanner(client, rate)
					answered.Done()
					if err != nil {
						t.Errorf("PLAY %v: %v", rate, err)
						return
					}
					if want := fmt.Sprintf("OK streaming at %v\n", rate); line != want {
						t.Errorf("PLAY %v: banner %q, want %q", rate, line, want)
					}
					io.Copy(io.Discard, r) // keep reading until the hang-up
				}(rates[i%len(rates)])
			}
			answered.Wait()
			if got := s.Admitted(); got != clients {
				t.Errorf("Admitted = %d with the burst standing, want %d", got, clients)
			}
			for _, c := range conns {
				c.Close()
			}
			handlers.Wait()

			m := s.metrics
			if got := s.Admitted(); got != 0 {
				t.Errorf("Admitted = %d after every client hung up, want 0", got)
			}
			if got := m.ActiveStreams.Load(); got != 0 {
				t.Errorf("ActiveStreams = %d after every client hung up, want 0", got)
			}
			s.mu.Lock()
			registered := len(s.streams)
			s.mu.Unlock()
			if registered != 0 {
				t.Errorf("%d streams still registered with the control plane", registered)
			}
			admitted := m.AdmittedTotal.Load()
			if admitted != clients {
				t.Errorf("AdmittedTotal = %d, want %d", admitted, clients)
			}
			if got := m.Completed.Load() + m.Evicted.Load() + m.Aborted.Load(); got != admitted {
				t.Errorf("completed(%d)+evicted(%d)+aborted(%d) = %d, want admitted %d",
					m.Completed.Load(), m.Evicted.Load(), m.Aborted.Load(), got, admitted)
			}
		})
	}
}
