package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// newTestServer builds a server whose cleanup closes it and then checks
// that every connection it accepted has ended: none tracked, the
// semaphore empty.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		if !connsEnded(s, 5*time.Second) {
			t.Error("accepted connections still open after Close")
			return
		}
		if n := s.activeConns(); n != 0 {
			t.Errorf("%d connections still tracked after every connection ended", n)
		}
		if n := len(s.sem); n != 0 {
			t.Errorf("%d semaphore slots still held after every connection ended", n)
		}
	})
	return s
}

// connsEnded waits up to within for every connection accept admitted to
// end, and reports whether they all did.
func connsEnded(s *Server, within time.Duration) bool {
	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(within):
		return false
	}
}

// countConn is the server end of a test connection. It counts Close
// calls, because the server must end every accepted connection exactly
// once, and closed is closed by the first. A client hangs up by closing
// the wrapped Conn directly, which the count does not see.
type countConn struct {
	net.Conn
	closes atomic.Int32
	closed chan struct{}
}

func newCountConn(c net.Conn) *countConn {
	return &countConn{Conn: c, closed: make(chan struct{})}
}

func (c *countConn) Close() error {
	if c.closes.Add(1) == 1 {
		close(c.closed)
	}
	return c.Conn.Close()
}

// acceptConn hands conn to s through accept, as Serve does, and checks at
// cleanup that the server closed it exactly once.
func acceptConn(t *testing.T, s *Server, conn net.Conn) *countConn {
	t.Helper()
	c := newCountConn(conn)
	s.accept(c)
	t.Cleanup(func() {
		select {
		case <-c.closed:
		case <-time.After(5 * time.Second):
			t.Error("server did not end an accepted connection")
			return
		}
		if n := c.closes.Load(); n != 1 {
			t.Errorf("server closed an accepted connection %d times, want exactly once", n)
		}
	})
	return c
}

// registered returns the registry's streams: its entries that play gave
// an id.
func registered(s *Server) []*streamState {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sts []*streamState
	for st := s.reg.next; st != &s.reg; st = st.next {
		if st.id != 0 {
			sts = append(sts, st)
		}
	}
	return sts
}

// runHandle accepts the server end of a pipe and returns the client end
// plus a channel that closes when the server ends the connection — after
// any stream on it has counted its outcome and released its slot.
func runHandle(t *testing.T, s *Server) (net.Conn, <-chan struct{}) {
	t.Helper()
	client, srv := net.Pipe()
	c := acceptConn(t, s, srv)
	t.Cleanup(func() { client.Close() }) // registered last, so it runs before acceptConn's check
	return client, c.closed
}

func waitDone(t *testing.T, done <-chan struct{}, within time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(within):
		t.Fatalf("%s: connection still open after %v", what, within)
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

func TestBadRequests(t *testing.T) {
	// The stream port speaks PLAY alone: observability is on the control
	// plane, so STAT and METRICS are unknown commands here.
	for _, req := range []string{"PLAY fast", "PLAY -3KB", "DELETE everything", "   ", "STAT", "METRICS"} {
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

// The drain deadline's force-close closes each stream's connection once,
// on both planes: the stream's own end, which follows from its failed
// write or from the wheel's eviction sweep, sees the mark closeAll left
// and does not close it again.
func TestForceCloseClosesEachConnectionOnce(t *testing.T) {
	const streams = 3
	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(1 * units.GB)
			cfg.Pacing = mode
			cfg.Limit = 0 // unlimited: streams end only by the force-close
			s := newTestServer(t, cfg)
			servers := make([]*countConn, streams)
			for i := range servers {
				servers[i] = acceptConn(t, s, playRequest(100*units.KBPS))
			}
			waitFor(t, 2*time.Second, func() bool { return s.metrics.BytesOut.Total() > 0 && s.Admitted() == streams })
			s.closeAll()
			if !connsEnded(s, 5*time.Second) {
				t.Fatal("streams still open 5s after the force-close")
			}
			for i, c := range servers {
				if n := c.closes.Load(); n != 1 {
					t.Errorf("connection %d closed %d times, want exactly once", i, n)
				}
			}
			if got := s.metrics.Evicted.Load(); got != streams {
				t.Errorf("Evicted = %d, want %d", got, streams)
			}
		})
	}
}

// A handler tracks its own connection, so one accepted before the drain's
// force-close can be tracked after it: track must close it at once, and
// the drain must still return. accept is the accept loop's own call.
func TestTrackAfterForceClose(t *testing.T) {
	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(1 * units.GB)
			cfg.Pacing = mode
			cfg.ReadTimeout = 30 * time.Second // only the force-close may end it
			s := newTestServer(t, cfg)
			_, cancel, errc := startServe(t, s)
			s.closeAll()
			client, done := runHandle(t, s)
			waitDone(t, done, 2*time.Second, "connection tracked after the force-close")
			if n, err := client.Read(make([]byte, 1)); err == nil {
				t.Errorf("client read %d bytes from a force-closed connection", n)
			}
			if got := s.metrics.BadRequests.Load() + s.metrics.AdmittedTotal.Load(); got != 0 {
				t.Errorf("the force-closed connection was served: %d requests counted", got)
			}
			cancel()
			select {
			case err := <-errc:
				if err != nil {
					t.Fatalf("Serve returned %v, want nil", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve's drain did not return")
			}
		})
	}
}

// timedOut classifies a failed read or write as errors.As does on the
// errors a real TCP socket returns: a write to a peer that reset the
// connection, a write and a read past their deadlines, and a write and a
// read on a connection closed locally, bare and wrapped.
func TestTimedOutMatchesErrorsAs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pair := func() (client, server *net.TCPConn) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return c.(*net.TCPConn), srv.(*net.TCPConn)
	}
	buf := make([]byte, 1)
	var errs []error

	// Peer reset: a zero linger makes the client's close send RST, and a
	// server write fails once it has arrived.
	client, srv := pair()
	client.SetLinger(0)
	client.Close()
	srv.SetWriteDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := srv.Write(payloadPattern[:1024]); err != nil {
			errs = append(errs, err)
			break
		}
	}
	srv.Close()

	client, srv = pair()
	defer client.Close()
	srv.SetDeadline(time.Now().Add(-time.Second))
	_, err = srv.Write(buf)
	errs = append(errs, err)
	_, err = srv.Read(buf)
	errs = append(errs, err)
	srv.Close()
	_, err = srv.Write(buf)
	errs = append(errs, err)
	_, err = srv.Read(buf)
	errs = append(errs, err)

	var timeouts int
	for _, err := range errs {
		for _, e := range []error{err, fmt.Errorf("wrapped: %w", err)} {
			var ne net.Error
			want := errors.As(e, &ne) && ne.Timeout()
			if got := timedOut(e); got != want {
				t.Errorf("timedOut(%v) = %v, errors.As says %v", e, got, want)
			}
			if want {
				timeouts++
			}
		}
	}
	if timeouts != 4 {
		t.Errorf("%d of %d errors timed out, want the 4 deadline errors: %v", timeouts, 2*len(errs), errs)
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
	// leaked: the next connection is served normally — its request line
	// is read and answered, not shed.
	occupant.Close()
	waitFor(t, 5*time.Second, func() bool {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return false
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("HELLO\n")); err != nil {
			return false
		}
		conn.SetReadDeadline(time.Now().Add(time.Second))
		resp, err := bufio.NewReader(conn).ReadString('\n')
		return err == nil && strings.HasPrefix(resp, "ERR unknown command")
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

// playLine is the request line of one PLAY at the given rate.
func playLine(rate units.ByteRate) []byte {
	return []byte("PLAY " + strconv.FormatFloat(float64(rate), 'f', -1, 64) + "\n")
}

// playRequest is a client that asks for one stream at rate and then
// discards everything it is sent, at memory speed.
func playRequest(rate units.ByteRate) *scriptConn {
	return &scriptConn{data: playLine(rate)}
}

// playBanner sends one PLAY at the given rate and returns the reply line
// and the reader positioned after it.
func playBanner(client net.Conn, rate units.ByteRate) (string, *bufio.Reader, error) {
	if _, err := client.Write(playLine(rate)); err != nil {
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
		client, _ := runHandle(t, s) // its cleanup waits for the connection to end
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

// burstRates are the rates a flash crowd asks for, in turn.
var burstRates = []units.ByteRate{10 * units.KBPS, 100 * units.KBPS, 33333, 250 * units.KBPS}

// burstConfig serves a flash crowd on the given plane. Nobody stalls, so
// no deadline may fire however slowly the race detector runs the crowd:
// only hang-ups end streams.
func burstConfig(mode PacingMode) Config {
	cfg := testConfig(64 * units.GB)
	cfg.Pacing = mode
	cfg.Limit = 0
	cfg.Quantum = 50 * time.Millisecond
	cfg.ReadTimeout = 30 * time.Second
	cfg.WriteTimeout = 30 * time.Second
	return cfg
}

// checkBurstEnded asserts what every hung-up flash crowd must leave
// behind: each connection closed exactly once, no slot, registry entry,
// tracked connection or semaphore slot held, and every stream counted
// under exactly one outcome.
func checkBurstEnded(t *testing.T, s *Server, servers []*countConn) {
	t.Helper()
	if !connsEnded(s, 30*time.Second) {
		t.Fatal("connections still open 30s after every client hung up")
	}
	for i, c := range servers {
		if n := c.closes.Load(); n != 1 {
			t.Errorf("connection %d closed %d times, want exactly once", i, n)
		}
	}
	m := s.metrics
	if got := s.Admitted(); got != 0 {
		t.Errorf("Admitted = %d after every client hung up, want 0", got)
	}
	if got := m.ActiveStreams.Load(); got != 0 {
		t.Errorf("ActiveStreams = %d after every client hung up, want 0", got)
	}
	if n := len(registered(s)); n != 0 {
		t.Errorf("%d streams still registered with the control plane", n)
	}
	if got := s.activeConns(); got != 0 {
		t.Errorf("%d connections still tracked", got)
	}
	if got := len(s.sem); got != 0 {
		t.Errorf("%d semaphore slots still held", got)
	}
	admitted := m.AdmittedTotal.Load()
	if admitted != uint64(len(servers)) {
		t.Errorf("AdmittedTotal = %d, want %d", admitted, len(servers))
	}
	if got := m.Completed.Load() + m.Evicted.Load() + m.Aborted.Load(); got != admitted {
		t.Errorf("completed(%d)+evicted(%d)+aborted(%d) = %d, want admitted %d",
			m.Completed.Load(), m.Evicted.Load(), m.Aborted.Load(), got, admitted)
	}
}

// A flash crowd on both planes: a thousand PLAYs at mixed rates arrive at
// once over in-memory connections through accept, every one is admitted
// and answered with its own rate's banner, then all hang up. Every slot
// must come back and every stream must end under exactly one outcome
// counter.
func TestPlayBurst(t *testing.T) {
	const clients = 1000
	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		t.Run(mode.String(), func(t *testing.T) {
			s := newTestServer(t, burstConfig(mode))

			conns := make([]net.Conn, clients)
			servers := make([]*countConn, clients)
			var answered sync.WaitGroup
			for i := range conns {
				client, srv := net.Pipe()
				conns[i] = client
				servers[i] = newCountConn(srv)
				s.accept(servers[i])
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
				}(burstRates[i%len(burstRates)])
			}
			answered.Wait()
			if got := s.Admitted(); got != clients {
				t.Errorf("Admitted = %d with the burst standing, want %d", got, clients)
			}
			for _, c := range conns {
				c.Close()
			}
			checkBurstEnded(t, s, servers)
		})
	}
}

// A wheel stream owns no goroutine: while a flash crowd stands, the
// process runs no more goroutines than before it arrived, give or take
// the plane's writers and a few in passing. The clients discard at
// memory speed and need no reader goroutine of their own, so any growth
// is the server's.
func TestPlayBurstGoroutines(t *testing.T) {
	const streams = 1000
	cfg := burstConfig(PacingWheel)
	cfg.Writers = 2
	s := newTestServer(t, cfg)
	baseline := runtime.NumGoroutine()
	bound := baseline + cfg.Writers + 4

	servers := make([]*countConn, streams)
	for i := range servers {
		servers[i] = newCountConn(playRequest(burstRates[i%len(burstRates)]))
		s.accept(servers[i])
	}
	waitFor(t, 10*time.Second, func() bool { return s.metrics.WheelStreams.Load() == streams })
	if got := s.Admitted(); got != streams {
		t.Errorf("Admitted = %d with the burst standing, want %d", got, streams)
	}
	// The handlers exit once their streams are parked.
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= bound })
	// And none comes back while the wheel paces the crowd.
	out := s.metrics.BytesOut.Total()
	waitFor(t, 5*time.Second, func() bool { return s.metrics.BytesOut.Total() > out })
	if n := runtime.NumGoroutine(); n > bound {
		t.Errorf("%d goroutines with %d wheel streams standing, want at most %d (baseline %d + %d writers + 4)",
			n, streams, bound, baseline, cfg.Writers)
	}

	for _, c := range servers {
		c.Conn.Close() // the client hangs up
	}
	checkBurstEnded(t, s, servers)
	if got := s.metrics.WheelStreams.Load(); got != 0 {
		t.Errorf("WheelStreams = %d after every client hung up, want 0", got)
	}
}
