package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memstream/internal/units"
)

func TestParsePacing(t *testing.T) {
	cases := []struct {
		in   string
		want PacingMode
		ok   bool
	}{
		{"", PacingWheel, true},
		{"goroutine", PacingGoroutine, true},
		{"GOROUTINE", PacingGoroutine, true},
		{"wheel", PacingWheel, true},
		{" Wheel ", PacingWheel, true},
		{"heap", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePacing(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePacing(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePacing(%q) succeeded, want error", c.in)
		}
	}
	if PacingGoroutine.String() != "goroutine" || PacingWheel.String() != "wheel" {
		t.Errorf("String() = %q/%q", PacingGoroutine, PacingWheel)
	}
	if (Config{}).Pacing != PacingWheel {
		t.Errorf("zero-value Config.Pacing = %v, want wheel", Config{}.Pacing)
	}
}

// playStream drives one PLAY through runHandle and returns the buffered
// reader positioned after the "OK streaming" banner.
func playStream(t *testing.T, s *Server, rate string) (net.Conn, *bufio.Reader, <-chan struct{}) {
	t.Helper()
	client, done := runHandle(t, s)
	if _, err := client.Write([]byte("PLAY " + rate + "\n")); err != nil {
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
	return client, r, done
}

// The wheel plane delivers exactly the byte budget and counts Completed,
// just like the goroutine plane.
func TestWheelStreamCompletes(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.Pacing = PacingWheel
	cfg.Writers = 2
	s := newTestServer(t, cfg)
	_, r, done := playStream(t, s, "500KB")
	body, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, 5*time.Second, "wheel stream")
	if len(body) != int(cfg.Limit) {
		t.Errorf("wheel stream delivered %d bytes, want exactly %v", len(body), cfg.Limit)
	}
	if got := s.metrics.Completed.Load(); got != 1 {
		t.Errorf("Completed = %d, want 1", got)
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("Admitted = %d after completion, want 0", got)
	}
	if got := s.metrics.WheelStreams.Load(); got != 0 {
		t.Errorf("WheelStreams gauge = %d after completion, want 0", got)
	}
	if got := s.metrics.WheelFires.Load(); got == 0 {
		t.Error("WheelFires = 0 after a completed wheel stream")
	}
}

// The sub-quantum regression, wheel edition: at 5 B/s a 10ms quantum owes
// 0.05 bytes. The wheel must park the stream across the empty quanta
// (QuantaToNonzero) and still complete the budget — fractional bytes
// survive the skip-ahead.
func TestWheelSubQuantumRateStreamCompletes(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.Pacing = PacingWheel
	cfg.Limit = 3 * units.B
	s := newTestServer(t, cfg)
	_, r, done := playStream(t, s, "5B")
	body, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, done, 5*time.Second, "sub-quantum wheel stream")
	if len(body) != 3 {
		t.Errorf("streamed %d bytes at 5B/s, want 3", len(body))
	}
	if got := s.metrics.Completed.Load(); got != 1 {
		t.Errorf("Completed = %d, want 1", got)
	}
	// The park must actually skip empty quanta: 3 bytes at 5B/s take
	// ~600ms = 60 quanta, but only ~3 of them emit. Allow slack for the
	// maxSkip cap and spurious rounding wakes, but far fewer than one
	// fire per quantum.
	if fires := s.metrics.WheelFires.Load(); fires > 20 {
		t.Errorf("WheelFires = %d for 3 emitting quanta; skip-ahead is not parking empty ticks", fires)
	}
}

// The eviction-latency bound that deadline amortization must preserve:
// re-arming SetWriteDeadline only after half-expiry still guarantees a
// stalled reader is evicted within WriteTimeout + one quantum of the
// stall (the blocking write starts at most a quantum after the stall and
// blocks into a deadline at most WriteTimeout away). Checked in both
// pacing modes.
func TestStalledReaderEvictionBound(t *testing.T) {
	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(1 * units.GB)
			cfg.Pacing = mode
			cfg.Limit = 0 // only eviction can end the stream
			cfg.WriteTimeout = 300 * time.Millisecond
			cfg.Quantum = 20 * time.Millisecond
			s := newTestServer(t, cfg)
			_, r, done := playStream(t, s, "100KB")
			// Consume one chunk so the stream is demonstrably flowing,
			// then stall completely.
			buf := make([]byte, 64<<10)
			if _, err := r.Read(buf); err != nil {
				t.Fatal(err)
			}
			stall := time.Now()
			waitDone(t, done, 5*time.Second, "stalled reader")
			elapsed := time.Since(stall)
			// WriteTimeout + one quantum, plus scheduler slack. A per-write
			// deadline refresh bug (pushing the deadline on every blocked
			// retry) or a lost-wake bug would blow far past this.
			if bound := cfg.WriteTimeout + cfg.Quantum + 400*time.Millisecond; elapsed > bound {
				t.Errorf("eviction took %v, want within %v (WriteTimeout+quantum+slack)", elapsed, bound)
			}
			if got := s.metrics.Evicted.Load(); got != 1 {
				t.Errorf("Evicted = %d, want 1", got)
			}
			if got := s.Admitted(); got != 0 {
				t.Errorf("Admitted = %d after eviction, want 0", got)
			}
		})
	}
}

// Pacing equivalence, part 1: with every client reading to completion,
// both planes deliver exactly admitted × Limit bytes — the byte counts
// match across modes because writeChunks clamps catch-up bursts to the
// budget.
func TestPacingEquivalenceBytes(t *testing.T) {
	const clients = 5
	bytesOut := make(map[PacingMode]uint64)
	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		cfg := testConfig(1 * units.GB)
		cfg.Pacing = mode
		cfg.Writers = 2
		cfg.Quantum = 5 * time.Millisecond
		cfg.Limit = 16 * units.KB
		s := newTestServer(t, cfg)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			_, r, done := playStream(t, s, "500KB")
			wg.Add(1)
			go func() {
				defer wg.Done()
				io.Copy(io.Discard, r)
				waitDone(t, done, 10*time.Second, "equivalence client")
			}()
		}
		wg.Wait()
		m := s.metrics
		if got := m.Completed.Load(); got != clients {
			t.Errorf("%v: Completed = %d, want %d", mode, got, clients)
		}
		if got, want := m.BytesOut.Total(), uint64(clients)*uint64(cfg.Limit); got != want {
			t.Errorf("%v: bytes_out = %d, want exactly %d", mode, got, want)
		}
		bytesOut[mode] = m.BytesOut.Total()
	}
	if bytesOut[PacingGoroutine] != bytesOut[PacingWheel] {
		t.Errorf("byte counts diverge across modes: goroutine=%d wheel=%d",
			bytesOut[PacingGoroutine], bytesOut[PacingWheel])
	}
}

// Pacing equivalence, part 2: under a mixed population — completions,
// a mid-stream abort, a stalled reader — every admitted stream ends
// under exactly one outcome counter in both modes:
// completed + evicted + aborted == admitted.
func TestPacingEquivalenceConservation(t *testing.T) {
	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(1 * units.GB)
			cfg.Pacing = mode
			cfg.Writers = 2
			cfg.Quantum = 5 * time.Millisecond
			cfg.Limit = 16 * units.KB
			s := newTestServer(t, cfg)
			var wg sync.WaitGroup

			// Two clients read to completion.
			for i := 0; i < 2; i++ {
				_, r, done := playStream(t, s, "500KB")
				wg.Add(1)
				go func() {
					defer wg.Done()
					io.Copy(io.Discard, r)
					waitDone(t, done, 10*time.Second, "completing client")
				}()
			}
			// One client vanishes mid-stream (abort).
			abortClient, abortR, abortDone := playStream(t, s, "500KB")
			buf := make([]byte, 4096)
			if _, err := abortR.Read(buf); err != nil {
				t.Fatal(err)
			}
			abortClient.Close()
			// One client stalls and is evicted by the write deadline.
			_, stallR, stallDone := playStream(t, s, "500KB")
			if _, err := stallR.Read(buf); err != nil {
				t.Fatal(err)
			}

			wg.Wait()
			waitDone(t, abortDone, 5*time.Second, "aborting client")
			waitDone(t, stallDone, 5*time.Second, "stalled client")

			m := s.metrics
			admitted := m.AdmittedTotal.Load()
			completed := m.Completed.Load()
			evicted := m.Evicted.Load()
			aborted := m.Aborted.Load()
			if admitted != 4 {
				t.Fatalf("AdmittedTotal = %d, want 4", admitted)
			}
			if completed+evicted+aborted != admitted {
				t.Errorf("%v: completed(%d)+evicted(%d)+aborted(%d) != admitted(%d)",
					mode, completed, evicted, aborted, admitted)
			}
			if completed != 2 {
				t.Errorf("%v: Completed = %d, want 2", mode, completed)
			}
			if got := s.Admitted(); got != 0 {
				t.Errorf("%v: Admitted = %d after all streams ended, want 0", mode, got)
			}
			if got := m.ActiveStreams.Load(); got != 0 {
				t.Errorf("%v: ActiveStreams = %d, want 0", mode, got)
			}
			if got := m.WheelStreams.Load(); got != 0 {
				t.Errorf("%v: WheelStreams = %d, want 0", mode, got)
			}
		})
	}
}

// Close on a wheel server sweeps every parked stream: each is evicted
// exactly once, the handlers unwind, and conservation holds.
func TestWheelCloseEvictsParkedStreams(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.Pacing = PacingWheel
	cfg.Writers = 2
	cfg.Limit = 0 // unlimited: only the sweep can end these streams
	s := newTestServer(t, cfg)

	const clients = 3
	var wg sync.WaitGroup
	dones := make([]<-chan struct{}, clients)
	for i := 0; i < clients; i++ {
		_, r, done := playStream(t, s, "100KB")
		dones[i] = done
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(io.Discard, r) // read until the server ends us
		}()
	}
	waitFor(t, 2*time.Second, func() bool { return s.metrics.WheelStreams.Load() == clients })

	s.Close()
	for i, done := range dones {
		waitDone(t, done, 5*time.Second, "swept stream")
		_ = i
	}
	wg.Wait()
	m := s.metrics
	if got := m.Evicted.Load(); got != clients {
		t.Errorf("Evicted = %d after Close, want %d", got, clients)
	}
	if got, want := m.Completed.Load()+m.Evicted.Load()+m.Aborted.Load(), m.AdmittedTotal.Load(); got != want {
		t.Errorf("outcome sum = %d, admitted = %d", got, want)
	}
	if got := m.WheelStreams.Load(); got != 0 {
		t.Errorf("WheelStreams = %d after Close, want 0", got)
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("Admitted = %d after Close, want 0", got)
	}
}

// gateConn is a playRequest client that can fail with a client reset on
// a chosen write, and whose writes can be held at a gate. Only the
// goroutine that currently owns the stream writes to it: its handler for
// the banner, then one worker at a time.
type gateConn struct {
	scriptConn
	gate   *writeGate
	failAt int // the write that fails, the banner being write 1; 0 = none
	writes int
}

// writeGate holds the first write that reaches it once shut, so a test
// can act while a worker is stuck in the middle of its span.
type writeGate struct {
	shut    atomic.Bool
	held    chan struct{} // closed when a write is held
	release chan struct{}
}

func (c *gateConn) Write(b []byte) (int, error) {
	c.writes++
	if c.writes == c.failAt {
		return 0, errReset
	}
	if c.gate.shut.CompareAndSwap(true, false) {
		close(c.gate.held)
		<-c.gate.release
	}
	return c.nullConn.Write(b)
}

// The drain sweep racing a worker in mid-span: streams already written
// this tick are waiting for the span's re-arm when kickAll sets
// draining, so the arm round must evict them rather than park them on a
// wheel nobody will sweep again. Every stream ends exactly once (its
// connection is closed once: acceptConn's count), the outcome counters
// conserve, and the gauge returns to zero.
func TestWheelKickAllRacesSpan(t *testing.T) {
	cfg := testConfig(64 * units.GB)
	cfg.Pacing = PacingWheel
	cfg.Writers = 2
	cfg.Quantum = 5 * time.Millisecond
	cfg.Limit = 4 * units.KB
	cfg.WriteTimeout = 30 * time.Second // no deadline may end a stream
	s := newTestServer(t, cfg)
	p := s.plane

	const streams = 400
	gate := &writeGate{held: make(chan struct{}), release: make(chan struct{})}
	dones := make([]<-chan struct{}, streams)
	for i := range dones {
		rate := 1 * units.KBPS // 5 B a quantum: runs ~4 s unless ended
		failAt := 0
		switch i % 4 {
		case 0:
			rate = 100 * units.KBPS // completes its 4 KB in 8 quanta
		case 1:
			failAt = 4 // the client resets on the third paced write
		}
		conn := &gateConn{scriptConn: scriptConn{data: playLine(rate)}, gate: gate, failAt: failAt}
		dones[i] = acceptConn(t, s, conn).closed
	}
	waitFor(t, 5*time.Second, func() bool {
		return s.metrics.Completed.Load() == streams/4 && s.metrics.Aborted.Load() == streams/4
	})

	gate.shut.Store(true)
	select {
	case <-gate.held:
	case <-time.After(5 * time.Second):
		t.Fatal("no worker reached the gate")
	}
	p.kickAll()
	close(gate.release)

	for i, done := range dones {
		waitDone(t, done, 5*time.Second, fmt.Sprintf("stream %d", i+1))
	}
	m := s.metrics
	if got := m.Completed.Load() + m.Evicted.Load() + m.Aborted.Load(); got != streams {
		t.Errorf("completed(%d)+evicted(%d)+aborted(%d) = %d, want %d admitted",
			m.Completed.Load(), m.Evicted.Load(), m.Aborted.Load(), got, streams)
	}
	if got := m.Evicted.Load(); got != streams/2 {
		t.Errorf("Evicted = %d, want %d (every stream standing at the sweep)", got, streams/2)
	}
	if got := m.WheelStreams.Load(); got != 0 {
		t.Errorf("WheelStreams = %d after the sweep, want 0", got)
	}
	if got := p.w.Len(); got != 0 {
		t.Errorf("%d timers still armed after the sweep", got)
	}
}

// An empty wheel takes no ticks, and the admission that ends an idle
// spell restarts the tick grid: its stream's first chunk comes a whole
// quantum after it arrived, and the quanta spent parked are never
// counted as ticks. Two spells, so both the idle start and the park
// after a stream ended are covered.
func TestWheelIdleLoopParks(t *testing.T) {
	const idleQuanta = 10
	cfg := testConfig(1 * units.GB)
	cfg.Pacing = PacingWheel
	cfg.Quantum = 10 * time.Millisecond
	cfg.Limit = 2 * units.KB // two quanta at 100 KB/s
	s := newTestServer(t, cfg)
	p, m := s.plane, s.metrics
	idle := func() bool {
		p.armMu.Lock()
		defer p.armMu.Unlock()
		return p.idle
	}
	for spell := 0; spell < 2; spell++ {
		waitFor(t, 5*time.Second, idle)
		ticks := m.WheelTicks.Load()
		time.Sleep(idleQuanta * cfg.Quantum)
		if got := m.WheelTicks.Load(); got != ticks {
			t.Fatalf("spell %d: %d ticks taken with nothing armed", spell, got-ticks)
		}
		out := m.BytesOut.Total()
		admitted := time.Now()
		done := acceptConn(t, s, playRequest(100*units.KBPS)).closed
		waitFor(t, 5*time.Second, func() bool { return m.BytesOut.Total() > out })
		if first := time.Since(admitted); first < cfg.Quantum {
			t.Errorf("spell %d: first chunk %v after admission, want at least one quantum (%v)", spell, first, cfg.Quantum)
		}
		waitDone(t, done, 5*time.Second, "idle-spell stream")
		waitFor(t, 5*time.Second, idle)
		if spent := m.WheelTicks.Load() - ticks; spent > idleQuanta/2 {
			t.Errorf("spell %d: %d ticks for a two-quantum stream; the parked quanta were counted", spell, spent)
		}
	}
	if got := m.Completed.Load(); got != 2 {
		t.Errorf("Completed = %d, want 2", got)
	}
}

// StopStream reaches a wheel-parked stream: the control-plane kill
// closes the conn, the stream's next wake observes net.ErrClosed, and it
// counts Evicted — same semantics as the goroutine plane. Over real TCP
// (net.Pipe conflates self-close and peer-close into io.ErrClosedPipe,
// so the Evicted/Aborted split is only observable here).
func TestWheelStopStream(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.Pacing = PacingWheel
	cfg.Limit = 0
	s := newTestServer(t, cfg)
	addr, _, _ := startServe(t, s)
	_, r := dialPlay(t, addr)
	copied := make(chan struct{})
	go func() { io.Copy(io.Discard, r); close(copied) }()
	waitFor(t, 2*time.Second, func() bool { return s.metrics.BytesOut.Total() > 0 })

	if !s.StopStream(1) {
		t.Fatal("StopStream(1) found no stream")
	}
	select {
	case <-copied:
	case <-time.After(5 * time.Second):
		t.Fatal("client still streaming after StopStream")
	}
	waitFor(t, 2*time.Second, func() bool { return s.Admitted() == 0 })
	if got := s.metrics.Evicted.Load(); got != 1 {
		t.Errorf("Evicted = %d after StopStream, want 1", got)
	}
	if got := s.metrics.Aborted.Load(); got != 0 {
		t.Errorf("Aborted = %d after StopStream, want 0", got)
	}
}
