package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
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
	if _, got := wheelState(p); got != 0 {
		t.Errorf("%d timers still armed after the sweep", got)
	}
}

// wheelState reads the plane's wheel clock and armed count under armMu,
// the wheel's only lock, which every caller but the tick loop must hold.
func wheelState(p *wheelPlane) (current int64, armed int) {
	p.armMu.Lock()
	defer p.armMu.Unlock()
	return p.w.Current(), p.w.Len()
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

// writeCountConn is a playRequest client that counts the writes it is
// sent: the banner, then one per quantum that wrote payload, since a
// quantum's bytes go out in one Write while they fit in maxWriteChunk.
type writeCountConn struct {
	scriptConn
	writes atomic.Int64
}

func (c *writeCountConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.scriptConn.Write(b)
}

// Both planes sample lag only for quanta that wrote bytes. At 0.4 bytes
// a quantum most quanta are empty: the goroutine plane wakes for every
// one of them and the wheel for some (a skip-ahead that rounds short),
// and neither may sample them, so lag_samples is the payload write
// count on both planes, and on the goroutine plane that is one write
// per byte of the budget.
func TestLagSamplesOnlyNonEmptyQuanta(t *testing.T) {
	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(1 * units.GB)
			cfg.Pacing = mode
			cfg.Limit = 4 * units.B
			s := newTestServer(t, cfg) // 10 ms quantum
			c := &writeCountConn{scriptConn: scriptConn{data: playLine(40 * units.BPS)}}
			waitDone(t, acceptConn(t, s, c).closed, 5*time.Second, "sub-quantum stream")
			if got := s.metrics.Completed.Load(); got != 1 {
				t.Fatalf("Completed = %d, want 1", got)
			}
			payload := uint64(c.writes.Load() - 1) // less the banner
			if got := s.metrics.Lag.N(); got != payload {
				t.Errorf("lag_samples = %d, want %d: one per quantum that wrote bytes", got, payload)
			}
			if mode == PacingGoroutine && payload != uint64(cfg.Limit) {
				t.Errorf("goroutine plane wrote %d payload quanta, want %d (one byte each)", payload, uint64(cfg.Limit))
			}
		})
	}
}

// The wheel's per-worker shards lose nothing in the merge: with four
// writers each pinning its own BytesOut and lag shard, and every stream
// fast enough to write on each wake, the merged lag count is exactly
// the fires the tick loop handed out, and the merged BytesOut is
// exactly the bytes the registry recorded per stream.
func TestWheelWorkerShardsConserve(t *testing.T) {
	const clients = 32
	cfg := testConfig(1 * units.GB)
	cfg.Pacing = PacingWheel
	cfg.Writers = 4
	cfg.Limit = 20 * units.KB // 20 quanta at 100 KB/s and 10 ms
	cfg.WriteTimeout = 5 * time.Second
	s := newTestServer(t, cfg)
	for i := 0; i < clients; i++ {
		acceptConn(t, s, playRequest(100*units.KBPS))
	}
	// Collect every stream's registry entry while it stands: each one
	// lives 20 quanta, and its bytes field outlives the entry.
	seen := map[uint64]*streamState{}
	waitFor(t, 2*time.Second, func() bool {
		for _, st := range registered(s) {
			seen[st.id] = st
		}
		return len(seen) == clients
	})
	if !connsEnded(s, 5*time.Second) {
		t.Fatal("streams still open 5s after their budgets ran out")
	}
	m := s.metrics
	if got := m.Completed.Load(); got != clients {
		t.Fatalf("Completed = %d, want %d (evicted %d, aborted %d)", got, clients, m.Evicted.Load(), m.Aborted.Load())
	}
	if lag, fires := m.Lag.N(), m.WheelFires.Load(); lag != fires {
		t.Errorf("merged lag samples = %d, want one per fire (%d)", lag, fires)
	}
	var registry uint64
	for _, st := range seen {
		registry += st.bytes.Load()
	}
	if got := m.BytesOut.Total(); got != registry {
		t.Errorf("merged BytesOut = %d, want the registry's %d", got, registry)
	}
	if registry != clients*uint64(cfg.Limit) {
		t.Errorf("registry bytes = %d, want %d", registry, clients*uint64(cfg.Limit))
	}
}

// errSocketReset is a write error as a TCP socket returns it once its
// peer has reset the connection.
var errSocketReset = &net.OpError{Op: "write", Net: "tcp", Err: os.NewSyscallError("write", syscall.ECONNRESET)}

// hangUpConn is a playRequest client that can hang up: its writes then
// fail as a reset socket's do. Its Close calls onClose, if set, first,
// so a test can see what the server had released when it closed it.
type hangUpConn struct {
	scriptConn
	hungUp  atomic.Bool
	onClose func(*hangUpConn)
}

func (c *hangUpConn) Write(b []byte) (int, error) {
	if c.hungUp.Load() {
		return 0, errSocketReset
	}
	return c.scriptConn.Write(b)
}

func (c *hangUpConn) Close() error {
	if c.onClose != nil {
		c.onClose(c)
	}
	return c.scriptConn.Close()
}

// A flash crowd on the wheel leaves at once: several hundred streams,
// split over two workers' spans each tick, all hang up together. Every
// stream ends as one abort, each connection closes exactly once, and the
// release order holds inside every Close: the stream has already left
// the registry, and its slot — with those of every stream closed before
// it — is free.
func TestWheelMassHangUp(t *testing.T) {
	const streams = 400
	cfg := burstConfig(PacingWheel)
	cfg.Writers = 2
	cfg.Quantum = 10 * time.Millisecond
	s := newTestServer(t, cfg)

	var closes, inRegistry, held atomic.Int64
	onClose := func(c *hangUpConn) {
		for _, st := range registered(s) {
			if st.conn.(*countConn).Conn == c {
				inRegistry.Add(1)
			}
		}
		if s.Admitted() > streams-int(closes.Add(1)) {
			held.Add(1)
		}
	}
	clients := make([]*hangUpConn, streams)
	servers := make([]*countConn, streams)
	for i := range clients {
		clients[i] = &hangUpConn{scriptConn: scriptConn{data: playLine(100 * units.KBPS)}, onClose: onClose}
		servers[i] = acceptConn(t, s, clients[i])
	}
	waitFor(t, 10*time.Second, func() bool { return s.metrics.WheelStreams.Load() == streams })
	fires := s.metrics.WheelFires.Load()
	waitFor(t, 5*time.Second, func() bool { return s.metrics.WheelFires.Load() >= fires+2*streams })

	for _, c := range clients {
		c.hungUp.Store(true)
	}
	checkBurstEnded(t, s, servers)
	m := s.metrics
	if got := m.Aborted.Load(); got != streams {
		t.Errorf("Aborted = %d, want %d: every client hung up", got, streams)
	}
	if got := m.WheelStreams.Load(); got != 0 {
		t.Errorf("WheelStreams = %d after the crowd left, want 0", got)
	}
	if n := inRegistry.Load(); n != 0 {
		t.Errorf("%d connections closed while their stream was still registered", n)
	}
	if n := held.Load(); n != 0 {
		t.Errorf("%d connections closed while a closed stream's slot was still held", n)
	}
}

// stallConn is a playRequest client that can stop reading: its next
// write then blocks until the armed write deadline and fails with
// os.ErrDeadlineExceeded, as an unread socket's does. tick is the wheel
// tick of its last write; returned is when the stalled write gave up.
type stallConn struct {
	scriptConn
	wheel    *wheelPlane
	stall    atomic.Bool
	deadline atomic.Int64 // Unix ns
	tick     atomic.Int64
	returned atomic.Int64 // Unix ns
}

func (c *stallConn) SetWriteDeadline(t time.Time) error {
	c.deadline.Store(t.UnixNano())
	return nil
}

func (c *stallConn) Write(b []byte) (int, error) {
	cur, _ := wheelState(c.wheel)
	c.tick.Store(cur)
	if c.stall.Load() {
		time.Sleep(time.Until(time.Unix(0, c.deadline.Load())))
		c.returned.Store(time.Now().UnixNano())
		return 0, os.ErrDeadlineExceeded
	}
	return c.scriptConn.Write(b)
}

// leadConn is a playRequest client that, once told to, hangs up on the
// first wake that comes ahead of behind's in the same span, and makes
// behind stall in that span's very next write.
type leadConn struct {
	scriptConn
	behind   *stallConn
	hangUp   atomic.Bool
	hungUpAt atomic.Int64 // Unix ns
}

func (c *leadConn) Write(b []byte) (int, error) {
	// behind is due every tick; until it has written this tick it comes
	// after us in the span.
	if cur, _ := wheelState(c.behind.wheel); c.hangUp.Load() && c.behind.tick.Load() < cur {
		c.behind.stall.Store(true)
		c.hungUpAt.Store(time.Now().UnixNano())
		return 0, errReset
	}
	return c.scriptConn.Write(b)
}

// The trade-off a span's single release round accepts: a stream that
// ended ahead of a stalled reader in the same span is released only once
// the stalled write gives up, which the write deadline bounds by
// WriteTimeout plus one quantum. Both outcomes count once.
func TestWheelReleaseBehindStall(t *testing.T) {
	cfg := testConfig(1 * units.GB)
	cfg.Pacing = PacingWheel
	cfg.Writers = 1 // one span a tick holds both streams
	cfg.Limit = 0
	cfg.WriteTimeout = 300 * time.Millisecond
	cfg.Quantum = 20 * time.Millisecond
	s := newTestServer(t, cfg)

	stall := &stallConn{scriptConn: scriptConn{data: playLine(100 * units.KBPS)}, wheel: s.plane}
	lead := &leadConn{scriptConn: scriptConn{data: playLine(100 * units.KBPS)}, behind: stall}
	leadDone := acceptConn(t, s, lead).closed
	stallDone := acceptConn(t, s, stall).closed
	waitFor(t, 5*time.Second, func() bool { return s.metrics.WheelFires.Load() >= 6 })

	lead.hangUp.Store(true)
	waitDone(t, leadDone, 5*time.Second, "stream ahead of the stall")
	released := time.Now()
	waitDone(t, stallDone, 5*time.Second, "stalled stream")

	hungUpAt, returned := time.Unix(0, lead.hungUpAt.Load()), time.Unix(0, stall.returned.Load())
	if returned.After(released) {
		t.Errorf("stream released %v before the stalled write behind it returned; want it held until then",
			returned.Sub(released))
	}
	if held, bound := released.Sub(hungUpAt), cfg.WriteTimeout+cfg.Quantum+200*time.Millisecond; held > bound {
		t.Errorf("stream released %v after its hang-up, want within %v (WriteTimeout+quantum+slack)", held, bound)
	}
	m := s.metrics
	if got := m.Aborted.Load(); got != 1 {
		t.Errorf("Aborted = %d, want 1", got)
	}
	if got := m.Evicted.Load(); got != 1 {
		t.Errorf("Evicted = %d, want 1", got)
	}
	if got := s.Admitted(); got != 0 {
		t.Errorf("Admitted = %d after both streams ended, want 0", got)
	}
}
