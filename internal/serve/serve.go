// Package serve is the production front-end for the admission-controlled
// streaming server: a connection supervisor that wraps the analytical
// planner's MixedAdmission controller with the lifecycle machinery a
// network-facing process needs and the demo listener lacked.
//
// Admission capacity is the scarce resource Theorem 1 guards, so the
// supervisor's job is to make sure no connection can pin an admitted
// slot beyond its useful life:
//
//   - a read deadline on the request line reaps slowloris clients that
//     connect and never speak (bounded in bytes as well as time);
//   - a write deadline on every streamed chunk evicts clients that stop
//     reading, returning their slot to the admission controller;
//   - a max-connections semaphore sheds excess connections with a fast
//     BUSY line before they consume a goroutine or file descriptor;
//   - context cancellation (wired to SIGINT/SIGTERM by cmd/memserve)
//     triggers a graceful drain: stop accepting, let in-flight streams
//     finish up to a deadline, force-close the rest, and release every
//     admission slot before returning;
//   - pacing runs against absolute monotonic-clock quantum boundaries
//     (units.Pacer), so a blocked write delays one chunk without
//     shifting the whole schedule, and sub-byte-per-quantum rates carry
//     their fractional bytes instead of stalling forever.
//
// The wire protocol stays the demo's line protocol: "PLAY <rate>",
// "STAT", plus a new "METRICS" command exposing the supervisor's
// counters and pacing-lag histogram (see Metrics.Line).
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memstream/internal/metrics"
	"memstream/internal/model"
	"memstream/internal/schedule"
	"memstream/internal/units"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultReadTimeout  = 5 * time.Second
	DefaultWriteTimeout = 5 * time.Second
	DefaultDrainTimeout = 10 * time.Second
	DefaultMaxConns     = 1024
	DefaultQuantum      = 100 * time.Millisecond

	// maxRequestLine bounds the request line in bytes, so a client
	// trickling an endless header cannot hold the reader past it.
	maxRequestLine = 1024

	// maxWriteChunk caps a single Write: after a blocked write the pacer
	// owes a catch-up burst (rate × stall), which is sent as bounded
	// slices instead of one allocation proportional to the stall.
	maxWriteChunk = 256 << 10

	// maxBannerRates bounds the cache of pre-rendered PLAY banners, one
	// per distinct rate; rates beyond it are formatted per stream.
	maxBannerRates = 64
)

// payloadPattern is the one immutable synthetic payload every stream
// slices its chunks from. Streams used to allocate and fill a private
// buffer each (population × up to 256KB of dead memory and a fill loop
// on the admission path); sharing one read-only pattern makes the
// steady-state write path allocation-free. Nothing may ever write into
// it.
var payloadPattern = func() []byte {
	buf := make([]byte, maxWriteChunk)
	for i := range buf {
		buf[i] = byte('A' + i%26)
	}
	return buf
}()

// PacingMode selects the data plane that wakes streams at quantum
// boundaries.
type PacingMode int

const (
	// PacingWheel, the default, parks all streams on one hierarchical
	// timer wheel; a single ticker goroutine batches the due population
	// each quantum to a small writer-worker pool (Config.Writers).
	// O(workers) runtime timers and goroutines regardless of population
	// (a stream's handler exits once the stream is parked), and under half
	// the goroutine plane's CPU per stream-second at 4000 streams.
	PacingWheel PacingMode = iota
	// PacingGoroutine is the classic plane: every stream owns a
	// goroutine with a private runtime timer. Simple, lower pacing lag
	// at small populations, and the baseline the wheel is measured
	// against.
	PacingGoroutine
)

// String renders the flag spelling.
func (m PacingMode) String() string {
	if m == PacingGoroutine {
		return "goroutine"
	}
	return "wheel"
}

// ParsePacing parses a -pacing flag value; empty selects the default.
func ParsePacing(s string) (PacingMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "wheel":
		return PacingWheel, nil
	case "goroutine":
		return PacingGoroutine, nil
	}
	return 0, fmt.Errorf("serve: unknown pacing mode %q (want goroutine or wheel)", s)
}

// Config parameterizes a Server. Admission and DefaultRate are required;
// every zero duration/count takes the package default.
type Config struct {
	Admission   *schedule.MixedAdmission
	DefaultRate units.ByteRate // PLAY with no rate argument
	Limit       units.Bytes    // bytes streamed per client; 0 = unlimited

	ReadTimeout  time.Duration // request-line deadline (slowloris reaping)
	WriteTimeout time.Duration // per-chunk write deadline (stalled-reader eviction)
	DrainTimeout time.Duration // graceful-drain budget after ctx cancellation
	MaxConns     int           // concurrent-connection cap (BUSY shed beyond it)
	Quantum      time.Duration // pacing quantum

	Pacing  PacingMode // timer wheel (default) or goroutine-per-stream
	Writers int        // wheel writer workers; 0 = GOMAXPROCS

	Logf func(format string, args ...any) // nil = silent
}

// Server supervises one listener. Create with New; run with Serve.
type Server struct {
	cfg     Config
	sem     chan struct{}
	metrics *Metrics
	started time.Time

	// drainCh triggers the graceful drain from inside the process (the
	// control plane's POST /drain), equivalent to cancelling Serve's ctx.
	drainOnce sync.Once
	drainCh   chan struct{}
	draining  atomic.Bool

	nextStreamID atomic.Uint64

	// plane is the timer-wheel data plane; nil in goroutine mode.
	plane *wheelPlane

	// connWG counts accepted connections that have not ended (endConn).
	// A wheel stream's connection ends in a writer worker, long after its
	// handler returned, so the count belongs to the Server, not to Serve.
	connWG sync.WaitGroup

	mu      sync.Mutex // guards adm (MixedAdmission is not goroutine-safe), conns, streams and banners
	conns   map[net.Conn]struct{}
	streams map[uint64]*streamState
	// banners holds the PLAY reply line of up to maxBannerRates distinct
	// rates. Rendering one goes through ByteRate.String's %.2f, which
	// strconv serves from an ~800-byte stack frame: done per stream it
	// grew every handler goroutine's stack (~4.5 KB of RSS per stream).
	banners map[units.ByteRate][]byte
}

// streamState is one live paced stream's control-plane record (identity
// for POST /streams/{id}/stop and the per-stream byte gauge the /metrics
// document reports) plus its write-path state. The write-path fields
// (pacer, sent, out, deadlineAt) are owned by whichever goroutine is
// currently pacing the stream — its own goroutine in PacingGoroutine,
// exactly one wheel worker at a time in PacingWheel — and are shared by
// both planes through writeChunks. bytes is the one field read by other
// goroutines (the control plane), hence atomic.
type streamState struct {
	id    uint64
	rate  units.ByteRate
	start time.Time
	conn  net.Conn
	bytes atomic.Uint64

	pacer *units.Pacer
	sent  units.Bytes
	out   metrics.Handle // pinned BytesOut shard: uncontended per-chunk adds
	// deadlineAt is when the conn's write deadline was last armed; the
	// deadline is re-armed only once more than half of WriteTimeout has
	// elapsed since, replacing a SetWriteDeadline syscall per chunk
	// with one per ~WriteTimeout/2.
	deadlineAt time.Time
}

// New validates cfg, fills defaults, and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Admission == nil {
		return nil, errors.New("serve: Config.Admission is required")
	}
	if cfg.DefaultRate <= 0 {
		return nil, fmt.Errorf("serve: non-positive default rate %v", cfg.DefaultRate)
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.Writers <= 0 {
		cfg.Writers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxConns),
		metrics: newMetrics(),
		started: time.Now(),
		drainCh: make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		streams: make(map[uint64]*streamState),
		banners: make(map[units.ByteRate][]byte),
	}
	if cfg.Pacing == PacingWheel {
		s.plane = newWheelPlane(s)
	}
	return s, nil
}

// Close releases the server's background machinery — today the wheel
// plane's ticker and worker pool; a no-op in goroutine mode. Any
// streams still parked on the wheel are evicted and their connections
// ended. Idempotent. Serve does NOT call it: the plane outlives a drain
// so tests and embedders can run multiple loads; call Close when the
// Server is done for good.
func (s *Server) Close() {
	if s.plane != nil {
		s.plane.stop()
	}
}

// Metrics exposes the supervisor's counters and lag histogram.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Admitted reports the admission controller's current stream count.
func (s *Server) Admitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Admission.Admitted()
}

// Capacity is the homogeneous-rate yardstick shown in STAT responses:
// the largest stream count at the default rate the admission spec
// sustains. The actual admission decision handles arbitrary rate mixes.
func (s *Server) Capacity() int {
	return model.MaxStreamsDirect(s.cfg.DefaultRate, s.cfg.Admission.Disk, s.cfg.Admission.DRAMCap)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until ctx is cancelled, then drains:
// the listener closes immediately, in-flight streams get up to
// DrainTimeout to finish, stragglers are force-closed, and every
// admission slot is released before Serve returns. Serve closes ln.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
		case <-s.drainCh: // control-plane POST /drain
		case <-stop:
			return
		}
		s.draining.Store(true)
		ln.Close() // unblocks Accept
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || s.draining.Load() || errors.Is(err, net.ErrClosed) {
				break
			}
			s.logf("serve: accept: %v", err)
			time.Sleep(10 * time.Millisecond) // avoid a hot loop on persistent errors
			continue
		}
		s.accept(conn)
	}

	// Graceful drain: accepting has stopped; in-flight streams may finish
	// up to the deadline, then the rest are force-closed (their write
	// paths error out and end them, releasing their slots).
	s.draining.Store(true)
	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		s.logf("serve: drain deadline after %v; force-closing %d connections",
			s.cfg.DrainTimeout, s.activeConns())
		s.closeAll()
		<-done
	}

	// Safety net: every connection has ended, so any slot still held
	// would be leaked capacity. Reclaim it loudly.
	s.mu.Lock()
	leaked := s.cfg.Admission.ReleaseAll()
	s.mu.Unlock()
	if leaked > 0 {
		s.logf("serve: drain reclaimed %d leaked admission slots", leaked)
	}
	return nil
}

// Drain triggers the graceful drain from inside the process — the
// control plane's POST /drain. Equivalent to cancelling the Serve
// context; safe to call repeatedly and before Serve starts.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// Draining reports whether the server has begun (or finished) draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// Started returns the supervisor's construction time (uptime anchor).
func (s *Server) Started() time.Time { return s.started }

// StopStream force-closes the live stream with the given id — the
// control plane's POST /streams/{id}/stop. The stream's write path
// errors out with net.ErrClosed and the stream ends, releasing its
// admission slot and counting under Evicted (a server-initiated kill,
// exactly like a drain force-close). It reports whether the id named a
// live stream.
func (s *Server) StopStream(id uint64) bool {
	s.mu.Lock()
	st, ok := s.streams[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	st.conn.Close()
	return true
}

// shed refuses one connection with a fast BUSY line. The short deadline
// bounds the goroutine even against a client with a zero receive window.
func shed(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	fmt.Fprintln(conn, "BUSY connection capacity exhausted")
	conn.Close()
}

// accept takes one connection off the listener: at the connection cap it
// is shed with BUSY, otherwise it holds a semaphore slot, is tracked for
// the drain's force-close, and gets a handler goroutine. Every connection
// accept admits ends exactly once, in endConn — from the handler, or, if
// PLAY handed it to a stream, from whichever path ends the stream.
func (s *Server) accept(conn net.Conn) {
	select {
	case s.sem <- struct{}{}:
	default:
		// At the connection cap: shed fast, off the accept loop, and
		// without touching admission — a shed must not Release a slot it
		// never held.
		s.metrics.Sheds.Add(1)
		go shed(conn)
		return
	}
	s.metrics.Accepted.Add(1)
	s.track(conn)
	s.connWG.Add(1)
	go func() {
		if !s.handle(conn) {
			s.endConn(conn)
		}
	}()
}

// endStream ends an admitted stream on either plane, in two steps whose
// order is the contract: first the stream leaves the control-plane
// registry, returns its admission slot and leaves the ActiveStreams
// gauge; then its connection ends. A client that sees the close may at
// once ask for Admitted() and must read the slot as free. It must not be
// called with s.mu held.
func (s *Server) endStream(st *streamState) {
	s.mu.Lock()
	delete(s.streams, st.id)
	s.cfg.Admission.Release(st.rate)
	s.mu.Unlock()
	s.metrics.ActiveStreams.Add(-1)
	s.endConn(st.conn)
}

// endConn ends one accepted connection: close it, stop tracking it, and
// give back its semaphore slot and its count in connWG. Ending a
// connection accept never took is a bug; it panics rather than block its
// caller on an empty semaphore.
func (s *Server) endConn(conn net.Conn) {
	conn.Close()
	s.untrack(conn)
	select {
	case <-s.sem:
	default:
		panic("serve: endConn on a connection accept never took")
	}
	s.connWG.Done()
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) activeConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Server) closeAll() {
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	// Streams parked on the wheel may be armed seconds out (sub-quantum
	// skip-ahead); evict them now rather than waiting for their next
	// wake to notice the closed connection.
	if s.plane != nil {
		s.plane.kickAll()
	}
}

// writeLine writes one protocol line under the write deadline.
func (s *Server) writeLine(conn net.Conn, format string, args ...any) error {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_, err := fmt.Fprintf(conn, format+"\n", args...)
	return err
}

// lineBufs holds the request-line read buffers. A handler needs one
// only until the line is copied out, so a burst of connections shares a
// few buffers instead of allocating one (plus a reader) per connection.
var lineBufs = sync.Pool{New: func() any { return new([maxRequestLine]byte) }}

// maxEmptyReads is how many consecutive zero-byte, error-free reads the
// request-line reader tolerates before giving up with io.ErrNoProgress.
const maxEmptyReads = 100

// readRequestLine reads one newline-terminated request line from r, at
// most maxRequestLine bytes including the newline; bytes after the
// newline are dropped. A line that fills maxRequestLine without a
// newline returns what was read with io.EOF. Bytes that arrive together
// with an error are scanned for the newline before the error counts.
// This is exactly what bufio.Reader.ReadString('\n') over
// io.LimitReader(r, maxRequestLine) returns, without allocating either.
func readRequestLine(r io.Reader) (string, error) {
	buf := lineBufs.Get().(*[maxRequestLine]byte)
	defer lineBufs.Put(buf)
	n, empty := 0, 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		if m > 0 {
			empty = 0
			if i := bytes.IndexByte(buf[n:n+m], '\n'); i >= 0 {
				return string(buf[:n+i+1]), nil
			}
			n += m
		}
		if err != nil {
			return string(buf[:n]), err
		}
		if m == 0 {
			if empty++; empty == maxEmptyReads {
				return string(buf[:n]), io.ErrNoProgress
			}
		}
	}
	return string(buf[:n]), io.EOF
}

// handle serves one connection: read the request line under the read
// deadline and dispatch the command. It reports whether PLAY admitted a
// stream, which then owns the connection and ends it through endStream;
// otherwise the caller ends the connection.
func (s *Server) handle(conn net.Conn) bool {
	conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	line, err := readRequestLine(conn)
	if err != nil {
		var ne net.Error
		switch {
		case errors.As(err, &ne) && ne.Timeout():
			// Read deadline: a slowloris (or silent) client held the line
			// open without completing a request — reap it.
			s.metrics.Reaped.Add(1)
		case errors.Is(err, io.EOF) && len(line) >= maxRequestLine:
			// Size-limit EOF: the "line" never terminated inside
			// maxRequestLine — a byte-bounded slowloris, same reap.
			s.metrics.Reaped.Add(1)
		case len(line) > 0:
			// The client started a request and disconnected before
			// finishing it: an abort, not a reap — the server never timed
			// anything out. (A clean connect-and-close with no bytes sent
			// stays uncounted: no request was ever started.)
			s.metrics.Aborted.Add(1)
		}
		return false
	}
	conn.SetReadDeadline(time.Time{})

	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		s.metrics.BadRequests.Add(1)
		s.writeLine(conn, "ERR empty request")
		return false
	}
	switch strings.ToUpper(fields[0]) {
	case "STAT":
		s.mu.Lock()
		admitted := s.cfg.Admission.Admitted()
		agg := s.cfg.Admission.Aggregate()
		s.mu.Unlock()
		s.writeLine(conn, "OK admitted=%d capacity=%d aggregate=%v", admitted, s.Capacity(), agg)
	case "METRICS":
		s.writeLine(conn, "OK %s", s.metrics.Line(s.Admitted()))
	case "PLAY":
		return s.play(conn, fields)
	default:
		s.metrics.BadRequests.Add(1)
		s.writeLine(conn, "ERR unknown command %q", fields[0])
	}
	return false
}

// banner renders the reply to an admitted PLAY.
func banner(rate units.ByteRate) []byte {
	return []byte(fmt.Sprintf("OK streaming at %v\n", rate))
}

// play admits one stream and starts it. It takes s.mu twice: once here to
// admit the stream, register it with the control plane and look its
// banner up, once in endStream to deregister it and release its slot. It
// reports whether a stream was admitted: the stream then owns conn. On
// the goroutine plane the stream runs, and ends, on this goroutine; on
// the wheel plane play returns as soon as the stream is parked, and the
// path that ends it later calls endStream.
func (s *Server) play(conn net.Conn, fields []string) bool {
	rate := s.cfg.DefaultRate
	if len(fields) > 1 {
		parsed, err := units.ParseRate(fields[1])
		if err != nil || parsed <= 0 {
			s.metrics.BadRequests.Add(1)
			s.writeLine(conn, "ERR bad rate %q", fields[1])
			return false
		}
		rate = parsed
	}
	var st *streamState
	var line []byte
	s.mu.Lock()
	ok, err := s.cfg.Admission.TryAdmit(rate)
	if ok {
		st = &streamState{id: s.nextStreamID.Add(1), rate: rate, start: time.Now(), conn: conn}
		s.streams[st.id] = st
		line = s.banners[rate]
		if line == nil && len(s.banners) < maxBannerRates {
			// At most maxBannerRates renderings in the server's life.
			line = banner(rate)
			s.banners[rate] = line
		}
	}
	s.mu.Unlock()
	if err != nil || !ok {
		s.metrics.AdmissionBusy.Add(1)
		s.writeLine(conn, "BUSY real-time capacity exhausted")
		return false
	}
	s.metrics.AdmittedTotal.Add(1)
	s.metrics.ActiveStreams.Add(1)
	if line == nil {
		line = banner(rate)
	}
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if _, err := conn.Write(line); err != nil {
		// The client vanished before a single paced chunk was written:
		// that is an abort, not an eviction — the server never had to
		// kill anything.
		s.metrics.Aborted.Add(1)
		s.endStream(st)
		return true
	}
	if s.plane != nil {
		s.plane.admit(st)
	} else {
		s.stream(st)
		s.endStream(st)
	}
	return true
}

// writeOutcome classifies one quantum's worth of chunk writes.
type writeOutcome int

const (
	writeOK      writeOutcome = iota // all due bytes written, stream continues
	writeDone                        // byte budget (Config.Limit) reached
	writeEvicted                     // server killed it: write deadline or force-close
	writeAborted                     // client vanished: reset/EPIPE
)

// writeChunks writes n due bytes to the stream's connection as slices
// of the shared immutable payload pattern — the one write path both
// pacing planes share. It is allocation-free and syscall-light:
//
//   - chunks are slices of payloadPattern, never per-stream buffers;
//   - the write deadline is re-armed only when more than half of
//     WriteTimeout has elapsed since the last arm (st.deadlineAt), not
//     per chunk — the caller's coarse now makes the check free. A
//     stalled reader still blocks into a deadline armed at most
//     WriteTimeout/2+quantum ago, so eviction happens within
//     WriteTimeout of the last arm, i.e. WriteTimeout+one quantum of
//     the stall;
//   - n is clamped to the remaining byte budget, so a completed stream
//     delivers exactly Limit bytes in every pacing mode (catch-up
//     bursts cannot overshoot).
//
// Multi-chunk catch-up bursts refresh now per chunk so a legitimately
// slow reader draining a long burst is not evicted for exceeding one
// deadline armed at burst start.
func (s *Server) writeChunks(st *streamState, n int, now time.Time) writeOutcome {
	if s.cfg.Limit > 0 {
		if remain := int(s.cfg.Limit - st.sent); n > remain {
			n = remain
		}
	}
	for n > 0 {
		m := n
		if m > maxWriteChunk {
			m = maxWriteChunk
		}
		if half := s.cfg.WriteTimeout / 2; st.deadlineAt.IsZero() || now.Sub(st.deadlineAt) >= half {
			st.conn.SetWriteDeadline(now.Add(s.cfg.WriteTimeout))
			st.deadlineAt = now
		}
		if _, err := st.conn.Write(payloadPattern[:m]); err != nil {
			var ne net.Error
			if (errors.As(err, &ne) && ne.Timeout()) || errors.Is(err, net.ErrClosed) {
				return writeEvicted
			}
			return writeAborted
		}
		st.out.Add(uint64(m))
		st.bytes.Add(uint64(m))
		st.sent += units.Bytes(m)
		n -= m
		if s.cfg.Limit > 0 && st.sent >= s.cfg.Limit {
			return writeDone
		}
		if n > 0 {
			now = time.Now() // burst path only; single-chunk quanta never pay this
		}
	}
	return writeOK
}

// stream paces synthetic data on the goroutine-per-stream plane: each
// chunk is due at an absolute quantum boundary anchored to the stream's
// start on the monotonic clock (units.Pacer carries fractional bytes,
// so any positive rate eventually reaches the byte budget), and this
// goroutine's private runtime timer sleeps to each boundary. The write
// itself — pattern slicing, deadline amortization, outcome
// classification — is writeChunks, shared with the wheel plane.
//
// Lag is sampled from the post-wake coarse clock against the boundary:
// it reads scheduler wake-up latency directly, and client back-pressure
// with one quantum of delay (a blocked write surfaces in the next
// wake's clock). That is one time.Now per quantum instead of the
// previous several per chunk.
//
// A failed chunk write ends the stream under one of two counters:
// Evicted when the server killed it (the write deadline expired on a
// stalled reader, or drain/StopStream closed the connection out from
// under us — net.ErrClosed), Aborted when the client simply vanished
// (reset/EPIPE). Lumping those together previously made server-initiated
// kills indistinguishable from client churn.
func (s *Server) stream(st *streamState) {
	st.pacer = units.NewPacer(st.rate, s.cfg.Quantum)
	st.out = s.metrics.BytesOut.Handle()
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for {
		n := st.pacer.Next()
		boundary := st.pacer.Deadline(start)
		if d := time.Until(boundary); d > 0 {
			timer.Reset(d)
			<-timer.C
		}
		now := time.Now() // the quantum's coarse clock: lag + deadline checks
		switch s.writeChunks(st, n, now) {
		case writeOK:
			if lag := now.Sub(boundary); lag > 0 {
				s.metrics.ObserveLag(lag.Seconds())
			} else {
				s.metrics.ObserveLag(0)
			}
		case writeDone:
			s.metrics.ObserveLag(now.Sub(boundary).Seconds())
			s.metrics.Completed.Add(1)
			return
		case writeEvicted:
			s.metrics.Evicted.Add(1)
			return
		case writeAborted:
			s.metrics.Aborted.Add(1)
			return
		}
	}
}
