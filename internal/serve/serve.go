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
// The stream port speaks one command, "PLAY <rate>"; everything else is
// answered "ERR unknown command" and counted as a bad request. What the
// supervisor observes (admission, counters, the pacing-lag histogram,
// live streams) is served by the JSON control plane (ControlHandler).
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
	"unicode"

	"memstream/internal/metrics"
	"memstream/internal/model"
	"memstream/internal/schedule"
	"memstream/internal/units"
	"memstream/internal/wheel"
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
	// PacingWheel, the default, parks all streams on one hashed timer
	// wheel, a ring of 256 one-tick slots guarded by the plane's one arm
	// mutex; a single ticker goroutine batches the due population each
	// quantum to a small writer-worker pool (Config.Writers).
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

	// plane is the timer-wheel data plane; nil in goroutine mode.
	plane *wheelPlane

	// connWG counts accepted connections that have not ended (endConn).
	// A wheel stream's connection ends in a writer worker, long after its
	// handler returned, so the count belongs to the Server, not to Serve.
	connWG sync.WaitGroup

	mu sync.Mutex // guards adm (MixedAdmission is not goroutine-safe), the registry, nextID, forced and banners
	// reg is the sentinel of the connection registry: a ring through the
	// prev/next links of every tracked connection's record, nconns of
	// them. Linking and unlinking are O(1) and need no hashing, growth or
	// allocation; the control plane's per-stream walks (GET /metrics,
	// POST /streams/{id}/stop) and the drain's force-close walk the ring.
	reg    streamState
	nconns int
	nextID uint64 // the last stream id handed out; ids start at 1
	// forced is set by closeAll and, like the wheel's draining, never
	// cleared. Handlers track their own connections, so one may track
	// after the force-close sweep; track closes it at once.
	forced bool
	// banners holds the PLAY reply line of up to maxBannerRates distinct
	// rates. Rendering one goes through ByteRate.String's %.2f, which
	// strconv serves from an ~800-byte stack frame: done per stream it
	// grew every handler goroutine's stack (~4.5 KB of RSS per stream).
	banners map[units.ByteRate][]byte
}

// streamState is one accepted connection's only record, allocated once
// by its handler goroutine: the connection's registry entry and, once
// PLAY admits a stream on it, the stream's control-plane identity (id
// for POST /streams/{id}/stop, the per-stream byte gauge /metrics
// reports) and write-path state, the wheel entry included, so that
// admitting a stream allocates nothing more.
//
// The registry fields (prev, next, id, closed) are guarded by Server.mu;
// rate and start are written before id is set under it, so a reader
// that holds it and sees a non-zero id sees both. The write-path fields
// (pacer, rearmAt, timer, tick) are owned by whichever goroutine is
// currently pacing the stream — its own goroutine in PacingGoroutine,
// exactly one wheel worker at a time in PacingWheel — and are shared by
// both planes through writeChunks. bytes, which that goroutine also
// holds against the byte budget, is the one field read by other
// goroutines without the lock (the control plane), hence atomic.
type streamState struct {
	prev, next *streamState
	id         uint64 // 0 while the connection is not (yet) a stream
	// closed marks a connection that a force-close (closeAll, StopStream)
	// has closed, so that its own end does not close it again.
	closed bool

	conn  net.Conn
	rate  units.ByteRate
	start time.Duration // admission, on the monotonic clock since Server.started
	bytes atomic.Uint64 // payload bytes written

	pacer units.Pacer
	// rearmAt is the monotonic reading, relative to the plane's anchor,
	// at which the conn's write deadline is next re-armed: half of
	// WriteTimeout after it was last armed, zero until the first write
	// arms it. It replaces a SetWriteDeadline syscall per chunk with one
	// per ~WriteTimeout/2. The anchor is fixed for the stream's life: the
	// goroutine plane's is the stream's own start, and the wheel's moves
	// only while the wheel is empty, when no wheel stream is alive.
	rearmAt time.Duration

	// The wheel entry: the intrusive timer and the tick cursor (how many
	// quanta the pacer has settled). Unused on the goroutine plane.
	timer wheel.Timer
	tick  int64
}

// forceClose closes the entry's connection unless a force-close already
// has. s.mu must be held.
func (st *streamState) forceClose() {
	if !st.closed {
		st.closed = true
		st.conn.Close()
	}
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
		banners: make(map[units.ByteRate][]byte),
	}
	s.reg.prev, s.reg.next = &s.reg, &s.reg
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

// Capacity is the homogeneous-rate yardstick GET /status reports:
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

// StopStream force-closes the live stream with the given id — the
// control plane's POST /streams/{id}/stop. The stream's write path
// errors out with net.ErrClosed and the stream ends, releasing its
// admission slot and counting under Evicted (a server-initiated kill,
// exactly like a drain force-close). It reports whether the id named a
// live stream. It walks the registry under s.mu, as GET /metrics does.
func (s *Server) StopStream(id uint64) bool {
	if id == 0 {
		return false // the id of a connection that is not a stream
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for st := s.reg.next; st != &s.reg; st = st.next {
		if st.id == id {
			st.forceClose()
			return true
		}
	}
	return false
}

// shed refuses one connection with a fast BUSY line. The short deadline
// bounds the goroutine even against a client with a zero receive window.
func shed(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	fmt.Fprintln(conn, "BUSY connection capacity exhausted")
	conn.Close()
}

// accept takes one connection off the listener: at the connection cap it
// is shed with BUSY, otherwise it holds a semaphore slot and a connWG
// count and gets a handler goroutine, which allocates the connection's
// one record and tracks it. accept takes no lock, so the accept loop
// never waits on handlers holding s.mu. Every connection accept admits
// ends exactly once: in endConn from the handler, or, if PLAY handed it
// to a stream, in endStreams from whichever path ends the stream.
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
	s.connWG.Add(1)
	go func() {
		st := &streamState{conn: conn}
		if !s.track(st) || !s.handle(st) {
			s.endConn(st)
		}
	}()
}

// endStreams ends admitted streams on either plane — one from the
// goroutine plane or a failed banner, a wheel worker's span, or the drain
// sweep's whole wheel — in two steps whose order is the contract: first,
// in one s.mu round, each stream leaves the registry and returns its
// admission slot, and ActiveStreams drops; then the connections close. A
// client that sees its close may at once ask for Admitted() and must
// read the slot as free. It must not be called with s.mu held.
func (s *Server) endStreams(sts ...*streamState) {
	if len(sts) == 0 {
		return
	}
	s.mu.Lock()
	for _, st := range sts {
		s.unlink(st)
		s.cfg.Admission.Release(st.rate)
	}
	s.mu.Unlock()
	s.metrics.ActiveStreams.Add(-int64(len(sts)))
	for _, st := range sts {
		s.closeConn(st)
	}
	s.connWG.Add(-len(sts))
}

// endConn ends one accepted connection that never became a stream: take
// it out of the registry, close it, and give back its semaphore slot and
// its count in connWG.
func (s *Server) endConn(st *streamState) {
	s.mu.Lock()
	s.unlink(st)
	s.mu.Unlock()
	s.closeConn(st)
	s.connWG.Done()
}

// closeConn closes one unlinked entry's connection, unless a force-close
// already did, and gives back its semaphore slot. closed needs no lock
// here: it is only written under s.mu to linked entries, and the caller
// unlinked st in its own s.mu round. Ending a connection accept never
// took is a bug; it panics rather than block its caller on an empty
// semaphore.
func (s *Server) closeConn(st *streamState) {
	if !st.closed {
		st.conn.Close()
	}
	select {
	case <-s.sem:
	default:
		panic("serve: ending a connection accept never took")
	}
}

// link adds st to the registry. s.mu must be held.
func (s *Server) link(st *streamState) {
	st.prev, st.next = s.reg.prev, &s.reg
	s.reg.prev.next = st
	s.reg.prev = st
	s.nconns++
}

// unlink takes st out of the registry. s.mu must be held.
func (s *Server) unlink(st *streamState) {
	st.prev.next = st.next
	st.next.prev = st.prev
	st.prev, st.next = nil, nil
	s.nconns--
}

// track links a new connection's record into the registry. After
// closeAll it closes the connection at once and reports false: the
// drain's force-close must reach every connection, and a handler may
// track its own after the sweep.
func (s *Server) track(st *streamState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.link(st)
	if s.forced {
		st.forceClose()
	}
	return !st.closed
}

func (s *Server) activeConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nconns
}

// closeAll is the drain deadline's force-close: it closes every tracked
// connection, and every connection tracked after it, once.
func (s *Server) closeAll() {
	s.mu.Lock()
	s.forced = true
	for st := s.reg.next; st != &s.reg; st = st.next {
		st.forceClose()
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
// stream, which then owns the connection and ends it through endStreams;
// otherwise the caller ends the connection.
func (s *Server) handle(st *streamState) bool {
	conn := st.conn
	conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	line, err := readRequestLine(conn)
	if err != nil {
		switch {
		case timedOut(err):
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

	cmd, rest := nextField(line)
	if cmd == "" {
		s.metrics.BadRequests.Add(1)
		s.writeLine(conn, "ERR empty request")
		return false
	}
	if !strings.EqualFold(cmd, "PLAY") {
		s.metrics.BadRequests.Add(1)
		s.writeLine(conn, "ERR unknown command %q", cmd)
		return false
	}
	arg, _ := nextField(rest)
	return s.play(st, arg)
}

// nextField returns the first field of s, as strings.Fields splits it
// (on unicode.IsSpace), and the rest of s after that field; an empty
// field means s held none. The request line needs only its first two
// fields, and this takes them without building a slice.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// banner renders the reply to an admitted PLAY.
func banner(rate units.ByteRate) []byte {
	return []byte(fmt.Sprintf("OK streaming at %v\n", rate))
}

// play admits a stream at the rate arg names (the default rate when arg
// is empty) on a tracked connection and starts it. It takes s.mu once
// here to admit the stream, give its registry entry an id and look its
// banner up, and allocates nothing once the banner is cached; the
// stream's release (endStreams) takes s.mu once more, shared on the
// wheel plane with every stream its span ended. It reports whether a
// stream was admitted: the stream then owns the connection. On the
// goroutine plane the stream runs, and ends, on this goroutine; on the
// wheel plane play returns as soon as the stream is parked, and the path
// that ends it later releases it.
func (s *Server) play(st *streamState, arg string) bool {
	conn := st.conn
	rate := s.cfg.DefaultRate
	if arg != "" {
		parsed, err := units.ParseRate(arg)
		if err != nil || parsed <= 0 {
			s.metrics.BadRequests.Add(1)
			s.writeLine(conn, "ERR bad rate %q", arg)
			return false
		}
		rate = parsed
	}
	// Written before the id, which makes the entry a stream to readers
	// under s.mu (streamStats).
	st.rate, st.start = rate, time.Since(s.started)
	var line []byte
	s.mu.Lock()
	ok, err := s.cfg.Admission.TryAdmit(rate)
	if ok {
		s.nextID++
		st.id = s.nextID
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
	conn.SetWriteDeadline(s.started.Add(st.start + s.cfg.WriteTimeout))
	if _, err := conn.Write(line); err != nil {
		// The client vanished before a single paced chunk was written:
		// that is an abort, not an eviction — the server never had to
		// kill anything.
		s.metrics.Aborted.Add(1)
		s.endStreams(st)
		return true
	}
	if s.plane != nil {
		s.plane.admit(st)
	} else {
		s.stream(st)
		s.endStreams(st)
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
// pacing planes share. elapsed is the caller's one monotonic clock
// reading since anchor, and out is the writing goroutine's pinned
// BytesOut shard. It is allocation-free and syscall-light:
//
//   - chunks are slices of payloadPattern, never per-stream buffers;
//   - the write deadline is re-armed only when more than half of
//     WriteTimeout has elapsed since the last arm (st.rearmAt), not
//     per chunk — a Duration compare on the caller's reading, with a
//     wall-clock time built only when a deadline is armed. A stalled
//     reader still blocks into a deadline armed at most
//     WriteTimeout/2+quantum ago, so eviction happens within
//     WriteTimeout of the last arm, i.e. WriteTimeout+one quantum of
//     the stall;
//   - n is clamped to the remaining byte budget, so a completed stream
//     delivers exactly Limit bytes in every pacing mode (catch-up
//     bursts cannot overshoot).
//
// Multi-chunk catch-up bursts re-read the clock per chunk so a
// legitimately slow reader draining a long burst is not evicted for
// exceeding one deadline armed at burst start.
func (s *Server) writeChunks(st *streamState, n int, anchor time.Time, elapsed time.Duration, out metrics.Handle) writeOutcome {
	if s.cfg.Limit > 0 {
		if remain := int(s.cfg.Limit) - int(st.bytes.Load()); n > remain {
			n = remain
		}
	}
	for n > 0 {
		m := n
		if m > maxWriteChunk {
			m = maxWriteChunk
		}
		if elapsed >= st.rearmAt {
			st.conn.SetWriteDeadline(anchor.Add(elapsed + s.cfg.WriteTimeout))
			st.rearmAt = elapsed + s.cfg.WriteTimeout/2
		}
		if _, err := st.conn.Write(payloadPattern[:m]); err != nil {
			if timedOut(err) || errors.Is(err, net.ErrClosed) {
				return writeEvicted
			}
			return writeAborted
		}
		out.Add(uint64(m))
		sent := st.bytes.Add(uint64(m))
		n -= m
		if s.cfg.Limit > 0 && units.Bytes(sent) >= s.cfg.Limit {
			return writeDone
		}
		if n > 0 {
			elapsed = time.Since(anchor) // burst path only; single-chunk quanta never pay this
		}
	}
	return writeOK
}

// timedOut reports whether err, or the first net.Error its Unwrap chain
// holds, is a timeout: what errors.As(err, &ne) && ne.Timeout() reports
// for the errors a net.Conn returns. errors.As takes its target's
// address, which escapes, so it cost one heap allocation per failed read
// or write; a type assertion per link costs none.
func timedOut(err error) bool {
	for ; err != nil; err = errors.Unwrap(err) {
		if ne, ok := err.(net.Error); ok {
			return ne.Timeout()
		}
	}
	return false
}

// wake serves one stream-wake on either plane: read the clock once,
// write the n bytes due at the quantum boundary due (both relative to
// anchor), sample the lag if the wake wrote bytes, and count the outcome
// if it ended the stream. Both planes sample the same quanta — those
// that wrote bytes — so lag_samples means one thing on both. The lag is
// the reading minus the boundary, both on the monotonic clock, so it
// equals now.Sub(boundary) on time.Now instants exactly; a negative one
// lands in the underflow bucket and adds nothing to the sum, as a zero
// would. The pinned shards keep every metric write of the wake on
// the calling goroutine's own cache lines.
func (s *Server) wake(st *streamState, n int, anchor time.Time, due time.Duration, pin pins) writeOutcome {
	elapsed := time.Since(anchor)
	out := s.writeChunks(st, n, anchor, elapsed, pin.out)
	switch out {
	case writeOK, writeDone:
		if n > 0 {
			pin.lag.Observe((elapsed - due).Seconds())
		}
		if out == writeDone {
			s.metrics.Completed.Add(1)
		}
	case writeEvicted:
		s.metrics.Evicted.Add(1)
	case writeAborted:
		s.metrics.Aborted.Add(1)
	}
	return out
}

// stream paces synthetic data on the goroutine-per-stream plane: each
// chunk is due at an absolute quantum boundary anchored to the stream's
// start on the monotonic clock (units.Pacer carries fractional bytes,
// so any positive rate eventually reaches the byte budget), and this
// goroutine's private runtime timer sleeps to each boundary. The wake
// itself — clock read, write, lag sample, outcome — is wake, shared
// with the wheel plane, and the stream pins its own metric shards.
//
// Lag is sampled from the post-wake clock against the boundary: it
// reads scheduler wake-up latency directly, and client back-pressure
// with one quantum of delay (a blocked write surfaces in the next
// wake's clock). Both reads per quantum — the sleep's and the wake's —
// are monotonic-only time.Since calls.
//
// A failed chunk write ends the stream under one of two counters:
// Evicted when the server killed it (the write deadline expired on a
// stalled reader, or drain/StopStream closed the connection out from
// under us — net.ErrClosed), Aborted when the client simply vanished
// (reset/EPIPE). Lumping those together previously made server-initiated
// kills indistinguishable from client churn.
func (s *Server) stream(st *streamState) {
	st.pacer = *units.NewPacer(st.rate, s.cfg.Quantum)
	pin := s.metrics.pin()
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for {
		n := st.pacer.Next()
		due := time.Duration(st.pacer.Ticks()) * s.cfg.Quantum
		if d := due - time.Since(start); d > 0 {
			timer.Reset(d)
			<-timer.C
		}
		if s.wake(st, n, start, due, pin) != writeOK {
			return
		}
	}
}
