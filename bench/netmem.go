package main

import (
	"bytes"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// memListener is the in-memory net.Listener the serve workload feeds. The
// harness enqueues passive connections; Serve's accept loop takes them. No
// client goroutine exists: a connection is an object the server's own
// goroutines read from and write to.
type memListener struct {
	queue  chan *memConn
	closed chan struct{}
	once   sync.Once
}

// newMemListener returns a listener whose queue holds a whole burst, so
// enqueueing never waits for the accept loop.
func newMemListener(burst int) *memListener {
	return &memListener{queue: make(chan *memConn, burst), closed: make(chan struct{})}
}

// enqueue hands one connection to the server. The connection's clock
// starts here, not at Accept: time spent queued behind the accept loop is
// part of what a client waits for.
func (l *memListener) enqueue(c *memConn) {
	c.enqueued = time.Now()
	l.queue <- c
}

func (l *memListener) Accept() (net.Conn, error) {
	// Closed wins over queued, as a closed socket's backlog is dropped.
	select {
	case <-l.closed:
		return nil, net.ErrClosed
	default:
	}
	select {
	case c := <-l.queue:
		c.accepted = time.Now()
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "bench" }

// roundSync is how the harness waits for a burst without polling: every
// connection of the burst releases answered once, on its banner (or on a
// Close that came first), and closed once, when the server closes its end.
type roundSync struct {
	answered, closed sync.WaitGroup
}

// memConn is one passive client. Read yields the request line once; Write
// discards the payload, counts it and timestamps it against the pacing
// schedule it implies. Each connection has one writer at a time (its
// handler goroutine, or one wheel worker), so the counters are atomics
// only because the harness reads them while the stream runs.
type memConn struct {
	id      int
	request []byte
	quantum time.Duration
	perTick float64 // payload bytes due per quantum

	round *roundSync

	// Written by the server's goroutines; the harness reads accepted,
	// banner and refused after round.answered, closedAt after round.closed.
	enqueued, accepted, banner, closedAt time.Time
	refused                              bool
	// first is the time from the banner to the first payload chunk, in
	// nanoseconds; 0 until that chunk. The stream's pacing schedule is
	// anchored one quantum before it: the server starts its clock some time
	// after the banner, later the busier the burst, and a schedule anchored
	// at the banner would count that one delay against every later chunk.
	first atomic.Int64

	read     atomic.Bool
	answered atomic.Bool // banner or refusal seen
	hungUp   atomic.Bool // the harness, as client, went away
	closed   atomic.Bool // the server closed its end

	bytes  atomic.Int64
	quanta atomic.Int64 // quantum boundaries the payload so far covers
	late   atomic.Int64 // of those, written over half a quantum late
}

// Read yields the request line, then end of stream.
func (c *memConn) Read(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	if c.read.Swap(true) {
		return 0, io.EOF
	}
	return copy(p, c.request), nil
}

// Write accepts the banner, then paced payload. After the server's own
// Close it reports net.ErrClosed; after the client hung up it reports
// io.ErrClosedPipe, which the server counts as a client abort.
func (c *memConn) Write(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	if c.hungUp.Load() {
		return 0, io.ErrClosedPipe
	}
	now := time.Now()
	if c.answered.CompareAndSwap(false, true) {
		c.banner = now
		c.refused = !bytes.HasPrefix(p, []byte("OK"))
		c.round.answered.Done()
		return len(p), nil
	}
	if c.first.Load() == 0 {
		c.first.Store(int64(now.Sub(c.banner)))
	}
	// The payload so far covers boundaries 1..k of the stream's schedule;
	// boundary j is late if written after j×quantum plus half a quantum. A
	// catch-up write covers several boundaries at once.
	// The pacer floors the bytes due at a boundary, and its float product
	// can land a hair under a whole number, so a stream on schedule may be
	// one byte short of j×perTick at boundary j.
	total := c.bytes.Add(int64(len(p)))
	prev := c.quanta.Load()
	if k := int64(float64(total+1) / c.perTick); k > prev {
		c.quanta.Store(k)
		if lateUpTo := int64((c.sinceAnchor(now) - c.quantum/2) / c.quantum); lateUpTo > prev {
			c.late.Add(min(lateUpTo, k) - prev)
		}
	}
	return len(p), nil
}

// sinceAnchor is how far now lies into the stream's pacing schedule, whose
// first boundary is the first payload chunk.
func (c *memConn) sinceAnchor(now time.Time) time.Duration {
	return now.Sub(c.banner) - time.Duration(c.first.Load()) + c.quantum
}

// Close is the server's end closing. It releases the round if the server
// gave up before answering.
func (c *memConn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.closedAt = time.Now()
	if c.answered.CompareAndSwap(false, true) {
		c.refused = true
		c.round.answered.Done()
	}
	c.round.closed.Done()
	return nil
}

// hangUp is the client going away: the server's next write fails.
func (c *memConn) hangUp() { c.hungUp.Store(true) }

func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }
