package main

// Every call from the benchmark into the live pacing side of this module —
// serve and the layers beneath it (wheel, units.Pacer, metrics,
// schedule.MixedAdmission) — is in this file. The server is built through
// serve.New / Serve / ControlHandler, and a pacing plane is chosen by name
// through serve.ParsePacing, the entry points memserve itself uses.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"memstream/internal/disk"
	"memstream/internal/metrics"
	"memstream/internal/model"
	"memstream/internal/schedule"
	"memstream/internal/serve"
	"memstream/internal/units"
	"memstream/internal/wheel"
)

// serveSpec describes the serve-steady workload: a fixed population of
// standing streams that arrives as one burst.
type serveSpec struct {
	Streams int           // P: connections per burst, three quarters slow
	Rounds  int           // phase A bursts
	Window  time.Duration // phase B measurement window
	Windows int           // least number of windows
	Warmup  time.Duration // phase B settle time before the first window
}

const (
	serveQuantum = 20 * time.Millisecond
	slowRate     = 10 * units.KBPS
	fastRate     = 100 * units.KBPS
)

// liveServer is one in-process serve.Server on an in-memory listener.
type liveServer struct {
	srv    *serve.Server
	ln     *memListener
	cancel context.CancelFunc
	served chan error
	nextID int
}

// startServer builds a server on the named pacing plane ("" is the
// zero-value Config.Pacing, the plane memserve defaults to) and starts its
// accept loop.
func startServer(spec serveSpec, pacing string) (*liveServer, error) {
	mode, err := serve.ParsePacing(pacing)
	if err != nil {
		return nil, err
	}
	p := disk.FutureDisk()
	srv, err := serve.New(serve.Config{
		Admission: &schedule.MixedAdmission{
			Disk:    model.DeviceSpec{Rate: p.OuterRate, Latency: p.AvgAccess()},
			DRAMCap: 64 * units.GB, // as in the repo's pacing harness
		},
		DefaultRate: fastRate,
		Quantum:     serveQuantum,
		MaxConns:    2 * spec.Streams,
		// Every stream is unlimited, so none finishes on its own: the
		// harness hangs up first and the drain has nothing to wait for.
		DrainTimeout: time.Second,
		Pacing:       mode,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{srv: srv, ln: newMemListener(spec.Streams), cancel: cancel, served: make(chan error, 1)}
	go func() { ls.served <- srv.Serve(ctx, ls.ln) }()
	return ls, nil
}

// stop cancels Serve, waits for it to return and releases the plane. The
// caller has hung up every connection first.
func (ls *liveServer) stop() error {
	ls.cancel()
	err := <-ls.served
	ls.srv.Close()
	return err
}

// burst is one arrival of P connections and what became of them.
type burst struct {
	conns []*memConn
	sync  *roundSync
	start time.Time // first connection enqueued
}

// arrive enqueues P connections at once, in a rate order drawn from rng,
// and returns when every one has its banner (or was refused).
func (ls *liveServer) arrive(spec serveSpec, rng *rand.Rand) *burst {
	b := &burst{conns: make([]*memConn, spec.Streams), sync: &roundSync{}}
	b.sync.answered.Add(spec.Streams)
	b.sync.closed.Add(spec.Streams)
	for i, rate := range burstRates(spec.Streams, rng) {
		b.conns[i] = &memConn{
			id:      ls.nextID,
			request: []byte(fmt.Sprintf("PLAY %d\n", int64(rate))),
			quantum: serveQuantum,
			perTick: float64(units.BytesIn(rate, serveQuantum)),
			round:   b.sync,
		}
		ls.nextID++
	}
	for _, c := range b.conns {
		ls.ln.enqueue(c)
	}
	b.start = b.conns[0].enqueued
	b.sync.answered.Wait()
	return b
}

// burstRates draws the order in which a burst's connections ask for their
// rates: three quarters slow, one quarter fast, shuffled by rng.
func burstRates(n int, rng *rand.Rand) []units.ByteRate {
	rates := make([]units.ByteRate, n)
	for i, pos := range rng.Perm(n) {
		rates[i] = fastRate
		if pos < n*3/4 {
			rates[i] = slowRate
		}
	}
	return rates
}

// lastBanner is when the burst's last connection was answered.
func (b *burst) lastBanner() time.Time {
	var last time.Time
	for _, c := range b.conns {
		if c.banner.After(last) {
			last = c.banner
		}
	}
	return last
}

// leave hangs up every connection and waits until the server has closed
// them all. It returns when the hang-up began.
func (b *burst) leave() time.Time {
	at := time.Now()
	for _, c := range b.conns {
		c.hangUp()
	}
	b.sync.closed.Wait()
	return at
}

// rate is the stream rate a connection asked for, in bytes per second.
func (c *memConn) rate() float64 { return c.perTick / c.quantum.Seconds() }

// strays counts the burst's connections that were refused, and those the
// server closed before the harness hung up.
func (b *burst) strays(hungUpAt time.Time) (refused, endedEarly int) {
	for _, c := range b.conns {
		switch {
		case c.refused:
			refused++
		case c.closedAt.Before(hungUpAt):
			endedEarly++
		}
	}
	return refused, endedEarly
}

// streamMark is one connection's byte count and when it was read.
type streamMark struct {
	bytes int64
	at    time.Time
}

// mark reads every connection's byte count, each with its own clock
// reading.
func (b *burst) mark() []streamMark {
	marks := make([]streamMark, len(b.conns))
	for i, c := range b.conns {
		marks[i] = streamMark{c.bytes.Load(), time.Now()}
	}
	return marks
}

// offSchedule counts connections whose bytes since their mark stay further
// from rate × elapsed than 2.5 quanta's worth: one quantum because bytes
// arrive a quantum's worth at a time, one and a half for a late wake-up at
// either end. Pacing runs against absolute boundaries, so a stream caught
// behind now is back on schedule a few quanta later; one that lost or
// gained bytes is not, and only that is a failure.
func (b *burst) offSchedule(marks []streamMark) int {
	suspects := make([]int, len(b.conns))
	for i := range suspects {
		suspects[i] = i
	}
	for try := 0; try < 5 && len(suspects) > 0; try++ {
		if try > 0 {
			time.Sleep(serveQuantum * 5 / 3) // out of step with the boundaries
		}
		var still []int
		for _, i := range suspects {
			c, m := b.conns[i], marks[i]
			want := c.rate() * time.Since(m.at).Seconds()
			if d := float64(c.bytes.Load()-m.bytes) - want; d > 2.5*c.perTick || d < -2.5*c.perTick {
				still = append(still, i)
			}
		}
		suspects = still
	}
	return len(suspects)
}

// progress is the burst's delivered work so far: stream-seconds of
// payload, paced chunks (quantum boundaries covered), and how many of those
// were written over half a quantum late.
func (b *burst) progress() (streamSeconds float64, chunks, late int64) {
	for _, c := range b.conns {
		streamSeconds += float64(c.bytes.Load()) / c.rate()
		chunks += c.quanta.Load()
		late += c.late.Load()
	}
	return streamSeconds, chunks, late
}

// outcomes is the server's own conservation ledger.
type outcomes struct {
	Admitted, Completed, Evicted, Aborted uint64
	Standing                              int
}

func (ls *liveServer) outcomes() outcomes {
	m := ls.srv.Metrics()
	return outcomes{
		Admitted:  m.AdmittedTotal.Load(),
		Completed: m.Completed.Load(),
		Evicted:   m.Evicted.Load(),
		Aborted:   m.Aborted.Load(),
		Standing:  ls.srv.Admitted(),
	}
}

// lagMS is a quantile of the server's own pacing-lag histogram.
func (ls *liveServer) lagMS(q float64) float64 {
	v, _ := ls.srv.Metrics().LagQuantile(q)
	return v * 1e3
}

// httpMetricsMS times GET /metrics on the control handler, in-process.
func (ls *liveServer) httpMetricsMS() (float64, error) {
	h := ls.srv.ControlHandler()
	var ms []float64
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("GET /metrics: status %d", rec.Code)
		}
	}
	return median(ms), nil
}

// serveProbes times the layers under serve, one operation each.
func serveProbes(p probes, spec serveSpec, minDur time.Duration) {
	pacer := units.NewPacer(slowRate, serveQuantum)
	sink := 0
	p["units.pacer_next_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			sink += pacer.NextBatch(1)
		}
	})

	// A population of timers that all fire every tick: one operation is
	// one timer's share of Advance plus its re-Arm.
	w := wheel.New()
	timers := make([]wheel.Timer, 1024)
	for i := range timers {
		w.Arm(&timers[i], 1)
	}
	var due []*wheel.Timer
	tick := w.Current()
	p["wheel.arm_advance_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; {
			tick++
			due = w.Advance(tick, due[:0])
			for _, t := range due {
				w.Arm(t, tick+1)
			}
			i += max(len(due), 1)
		}
	})

	var hist metrics.Histogram
	p["metrics.observe_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(float64(i&1023) * 1e-5)
		}
	})
	var ctr metrics.Counter
	handle := ctr.Handle()
	p["metrics.counter_add_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			handle.Add(1)
		}
	})
	p["metrics.snapshot_us"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			s := hist.Snapshot()
			sink += int(s.N)
		}
	}) / 1e3

	// Admission at half the burst's population, the mean a burst sees.
	d := disk.FutureDisk()
	adm := &schedule.MixedAdmission{
		Disk:    model.DeviceSpec{Rate: d.OuterRate, Latency: d.AvgAccess()},
		DRAMCap: 64 * units.GB,
	}
	for i := 0; i < spec.Streams/2; i++ {
		adm.TryAdmit(slowRate)
	}
	p["schedule.admit_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			if ok, _ := adm.TryAdmit(fastRate); ok {
				adm.Release(fastRate)
			}
		}
	})
	runtime.KeepAlive(sink)
}
