package serve

import (
	"sync/atomic"

	"memstream/internal/metrics"
)

// Metrics is the supervisor's observability surface: monotonic counters
// for every connection outcome plus a pacing-lag histogram. Everything on
// the streaming path is lock-free: the low-rate outcome counters are
// plain atomics, and the two per-wake metrics — BytesOut and the lag
// histogram — are sharded (metrics.Counter, metrics.Histogram). Every
// goroutine that writes streams pins one shard of each (pins): a wheel
// worker for its lifetime, a goroutine-plane stream for its own. A
// stream-wake then touches only cache lines its own goroutine owns. The
// read side, the control plane's GET /metrics, folds the shards.
//
// Connection outcomes are disjoint by design:
//
//   - Reaped: the server timed out a request line (read deadline) or cut
//     an unterminated line at maxRequestLine — hostile-idle clients.
//   - Aborted: the client vanished of its own accord — disconnected
//     mid-request-line, before the streaming banner, or mid-stream.
//   - Evicted: the server killed an admitted stream — a stalled reader
//     hit the write deadline, or drain/control-plane force-closed it.
//
// Earlier versions cross-counted these (a partial-line disconnect counted
// as a reap; a failed banner write counted as an eviction), which made
// the counters useless for telling hostile clients from flaky ones.
type Metrics struct {
	Accepted      atomic.Uint64   // connections admitted past the conn semaphore
	Sheds         atomic.Uint64   // connections shed BUSY at the max-conns cap
	Reaped        atomic.Uint64   // request lines reaped: read-deadline timeout or maxRequestLine overflow
	Aborted       atomic.Uint64   // clients that disconnected on their own (mid-line, pre-banner, or mid-stream)
	BadRequests   atomic.Uint64   // malformed or unknown commands
	AdmittedTotal atomic.Uint64   // PLAY requests admitted by Theorem 1
	AdmissionBusy atomic.Uint64   // PLAY requests refused by Theorem 1
	Completed     atomic.Uint64   // streams that delivered their full byte budget
	Evicted       atomic.Uint64   // streams the server killed: write deadline or drain/stop force-close
	BytesOut      metrics.Counter // stream payload bytes written (sharded; one handle per writing goroutine)

	// Wheel-plane instrumentation (all zero in goroutine mode):
	// WheelTicks counts wheel advances (quanta the tick loop settled,
	// including catch-up after an overrun), WheelFires counts due
	// streams drained — fires/ticks is the batch factor, and fires per
	// second is the wakeup rate one ticker replaces.
	WheelTicks atomic.Uint64
	WheelFires atomic.Uint64

	ActiveStreams atomic.Int64  // gauge: streams currently holding a slot
	WheelStreams  metrics.Gauge // gauge: streams parked on (or being served by) the wheel

	Lag metrics.Histogram // pacing lag per quantum that wrote bytes, seconds
}

func newMetrics() *Metrics { return &Metrics{} }

// pins is one writing goroutine's pinned shards of the two per-wake
// metrics, taken once when the goroutine starts writing.
type pins struct {
	out metrics.Handle          // BytesOut
	lag metrics.HistogramHandle // Lag
}

func (m *Metrics) pin() pins { return pins{out: m.BytesOut.Handle(), lag: m.Lag.Handle()} }

// LagQuantile returns the q-quantile of the pacing-lag histogram in
// seconds; ok is false when no lag has been observed yet.
func (m *Metrics) LagQuantile(q float64) (float64, bool) { return m.Lag.Quantile(q) }

// lagSamples reports how many lag observations were made.
func (m *Metrics) lagSamples() uint64 { return m.Lag.N() }

// Counters renders every outcome counter under its wire name: the
// counters object of the /metrics document, and the one place the names
// are spelled.
func (m *Metrics) Counters() map[string]uint64 {
	return map[string]uint64{
		"accepted":       m.Accepted.Load(),
		"sheds":          m.Sheds.Load(),
		"reaped":         m.Reaped.Load(),
		"aborted":        m.Aborted.Load(),
		"bad_requests":   m.BadRequests.Load(),
		"admitted_total": m.AdmittedTotal.Load(),
		"admission_busy": m.AdmissionBusy.Load(),
		"completed":      m.Completed.Load(),
		"evicted":        m.Evicted.Load(),
		"bytes_out":      m.BytesOut.Total(),
		"wheel_ticks":    m.WheelTicks.Load(),
		"wheel_fires":    m.WheelFires.Load(),
	}
}
