package serve

// The data-plane measurement rig: allocation gates and micro-benchmarks
// for the shared write path and the wheel step, plus the env-gated
// population-scaling harness that records how far each pacing plane
// scales before the lag-p99 budget is blown (scripts/bench.sh runs it to
// produce the pacing section of BENCH_3.json).

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memstream/internal/disk"
	"memstream/internal/metrics"
	"memstream/internal/model"
	"memstream/internal/schedule"
	"memstream/internal/units"
	"memstream/internal/wheel"
)

// nullConn is a net.Conn that discards writes at memory speed — the
// stand-in client for write-path benchmarks and the scaling harness,
// where the interesting cost is pacing machinery, not socket I/O. Close
// makes subsequent writes fail with net.ErrClosed, which the write path
// classifies as an eviction: the harness's teardown switch.
type nullConn struct{ closed atomic.Bool }

func (c *nullConn) Write(b []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	return len(b), nil
}
func (c *nullConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c *nullConn) Close() error                     { c.closed.Store(true); return nil }
func (c *nullConn) LocalAddr() net.Addr              { return nullAddr{} }
func (c *nullConn) RemoteAddr() net.Addr             { return nullAddr{} }
func (c *nullConn) SetDeadline(time.Time) error      { return nil }
func (c *nullConn) SetReadDeadline(time.Time) error  { return nil }
func (c *nullConn) SetWriteDeadline(time.Time) error { return nil }

type nullAddr struct{}

func (nullAddr) Network() string { return "null" }
func (nullAddr) String() string  { return "null" }

// benchConfig is testConfig without the *testing.T coupling, sized for
// unlimited steady-state streaming.
func benchConfig(mode PacingMode) Config {
	p := disk.FutureDisk()
	return Config{
		Admission: &schedule.MixedAdmission{
			Disk:    model.DeviceSpec{Rate: p.OuterRate, Latency: p.AvgAccess()},
			DRAMCap: 64 * units.GB,
		},
		DefaultRate:  100 * units.KBPS,
		Limit:        0,
		WriteTimeout: 5 * time.Second,
		Quantum:      10 * time.Millisecond,
		Pacing:       mode,
	}
}

func newBenchServer(tb testing.TB, mode PacingMode) *Server {
	tb.Helper()
	s, err := New(benchConfig(mode))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}

// benchStream builds a streamState wired to a nullConn, ready for
// direct writeChunks/step calls.
func benchStream(s *Server, id uint64, rate units.ByteRate) *streamState {
	st := &streamState{id: id, rate: rate, start: time.Now(), conn: &nullConn{}}
	st.pacer = units.NewPacer(rate, s.cfg.Quantum)
	st.out = s.metrics.BytesOut.Handle()
	return st
}

// The steady-state write path must not allocate: chunks are slices of
// the shared payload pattern and every metric touch is a pinned-shard or
// bucket atomic. This is the gate that keeps the 100k-stream data plane
// out of the garbage collector's hands.
func TestWriteChunksZeroAllocs(t *testing.T) {
	s := newBenchServer(t, PacingGoroutine)
	st := benchStream(s, 1, 100*units.KBPS)
	s.writeChunks(st, 1500, time.Now()) // warm the deadline state
	allocs := testing.AllocsPerRun(200, func() {
		s.writeChunks(st, 1500, time.Now())
	})
	if allocs != 0 {
		t.Errorf("writeChunks allocates %.1f/op in steady state, want 0", allocs)
	}
}

// benchSpan builds n wheel streams at rate, parked on a tick cursor far
// ahead of the live wheel so the plane's own ticker never races the
// caller for their timers, and returns them as one span's due timers
// plus the tick to step them at. The streams were never accepted, so
// they must leave the wheel before the server's Close evicts what is
// parked: ending them would hand endConn connections accept never took,
// and it panics on those.
func benchSpan(tb testing.TB, s *Server, n int, rate units.ByteRate) ([]*wheel.Timer, int64) {
	p := s.plane
	tick := p.w.Current() + 1<<20
	timers := make([]*wheel.Timer, n)
	for i := range timers {
		st := benchStream(s, uint64(i+1), rate)
		ws := &wheelStream{st: st, tick: tick - 1}
		ws.timer.Data = ws
		timers[i] = &ws.timer
	}
	s.metrics.WheelStreams.Add(int64(n))
	tb.Cleanup(func() { // registered after newBenchServer's Close, so it runs first
		p.armMu.Lock()
		for _, t := range timers {
			p.w.Cancel(t)
		}
		p.armMu.Unlock()
	})
	return timers, tick
}

// The whole stream-wake — catch-up batch, write, lag sample, and the
// span's re-arm — must also be allocation-free once the span's scratch
// slice is warm.
func TestWheelStepZeroAllocs(t *testing.T) {
	s := newBenchServer(t, PacingWheel)
	timers, tick := benchSpan(t, s, 1, 100*units.KBPS)
	live := s.plane.span(timers, tick, nil)
	allocs := testing.AllocsPerRun(200, func() {
		tick++
		live = s.plane.span(timers, tick, live[:0])
	})
	if allocs != 0 {
		t.Errorf("wheel step allocates %.1f/op in steady state, want 0", allocs)
	}
	if len(live) != 1 {
		t.Fatalf("span kept %d streams live, want 1", len(live))
	}
}

// BenchmarkWriteChunks measures the shared write path per chunk at
// representative chunk sizes (ns/chunk, MB/s, allocs).
func BenchmarkWriteChunks(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("chunk=%dKB", size>>10), func(b *testing.B) {
			s := newBenchServer(b, PacingGoroutine)
			st := benchStream(s, 1, 100*units.KBPS)
			now := time.Now()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.writeChunks(st, size, now)
			}
		})
	}
}

// BenchmarkWheelStep measures one stream-wake on the wheel plane: pacer
// catch-up, chunk write, lag sample, and a one-stream span's re-arm.
// This is the per-stream per-quantum cost that bounds sustainable
// population when streams wake alone.
func BenchmarkWheelStep(b *testing.B) {
	s := newBenchServer(b, PacingWheel)
	timers, tick := benchSpan(b, s, 1, 100*units.KBPS)
	live := s.plane.span(timers, tick, nil)
	b.SetBytes(int64(units.BytesIn(100*units.KBPS, s.cfg.Quantum)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick++
		live = s.plane.span(timers, tick, live[:0])
	}
}

// BenchmarkWheelSpan measures a worker's whole span of n due streams,
// stepped and re-armed in one arm round; ns/stream is its cost per
// stream-wake, the figure to hold against BenchmarkWheelStep.
func BenchmarkWheelSpan(b *testing.B) {
	for _, n := range []int{2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := newBenchServer(b, PacingWheel)
			timers, tick := benchSpan(b, s, n, 100*units.KBPS)
			live := s.plane.span(timers, tick, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick++
				live = s.plane.span(timers, tick, live[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/stream")
		})
	}
}

// --- population-scaling harness ---

type scalingPoint struct {
	Mode          string  `json:"mode"`
	Streams       int     `json:"streams"`
	LagP50MS      float64 `json:"lag_p50_ms"`
	LagP95MS      float64 `json:"lag_p95_ms"`
	LagP99MS      float64 `json:"lag_p99_ms"`
	WakeupsPerSec float64 `json:"wakeups_per_sec"`
	TicksPerSec   float64 `json:"ticks_per_sec,omitempty"` // wheel only
	Sustained     bool    `json:"sustained"`               // lag_p99 within budget
}

type scalingReport struct {
	Schema         string         `json:"schema"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	QuantumMS      float64        `json:"quantum_ms"`
	RateBps        float64        `json:"rate_bps"`
	WarmupMS       float64        `json:"warmup_ms"`
	MeasureMS      float64        `json:"measure_ms"`
	BudgetMS       float64        `json:"budget_ms"`
	Points         []scalingPoint `json:"points"`
	MaxSustainable map[string]int `json:"max_sustainable"`
	WheelRatio     float64        `json:"wheel_over_goroutine_ratio"`
}

// subSnap returns the histogram delta b-a: the samples observed between
// two snapshots of the same histogram.
func subSnap(b, a metrics.Snapshot) metrics.Snapshot {
	var d metrics.Snapshot
	for i := range b.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
		d.N += d.Counts[i]
	}
	d.SumNS = b.SumNS - a.SumNS
	return d
}

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestPacingScalingHarness sweeps stream populations across both pacing
// planes against synthetic clients and records lag quantiles and wakeup
// rates per point, plus the largest population each plane sustains
// within the lag-p99 budget (half a quantum). Gated behind
// PACING_SCALING_OUT because a full sweep takes tens of seconds and its
// numbers only mean something on an otherwise idle machine:
//
//	PACING_SCALING_OUT=/tmp/pacing.json go test ./internal/serve/ -run ScalingHarness -v
//
// Knobs: PACING_SCALING_POPS (comma-separated ladder),
// PACING_SCALING_WARM_MS, PACING_SCALING_MEASURE_MS.
func TestPacingScalingHarness(t *testing.T) {
	outPath := os.Getenv("PACING_SCALING_OUT")
	if outPath == "" {
		t.Skip("set PACING_SCALING_OUT=<path> to run the pacing scaling harness")
	}
	const (
		quantum = 20 * time.Millisecond
		rate    = 10 * units.KBPS // 200 B per quantum: every wake emits
	)
	warm := time.Duration(envInt("PACING_SCALING_WARM_MS", 500)) * time.Millisecond
	measure := time.Duration(envInt("PACING_SCALING_MEASURE_MS", 2000)) * time.Millisecond
	budget := quantum / 2

	pops := []int{1000, 5000, 10000, 25000, 50000, 100000}
	if v := os.Getenv("PACING_SCALING_POPS"); v != "" {
		pops = pops[:0]
		for _, f := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				t.Fatalf("bad PACING_SCALING_POPS entry %q", f)
			}
			pops = append(pops, n)
		}
	}

	report := scalingReport{
		Schema:         "pacing-scaling/v1",
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		QuantumMS:      float64(quantum) / 1e6,
		RateBps:        float64(rate),
		WarmupMS:       float64(warm) / 1e6,
		MeasureMS:      float64(measure) / 1e6,
		BudgetMS:       float64(budget) / 1e6,
		MaxSustainable: map[string]int{},
	}

	for _, mode := range []PacingMode{PacingGoroutine, PacingWheel} {
		for _, pop := range pops {
			pt := runScalingPoint(t, mode, pop, quantum, rate, warm, measure, budget)
			report.Points = append(report.Points, pt)
			if pt.Sustained && pop > report.MaxSustainable[mode.String()] {
				report.MaxSustainable[mode.String()] = pop
			}
			t.Logf("%-9s %6d streams: lag p99 %.2fms, %.0f wakeups/s, sustained=%v",
				mode, pop, pt.LagP99MS, pt.WakeupsPerSec, pt.Sustained)
		}
	}
	if g := report.MaxSustainable["goroutine"]; g > 0 {
		report.WheelRatio = float64(report.MaxSustainable["wheel"]) / float64(g)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (max sustainable: %v, ratio %.1fx)", outPath, report.MaxSustainable, report.WheelRatio)
}

// runScalingPoint runs one (mode, population) cell: accept pop PLAYs
// from null clients, check that every one of them is streaming, warm up,
// measure lag and wakeup deltas over the window, then tear everything
// down by closing the conns (the write path sees net.ErrClosed and
// evicts).
//
// The cell measures the pacing plane, not Theorem 1, so its admission
// takes every stream: no DRAM cap, and a disk twice as fast as the
// population's aggregate rate. benchConfig's 64 GB cap would refuse most
// PLAYs somewhere past 10k streams, and the point would then report lag
// over far fewer streams than it claims.
func runScalingPoint(t *testing.T, mode PacingMode, pop int, quantum time.Duration,
	rate units.ByteRate, warm, measure, budget time.Duration) scalingPoint {
	t.Helper()
	cfg := benchConfig(mode)
	cfg.Quantum = quantum
	cfg.DefaultRate = rate
	cfg.MaxConns = pop
	cfg.Admission.DRAMCap = 0
	cfg.Admission.Disk.Rate = 2 * units.ByteRate(pop) * rate
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conns := make([]*scriptConn, pop)
	for i := range conns {
		conns[i] = &scriptConn{data: []byte("PLAY\n")} // at the default rate
		s.accept(conns[i])
	}
	if !allStreaming(s, mode, pop, 30*time.Second) {
		t.Fatalf("%s %d PLAYs: %d admitted, %d refused, %d on the wheel; the point must measure all of them",
			mode, pop, s.metrics.AdmittedTotal.Load(), s.metrics.AdmissionBusy.Load(),
			s.metrics.WheelStreams.Load())
	}

	time.Sleep(warm)
	lagA := s.metrics.Lag.Snapshot()
	firesA := s.metrics.WheelFires.Load()
	ticksA := s.metrics.WheelTicks.Load()
	time.Sleep(measure)
	lagB := s.metrics.Lag.Snapshot()
	firesB := s.metrics.WheelFires.Load()
	ticksB := s.metrics.WheelTicks.Load()

	for _, c := range conns {
		c.Close()
	}
	if !connsEnded(s, 30*time.Second) {
		t.Fatalf("%s teardown: %d streams still standing", mode, s.metrics.ActiveStreams.Load())
	}

	window := subSnap(lagB, lagA)
	secs := measure.Seconds()
	pt := scalingPoint{Mode: mode.String(), Streams: pop}
	if p, ok := window.Quantile(0.50); ok {
		pt.LagP50MS = p * 1e3
	}
	if p, ok := window.Quantile(0.95); ok {
		pt.LagP95MS = p * 1e3
	}
	if p, ok := window.Quantile(0.99); ok {
		pt.LagP99MS = p * 1e3
		pt.Sustained = time.Duration(p*float64(time.Second)) <= budget
	}
	if mode == PacingWheel {
		pt.WakeupsPerSec = float64(firesB-firesA) / secs
		pt.TicksPerSec = float64(ticksB-ticksA) / secs
	} else {
		// One lag sample per stream-quantum: the sample rate IS the
		// runtime-timer wakeup rate.
		pt.WakeupsPerSec = float64(window.N) / secs
	}
	return pt
}

// allStreaming waits up to within for all pop PLAYs to be admitted and,
// on the wheel, parked. It gives up at once if any PLAY was refused.
func allStreaming(s *Server, mode PacingMode, pop int, within time.Duration) bool {
	m := s.metrics
	deadline := time.Now().Add(within)
	for {
		if m.AdmittedTotal.Load() == uint64(pop) &&
			(mode != PacingWheel || m.WheelStreams.Load() == int64(pop)) {
			return true
		}
		if m.AdmissionBusy.Load() > 0 || time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}
