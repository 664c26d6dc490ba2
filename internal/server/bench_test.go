package server

import (
	"testing"
	"time"

	"memstream/internal/allocgate"
	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/tier"
	"memstream/internal/units"
)

// newCycleWalk assembles a direct-mode run sized for n streams and warms
// its steady state: enough cycles that every pooled structure (engine
// slots, chain rings, scheduler arrays, the margins reservoir) has grown
// to its standing footprint. What remains is the pure per-cycle walk —
// the code the cycleLoop events execute in a real run — which the
// benchmarks time and the zero-alloc gate pins.
//
// The bit-rate keeps n·B̄ inside FutureDisk's effective-rate envelope
// (Theorem 1 feasibility) at both benchmark populations.
func newCycleWalk(tb testing.TB, n int, br units.ByteRate) *cycleRun {
	tb.Helper()
	cfg := Config{
		Mode:    Direct,
		Disk:    disk.FutureDisk(),
		Tier:    tier.MustLookup("mems-g3"),
		N:       n,
		BitRate: br,
		Titles:  50,
		X:       10, Y: 90,
		Seed: 1,
	}
	if err := validate(&cfg); err != nil {
		tb.Fatal(err)
	}
	d, err := newCycleRun(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for c := int64(0); c < 16; c++ {
		d.disk.stage(c)
		d.r.eng.Run()
	}
	return d
}

func benchmarkCycleWalk(b *testing.B, n int, br units.ByteRate) {
	d := newCycleWalk(b, n, br)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.disk.stage(int64(i))
		d.r.eng.Run()
	}
}

// BenchmarkCycleWalk measures one steady-state scheduling cycle of the
// direct architecture — the SoA player walk, the batch C-LOOK build and
// dispatch, and the per-stream drain/fill — at two populations.
func BenchmarkCycleWalk1k(b *testing.B)  { benchmarkCycleWalk(b, 1_000, 100*units.KBPS) }
func BenchmarkCycleWalk64k(b *testing.B) { benchmarkCycleWalk(b, 65_536, 3*units.KBPS) }

// zeroAllocBenchmarks is the rig's hot-path budget: once warm, a
// scheduling cycle allocates nothing — the SoA walk, pooled schedulers,
// chain rings and engine slots all reuse their storage — in the direct
// architecture at both populations, in the buffered pipeline's MEMS
// cycle across a disk cycle boundary, and on both sides of the cached
// architecture's split.
var zeroAllocBenchmarks = []func(*testing.B){
	BenchmarkCycleWalk1k, BenchmarkCycleWalk64k, BenchmarkBufferedCycleWalk, BenchmarkCachedCycleWalk,
}

// TestCycleWalkZeroAllocs holds every benchmark in zeroAllocBenchmarks to
// 0 allocs/op. Seventy iterations span a whole disk cycle of the buffered
// walk: 69 MEMS cycles.
func TestCycleWalkZeroAllocs(t *testing.T) { allocgate.Check(t, 70, zeroAllocBenchmarks...) }

// stageWalk drives an assembled run one cycle of its finest stage at a
// time: each step queues that cycle, and every cycle of a coarser stage
// falling due by then, and runs the calendar up to the cycle's start, so
// a step does one cycle's worth of service — the steady state of a real
// run, whose cycleLoops chain the same firings.
type stageWalk struct {
	m     *cycleRun
	fine  *walkCall // the stage with the shortest period
	calls []walkCall
}

// walkCall is one stage's place in the walk: the next cycle to queue and
// the next to fire.
type walkCall struct {
	s             *stage
	queued, fired int64
}

func fireWalkCall(arg any) { wc := arg.(*walkCall); wc.s.fn(wc.fired); wc.fired++ }

func newStageWalk(m *cycleRun) *stageWalk {
	w := &stageWalk{m: m, calls: make([]walkCall, len(m.stages))}
	for k := range m.stages {
		s := &m.stages[k]
		w.calls[k] = walkCall{s: s, queued: s.first, fired: s.first}
		if w.fine == nil || s.period < w.fine.s.period {
			w.fine = &w.calls[k]
		}
	}
	return w
}

// at is the start of the finest stage's next cycle.
func (w *stageWalk) at() time.Duration { return time.Duration(w.fine.queued) * w.fine.s.period }

func (w *stageWalk) step() {
	eng := w.m.r.eng
	at := w.at()
	for k := range w.calls {
		wc := &w.calls[k]
		for due := time.Duration(wc.queued) * wc.s.period; due <= at; due += wc.s.period {
			eng.ScheduleArg(due-eng.Now(), fireWalkCall, wc)
			wc.queued++
		}
	}
	eng.RunUntil(at)
}

// newWarmWalk assembles cfg's run and walks it while cold reports true:
// until every pooled structure has reached its standing size.
func newWarmWalk(tb testing.TB, cfg Config, cold func(w *stageWalk) bool) *stageWalk {
	tb.Helper()
	if err := validate(&cfg); err != nil {
		tb.Fatal(err)
	}
	m, err := newCycleRun(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	w := newStageWalk(m)
	for cold(w) {
		w.step()
	}
	return w
}

// newBufferedWalk assembles the repo benchmark's sim-buffered partition —
// 1500 readers at 100 KB/s through K = 4 mems-g3 devices — and warms it
// past the second disk cycle, where every reader drains every MEMS cycle.
func newBufferedWalk(tb testing.TB) *stageWalk {
	return newWarmWalk(tb, Config{
		Mode:    Buffered,
		Disk:    disk.FutureDisk(),
		Tier:    tier.MustLookup("mems-g3"),
		K:       4,
		N:       1500,
		BitRate: 100 * units.KBPS,
		Titles:  400,
		X:       5, Y: 95,
		Seed: 1,
	}, func(w *stageWalk) bool { return w.at() < 5*w.m.stages[0].period/2 })
}

// BenchmarkBufferedCycleWalk measures one steady-state MEMS cycle of the
// buffered pipeline: four counted chain items, 1500 sled services with
// their drain and fill, the event kernel under them, and every 69th op
// a disk cycle's C-LOOK batch.
func BenchmarkBufferedCycleWalk(b *testing.B) {
	w := newBufferedWalk(b)
	perDisk := int(w.m.stages[0].period / w.m.stages[1].period)
	before := w.m.r.dsk.Served()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.step()
	}
	if b.N > perDisk && w.m.r.dsk.Served() == before {
		b.Fatalf("%d MEMS cycles, a disk cycle's worth, served no disk IO", b.N)
	}
}

// EDF's steady state allocates nothing: each stream reuses one request
// record and every completion is a static callback over the run's state,
// so on a pooled arena a run allocates its set-up alone — the same at 10
// cycles as at 40.
func TestEDFAllocsDoNotGrowWithHorizon(t *testing.T) {
	cfg := baseConfig(Direct, 50, units.MBPS)
	cfg.UseEDF = true
	cfg.Arena = NewArena()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cycle := res.SimulatedTime / time.Duration(res.Cycles)
	allocs := func(cycles int64) float64 {
		cfg.Duration = time.Duration(cycles) * cycle
		return testing.AllocsPerRun(5, func() {
			if res, err = Run(cfg); err != nil || res.Cycles != cycles {
				t.Fatalf("run of %d cycles: %d cycles, %v", cycles, res.Cycles, err)
			}
		})
	}
	short, long := allocs(10), allocs(40)
	if long != short {
		t.Errorf("an EDF run allocates %v times over 10 cycles but %v over 40: the steady state allocates", short, long)
	}
	if res.DiskIOs < 40*uint64(cfg.N) || res.Underflows != 0 {
		t.Errorf("the 40-cycle run served %d IOs with %d underflows", res.DiskIOs, res.Underflows)
	}
}

// newCachedWalk assembles a striped cached run — 400 streams at 100 KB/s
// over a 2-device mems-g3 bank, the paper suite's cache operating point —
// and warms it until the margins reservoir (8192 samples) is full.
func newCachedWalk(tb testing.TB) *stageWalk {
	w := newWarmWalk(tb, Config{
		Mode:        Cached,
		Disk:        disk.FutureDisk(),
		Tier:        tier.MustLookup("mems-g3"),
		K:           2,
		CachePolicy: model.Striped,
		N:           400,
		BitRate:     100 * units.KBPS,
		Titles:      200,
		X:           10, Y: 90,
		Seed: 1,
	}, func(w *stageWalk) bool { return w.m.r.margins.N() < 2*8192 })
	if m := w.m; len(m.stages) != 2 || m.cache == nil || m.disk == nil {
		tb.Fatalf("walk covers %d stages; want the disk and cache sides", len(m.stages))
	}
	return w
}

// BenchmarkCachedCycleWalk measures one steady-state cycle of the cached
// architecture's finer side: the cache stage's lock-step reads with their
// drain and fill, and the disk side's C-LOOK batch when one falls due.
func BenchmarkCachedCycleWalk(b *testing.B) {
	w := newCachedWalk(b)
	m := w.m
	ratio := int(max(m.stages[0].period, m.stages[1].period) / w.fine.s.period)
	before, fills := m.r.dsk.Served(), m.r.cacheFills
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.step()
	}
	if b.N > ratio && (m.r.dsk.Served() == before || m.r.cacheFills == fills) {
		b.Fatalf("%d cycles, the slower side's period, left a side idle", b.N)
	}
}
