package server

import (
	"testing"
	"time"

	"memstream/internal/disk"
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
func newCycleWalk(tb testing.TB, n int, br units.ByteRate) *directRun {
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
	d, err := newDirect(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for c := int64(0); c < 16; c++ {
		d.stage(c)
		d.r.eng.Run()
	}
	return d
}

func benchmarkCycleWalk(b *testing.B, n int, br units.ByteRate) {
	d := newCycleWalk(b, n, br)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.stage(int64(i))
		d.r.eng.Run()
	}
}

// BenchmarkCycleWalk measures one steady-state scheduling cycle of the
// direct architecture — the SoA player walk, the batch C-LOOK build and
// dispatch, and the per-stream drain/fill — at two populations.
func BenchmarkCycleWalk1k(b *testing.B)  { benchmarkCycleWalk(b, 1_000, 100*units.KBPS) }
func BenchmarkCycleWalk64k(b *testing.B) { benchmarkCycleWalk(b, 65_536, 3*units.KBPS) }

// The hard hot-path budget: once warm, a scheduling cycle allocates
// nothing — the SoA walk, pooled schedulers, chain rings and engine
// slots all reuse their storage. This is a test (not just a benchmark)
// so `go test` itself gates the invariant in CI.
func TestCycleWalkZeroAllocs(t *testing.T) {
	d := newCycleWalk(t, 1_000, 100*units.KBPS)
	c := int64(16)
	if n := testing.AllocsPerRun(50, func() {
		d.stage(c)
		d.r.eng.Run()
		c++
	}); n != 0 {
		t.Errorf("steady-state cycle walk allocates %v per cycle, want 0", n)
	}
}

// bufferedWalk drives an assembled buffered run one MEMS cycle at a time:
// each step queues the cycle's stage (and the disk cycle's, when one falls
// due) and runs the calendar up to the cycle's start, so a step does one
// cycle's worth of bank service — the steady state of a real run, whose
// cycleLoop events are all queued up-front instead.
type bufferedWalk struct {
	b    *bufferedRun
	m, c int64 // next MEMS cycle, next disk cycle
}

func walkDisk(arg any) { w := arg.(*bufferedWalk); w.b.pipe.diskStage(w.c); w.c++ }
func walkMems(arg any) { w := arg.(*bufferedWalk); w.b.memsStage(w.m) }

func (w *bufferedWalk) step() {
	eng := w.b.r.eng
	w.m++
	at := time.Duration(w.m) * w.b.plan.MEMSCycle
	if due := time.Duration(w.c) * w.b.plan.DiskCycle; due <= at {
		eng.ScheduleArg(due-eng.Now(), walkDisk, w)
	}
	eng.ScheduleArg(at-eng.Now(), walkMems, w)
	eng.RunUntil(at)
}

// newBufferedWalk assembles the repo benchmark's sim-buffered partition —
// 1500 readers at 100 KB/s through K = 4 mems-g3 devices — and warms it
// past the second disk cycle, where every reader drains every MEMS cycle
// and every pooled structure has reached its standing size.
func newBufferedWalk(tb testing.TB) *bufferedWalk {
	tb.Helper()
	cfg := Config{
		Mode:    Buffered,
		Disk:    disk.FutureDisk(),
		Tier:    tier.MustLookup("mems-g3"),
		K:       4,
		N:       1500,
		BitRate: 100 * units.KBPS,
		Titles:  400,
		X:       5, Y: 95,
		Seed: 1,
	}
	if err := validate(&cfg); err != nil {
		tb.Fatal(err)
	}
	b, err := newBuffered(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	w := &bufferedWalk{b: b}
	for time.Duration(w.m)*b.plan.MEMSCycle < 5*b.plan.DiskCycle/2 {
		w.step()
	}
	return w
}

// BenchmarkBufferedCycleWalk measures one steady-state MEMS cycle of the
// buffered pipeline: four counted chain items, 1500 sled services with
// their drain and fill, the event kernel under them, and every ~60th op
// a disk cycle's C-LOOK batch.
func BenchmarkBufferedCycleWalk(b *testing.B) {
	w := newBufferedWalk(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.step()
	}
}

// The buffered pipeline's hot-path budget, as TestCycleWalkZeroAllocs is
// the direct one's: a warm MEMS cycle allocates nothing, across a disk
// cycle boundary too.
func TestBufferedCycleWalkZeroAllocs(t *testing.T) {
	w := newBufferedWalk(t)
	perDisk := int(w.b.plan.DiskCycle/w.b.plan.MEMSCycle) + 1
	before := w.b.r.dsk.Served()
	if n := testing.AllocsPerRun(perDisk, w.step); n != 0 {
		t.Errorf("steady-state buffered cycle allocates %v per MEMS cycle, want 0", n)
	}
	if w.b.r.dsk.Served() == before || w.b.r.ar.ps.highWater == 0 {
		t.Error("the measured cycles moved no data")
	}
}
