package server

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"memstream/internal/bank"
	"memstream/internal/cache"
	"memstream/internal/device"
	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/tier"
	"memstream/internal/units"
)

func baseConfig(mode Mode, n int, br units.ByteRate) Config {
	return Config{
		Mode:    mode,
		Disk:    disk.FutureDisk(),
		Tier:    tier.MustLookup("mems-g3"),
		K:       2,
		N:       n,
		BitRate: br,
		Titles:  50,
		X:       10, Y: 90,
		Seed: 1,
	}
}

func TestValidateDefaults(t *testing.T) {
	cfg := Config{Mode: Direct, Disk: disk.FutureDisk(), N: 5, BitRate: units.MBPS}
	if err := validate(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Titles != 100 || cfg.X != 10 || cfg.Y != 90 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestValidateRejects(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: Direct, N: 0, BitRate: units.MBPS},
		{Mode: Direct, N: 5, BitRate: 0},
		{Mode: Buffered, N: 5, BitRate: units.MBPS, K: 0},
		{Mode: Cached, N: 5, BitRate: units.MBPS, K: 0},
	} {
		c := cfg
		if err := validate(&c); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// validate refuses a field the selected mode would silently ignore.
func TestValidateRefusesIgnoredFields(t *testing.T) {
	edf := baseConfig(Direct, 10, units.MBPS)
	edf.UseEDF = true
	hybrid := baseConfig(Hybrid, 10, units.MBPS)
	hybrid.K, hybrid.CacheDevices = 4, 2
	modes := map[string]Config{
		"direct":   baseConfig(Direct, 10, units.MBPS),
		"edf":      edf,
		"buffered": baseConfig(Buffered, 10, units.MBPS),
		"cached":   baseConfig(Cached, 10, units.MBPS),
		"hybrid":   hybrid,
	}
	for _, f := range []struct {
		name  string
		set   func(*Config)
		honor []string
	}{
		{"PausedFraction", func(c *Config) { c.PausedFraction = 0.3 }, []string{"direct"}},
		{"VBRCoV", func(c *Config) { c.VBRCoV = 0.3 }, []string{"direct", "buffered"}},
		{"NoCushion", func(c *Config) { c.NoCushion = true }, []string{"direct", "buffered"}},
		{"BestEffort", func(c *Config) { c.BestEffort = true }, []string{"buffered"}},
		{"UseEDF", func(c *Config) { c.UseEDF = true }, []string{"direct", "edf"}},
		{"CacheDevices", func(c *Config) { c.CacheDevices = 1 }, []string{"hybrid"}},
		{"CachePolicy", func(c *Config) { c.CachePolicy = model.Replicated }, []string{"cached", "hybrid"}},
	} {
		for name, cfg := range modes {
			f.set(&cfg)
			err := validate(&cfg)
			if want := slices.Contains(f.honor, name); (err == nil) != want {
				t.Errorf("%s in %s mode: validate says %v, want accepted=%v", f.name, name, err, want)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if Direct.String() != "direct" || Buffered.String() != "mems-buffer" || Cached.String() != "mems-cache" {
		t.Error("mode names wrong")
	}
}

// The central validation: a direct server provisioned by Theorem 1 never
// underflows in simulation.
func TestDirectNoUnderflows(t *testing.T) {
	res, err := Run(baseConfig(Direct, 50, 1*units.MBPS))
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("underflows = %d (%v missing)", res.Underflows, res.UnderflowBytes)
	}
	if res.DiskIOs == 0 {
		t.Error("no disk IOs recorded")
	}
	if res.DRAMHighWater <= 0 {
		t.Error("no DRAM use recorded")
	}
	// Double-buffering keeps occupancy within ~2x of the model's minimum.
	if float64(res.DRAMHighWater) > 2.5*float64(res.PlannedDRAM) {
		t.Errorf("high water %v far above plan %v", res.DRAMHighWater, res.PlannedDRAM)
	}
}

func TestDirectInfeasibleLoad(t *testing.T) {
	if _, err := Run(baseConfig(Direct, 31, 10*units.MBPS)); err == nil {
		t.Fatal("31 HDTV streams should be infeasible on FutureDisk")
	}
}

func TestDirectDeterministic(t *testing.T) {
	a, err := Run(baseConfig(Direct, 20, 1*units.MBPS))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(Direct, 20, 1*units.MBPS))
	if err != nil {
		t.Fatal(err)
	}
	if a.DRAMHighWater != b.DRAMHighWater || a.DiskBusy != b.DiskBusy || a.DiskIOs != b.DiskIOs {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestDirectSeedChangesLayout(t *testing.T) {
	a, _ := Run(baseConfig(Direct, 20, 1*units.MBPS))
	cfg := baseConfig(Direct, 20, 1*units.MBPS)
	cfg.Seed = 99
	b, _ := Run(cfg)
	if a.DiskBusy == b.DiskBusy {
		t.Log("different seeds produced identical busy time (possible but unlikely)")
	}
	if b.Underflows != 0 {
		t.Errorf("seed 99 underflows = %d", b.Underflows)
	}
}

// The buffered pipeline also delivers without underflows, and the disk
// runs at high utilization thanks to the large staged IOs.
func TestBufferedNoUnderflows(t *testing.T) {
	cfg := baseConfig(Buffered, 100, 1*units.MBPS)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("underflows = %d (%v missing)", res.Underflows, res.UnderflowBytes)
	}
	if res.MEMSIOs == 0 {
		t.Error("no MEMS IOs recorded")
	}
	// Every byte is staged and re-read: MEMS moves ≈2x the stream data.
	if res.MEMSBusy == 0 {
		t.Error("MEMS devices never busy")
	}
}

func TestBufferedSingleDeviceInfeasibleAtHighLoad(t *testing.T) {
	cfg := baseConfig(Buffered, 200, 1*units.MBPS) // needs 402MB/s of MEMS
	cfg.K = 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("single-device buffer should be infeasible at 200MB/s of streams")
	}
	cfg.K = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("k=2 underflows = %d", res.Underflows)
	}
}

func TestBufferedDiskIOsAreLarge(t *testing.T) {
	// The whole point of the buffer: disk IOs grow to S_disk-mems,
	// far beyond the direct plan's S_disk-dram.
	cfg := baseConfig(Buffered, 100, 100*units.KBPS)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(baseConfig(Direct, 100, 100*units.KBPS))
	if err != nil {
		t.Fatal(err)
	}
	// Same stream data volume, far fewer disk IOs per unit time.
	diskIORateBuffered := float64(res.DiskIOs) / res.SimulatedTime.Seconds()
	diskIORateDirect := float64(direct.DiskIOs) / direct.SimulatedTime.Seconds()
	if diskIORateBuffered >= diskIORateDirect/5 {
		t.Errorf("buffered disk IO rate %.2f/s not well below direct %.2f/s",
			diskIORateBuffered, diskIORateDirect)
	}
}

// checkCacheChains holds a cached run to one service chain per cache
// lane — one for the striped bank, K for the replicated one — plus the
// disk's when some streams miss. A chain nobody submits to would still
// be scanned on every wake-up.
func checkCacheChains(t *testing.T, cfg Config, res Result, lanes int) {
	t.Helper()
	want := lanes
	if res.FromDisk > 0 {
		want++
	}
	if got := cfg.Arena.chains.used; got != want {
		t.Errorf("%v run built %d service chains, want %d (%d cache lanes, disk side %v)",
			cfg.CachePolicy, got, want, lanes, res.FromDisk > 0)
	}
}

func TestCachedStripedNoUnderflows(t *testing.T) {
	cfg := baseConfig(Cached, 200, 100*units.KBPS)
	cfg.CachePolicy = model.Striped
	cfg.Titles = 400 // DVD-sized catalog >> cache
	cfg.Arena = NewArena()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCacheChains(t, cfg, res, 1)
	if res.Underflows != 0 {
		t.Errorf("underflows = %d (%v)", res.Underflows, res.UnderflowBytes)
	}
	if res.FromCache == 0 {
		t.Error("no streams served from cache")
	}
	if res.FromCache+res.FromDisk != cfg.N {
		t.Errorf("split %d+%d != %d", res.FromCache, res.FromDisk, cfg.N)
	}
	if res.MEMSIOs == 0 {
		t.Error("cache never accessed")
	}
}

func TestCachedReplicatedNoUnderflows(t *testing.T) {
	cfg := baseConfig(Cached, 200, 100*units.KBPS)
	cfg.CachePolicy = model.Replicated
	cfg.Titles = 400
	cfg.Arena = NewArena()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCacheChains(t, cfg, res, cfg.K)
	if res.Underflows != 0 {
		t.Errorf("underflows = %d (%v)", res.Underflows, res.UnderflowBytes)
	}
	if res.FromCache == 0 {
		t.Error("no streams served from cache")
	}
}

// A Cached run shorter than two cycles of its slower side is floored
// there, as every stage is: its devices are never charged with busy time
// past the end it reports, so neither side reads busier than saturated.
func TestCachedShortHorizonUtilisation(t *testing.T) {
	for _, d := range []time.Duration{100 * time.Millisecond, 300 * time.Millisecond} {
		cfg := baseConfig(Cached, 200, 100*units.KBPS)
		cfg.Titles = 400
		cfg.Duration = d
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.DiskUtil > 1 || res.MEMSUtil > 1 {
			t.Errorf("Duration %v: DiskUtil %.3f, MEMSUtil %.3f, want both at most 1", d, res.DiskUtil, res.MEMSUtil)
		}
	}
}

func TestCachedSkewAffectsHitCount(t *testing.T) {
	run := func(x, y float64) int {
		cfg := baseConfig(Cached, 300, 10*units.KBPS)
		cfg.CachePolicy = model.Striped
		cfg.Titles = 1000
		cfg.X, cfg.Y = x, y
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FromCache
	}
	skewed := run(1, 99)
	uniform := run(50, 50)
	if skewed <= uniform {
		t.Errorf("1:99 cache hits (%d) should exceed 50:50 (%d)", skewed, uniform)
	}
}

func TestCachedStripedBusierBank(t *testing.T) {
	// Striping seeks on all k devices per IO (k·n seeks/cycle vs n) — its
	// aggregate bank busy time should exceed replication's for the same
	// run (paper §3.2.1 vs §3.2.2).
	base := baseConfig(Cached, 200, 100*units.KBPS)
	base.Titles = 400
	base.Duration = 30 * time.Second

	st := base
	st.CachePolicy = model.Striped
	stRes, err := Run(st)
	if err != nil {
		t.Fatal(err)
	}
	re := base
	re.CachePolicy = model.Replicated
	reRes, err := Run(re)
	if err != nil {
		t.Fatal(err)
	}
	if stRes.MEMSIOs <= reRes.MEMSIOs {
		t.Errorf("striped device-IOs (%d) should exceed replicated (%d)",
			stRes.MEMSIOs, reRes.MEMSIOs)
	}
}

// recCacheBank logs every read a cache stage issues.
type recCacheBank struct {
	bank.CacheBank
	reads []device.Request
}

func (b *recCacheBank) Read(now time.Duration, stream int, block, blocks int64) (device.Completion, error) {
	b.reads = append(b.reads, device.Request{Block: block, Blocks: blocks, Stream: stream})
	return b.CacheBank.Read(now, stream, block, blocks)
}

// On a tier whose blocks are 8× the disk's, the cache side still sizes and
// places its reads in bank blocks: every read moves the cache plan's IO
// size rounded up to one bank block, from inside the pinned image. The
// tier is nvm-optane with 4096 B blocks, shrunk so the cache holds only
// the popular titles and slowed so an IO spans several blocks.
func TestCacheReadsInBankBlocks(t *testing.T) {
	const block = 4096
	spec := tier.MustLookup("nvm-optane")
	spec.Name, spec.BlockBytes = "nvm-optane-4k", block
	spec.Capacity, spec.MaxLatency = 2*units.GB, 10*time.Millisecond
	striped := baseConfig(Cached, 200, 100*units.KBPS)
	striped.CachePolicy = model.Striped
	striped.Titles = 400
	replicated := striped
	replicated.CachePolicy = model.Replicated
	hybrid := baseConfig(Hybrid, 300, 100*units.KBPS)
	hybrid.K, hybrid.CacheDevices, hybrid.Titles = 4, 2, 400
	for name, cfg := range map[string]Config{"cached-striped": striped, "cached-replicated": replicated, "hybrid": hybrid} {
		t.Run(name, func(t *testing.T) {
			cfg.Tier = spec
			if err := validate(&cfg); err != nil {
				t.Fatal(err)
			}
			m, err := newCycleRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &recCacheBank{CacheBank: m.cache.cb}
			m.cache.cb = rec
			res := m.run()

			k, planFor := cfg.K, model.StripedCache
			if cfg.Mode == Hybrid {
				k = cfg.CacheDevices
			} else if cfg.CachePolicy == model.Replicated {
				planFor = model.ReplicatedCache
			}
			plan, err := planFor(res.FromCache, k, cfg.BitRate, tierSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			placement, err := cache.Plan(m.r.cat, rec.Capacity())
			if err != nil {
				t.Fatal(err)
			}
			want := units.Bytes(math.Ceil(float64(plan.IOSize/block))) * block
			image := int64(math.Ceil(float64(placement.Used / block)))
			if want < 2*block {
				t.Fatalf("IO size %v fits one block; the case cannot tell block sizes apart", plan.IOSize)
			}
			if len(rec.reads) < res.FromCache {
				t.Fatalf("%d cache reads for %d cached streams", len(rec.reads), res.FromCache)
			}
			for _, rd := range rec.reads {
				if got := units.Bytes(rd.Blocks) * block; got != want {
					t.Fatalf("a cache read moves %v, want %v (IO size %v in %d B blocks)", got, want, plan.IOSize, block)
				}
				if rd.Block < 0 || rd.Block+rd.Blocks > image {
					t.Fatalf("read of blocks [%d, %d) leaves the %d-block image", rd.Block, rd.Block+rd.Blocks, image)
				}
			}
		})
	}
}

func TestRunUnknownMode(t *testing.T) {
	cfg := baseConfig(Mode(99), 10, units.MBPS)
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestDirectAtHDTVFeasibilityEdge(t *testing.T) {
	// With whole-disk content, the simulator plans against the effective
	// (block-weighted) zone rate ≈242MB/s, so the HDTV edge sits at 23
	// streams, not the paper's outer-zone-rate 29.
	cfg := baseConfig(Direct, 23, 10*units.MBPS)
	cfg.Duration = 20 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("feasible edge underflowed: %d (%v)", res.Underflows, res.UnderflowBytes)
	}
	if res.DiskUtil < 0.5 {
		t.Errorf("edge-load disk utilization = %.2f, want high", res.DiskUtil)
	}
	// One stream past the planner's envelope must be rejected.
	over := baseConfig(Direct, 25, 10*units.MBPS)
	if _, err := Run(over); err == nil {
		t.Error("25 HDTV streams should exceed the effective-rate envelope")
	}
}

func TestChainSerializesWork(t *testing.T) {
	eng, chains := arenaChains(1)
	ch := chains[0]
	var order []int
	var finishes []time.Duration
	work := func(it *chainItem, start time.Duration) time.Duration {
		order = append(order, int(it.stream))
		f := start + 10*time.Millisecond
		finishes = append(finishes, f)
		return f
	}
	for i := 0; i < 3; i++ {
		ch.submit(chainItem{fn: work, stream: int32(i)})
	}
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	// Items run back-to-back: finishes at 10, 20, 30ms.
	for i, f := range finishes {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if f != want {
			t.Errorf("finish %d = %v, want %v", i, f, want)
		}
	}
}

// A counted item must be indistinguishable from its copies queued one by
// one: same run order against later real-time and best-effort work, same
// back-to-back timing, same depth at every step.
func TestChainCountedItemMatchesCopies(t *testing.T) {
	type step struct {
		stream, depth int
		start         time.Duration
	}
	run := func(counted bool) []step {
		eng, chains := arenaChains(1)
		ch := chains[0]
		var steps []step
		work := func(it *chainItem, start time.Duration) time.Duration {
			steps = append(steps, step{int(it.stream), ch.depth(), start})
			return start + 10*time.Millisecond
		}
		ch.submit(chainItem{fn: work, stream: 0})
		ch.submitLow(chainItem{fn: work, stream: 9})
		if counted {
			ch.submit(chainItem{fn: work, stream: 1, repeat: 3})
			ch.submit(chainItem{fn: work, stream: 2, repeat: 1})
		} else {
			for i := 0; i < 3; i++ {
				ch.submit(chainItem{fn: work, stream: 1})
			}
			ch.submit(chainItem{fn: work, stream: 2})
		}
		ch.submit(chainItem{fn: work, stream: 3})
		eng.Run()
		if d := ch.depth(); d != 0 {
			t.Errorf("counted=%v: idle chain reports depth %d", counted, d)
		}
		return steps
	}
	want, got := run(false), run(true)
	if len(want) != 7 || !slices.Equal(got, want) {
		t.Errorf("counted item diverged from its copies:\n got %v\nwant %v", got, want)
	}

	// The bank-cycle shape: a counted item that carries no stream, only a
	// cursor its handler advances through a list, against copies that each
	// name their stream. Mid-batch, a handler on another chain submits a
	// real-time item (a staged write) and best-effort work is waiting: the
	// late item runs after the whole batch and before the best-effort one,
	// and the second batch queues behind it. The chain is busy when each
	// batch arrives: on an idle chain the first run happens inside submit,
	// before the remaining copies are queued, so depth() read by that one
	// handler call is the only thing the two forms disagree on — and only
	// cycle events, after their stage has queued everything, read depth.
	list := []int32{4, 5, 6, 7}
	walk := func(counted bool) []step {
		eng, chains := arenaChains(2)
		ch, other := chains[0], chains[1]
		var steps []step
		note := func(stream int32, start time.Duration) time.Duration {
			steps = append(steps, step{int(stream), ch.depth(), start})
			return start + 10*time.Millisecond
		}
		named := func(it *chainItem, start time.Duration) time.Duration { return note(it.stream, start) }
		cursor := func(it *chainItem, start time.Duration) time.Duration {
			stream := list[it.stream]
			it.stream++
			return note(stream, start)
		}
		batch := func() {
			if counted {
				ch.submit(chainItem{fn: cursor, repeat: int32(len(list))})
				return
			}
			for _, s := range list {
				ch.submit(chainItem{fn: named, stream: s})
			}
		}
		ch.submit(chainItem{fn: named, stream: 1})
		batch()
		ch.submitLow(chainItem{fn: named, stream: 90})
		// 15 ms in, while the batch's first run is in service.
		other.submit(chainItem{fn: func(_ *chainItem, start time.Duration) time.Duration {
			return start + 15*time.Millisecond
		}})
		other.submit(chainItem{fn: func(_ *chainItem, start time.Duration) time.Duration {
			ch.submit(chainItem{fn: named, stream: 50})
			ch.submitLow(chainItem{fn: named, stream: 91})
			batch()
			return start
		}})
		eng.Run()
		if d := ch.depth(); d != 0 {
			t.Errorf("counted=%v: idle chain reports depth %d", counted, d)
		}
		return steps
	}
	want, got = walk(false), walk(true)
	order := make([]int, len(want))
	for i, s := range want {
		order[i] = s.stream
	}
	if !slices.Equal(order, []int{1, 4, 5, 6, 7, 50, 4, 5, 6, 7, 90, 91}) {
		t.Errorf("copies ran in order %v", order)
	}
	if !slices.Equal(got, want) {
		t.Errorf("cursor item diverged from its copies:\n got %v\nwant %v", got, want)
	}
}

// Every chain operation copies a chainItem through a ring; growing it from
// 72 to 80 bytes measured 2–5 % on a buffered run (1.7M bank items), and
// with a four-word device.Request it fits one 64-byte cache line.
func TestChainItemStaysNineWords(t *testing.T) {
	if n := unsafe.Sizeof(chainItem{}); n > 64 {
		t.Errorf("chainItem is %d bytes, want at most 64", n)
	}
}

// canSSA is the Go compiler's rule for keeping a value in SSA form
// (cmd/compile/internal/ssa.CanSSA): at most four pointer words, an
// array of at most one element, and at most four fields at every struct
// level. A type that passes is passed and returned in registers and held
// in them across the caller; one that fails is spilled to the stack and
// block-copied at every hop.
func canSSA(ty reflect.Type) error {
	if limit := 4 * unsafe.Sizeof(uintptr(0)); ty.Size() > limit {
		return fmt.Errorf("%v is %d bytes, more than %d", ty, ty.Size(), limit)
	}
	switch ty.Kind() {
	case reflect.Array:
		if ty.Len() > 1 {
			return fmt.Errorf("%v is an array of %d elements", ty, ty.Len())
		}
		return canSSA(ty.Elem())
	case reflect.Struct:
		if ty.NumField() > 4 {
			return fmt.Errorf("%v has %d fields, more than 4", ty, ty.NumField())
		}
		for i := 0; i < ty.NumField(); i++ {
			if err := canSSA(ty.Field(i).Type); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestCompletionFitsResultRegisters keeps device.Request and
// device.Completion inside canSSA, so that no Service, Dispatch or
// CacheBank.Read argument or result is spilled and copied on its way
// through the layers.
func TestCompletionFitsResultRegisters(t *testing.T) {
	for _, v := range []any{device.Request{}, device.Completion{}} {
		if err := canSSA(reflect.TypeOf(v)); err != nil {
			t.Error(err)
		}
	}
}

func TestChainHandlesRegressingFinish(t *testing.T) {
	eng, chains := arenaChains(1)
	ch := chains[0]
	ran := 0
	ch.submit(chainItem{fn: func(_ *chainItem, start time.Duration) time.Duration {
		ran++
		return start - time.Second // misbehaving item: finish before start
	}})
	ch.submit(chainItem{fn: func(_ *chainItem, start time.Duration) time.Duration {
		ran++
		return start
	}})
	eng.Run()
	if ran != 2 {
		t.Errorf("ran = %d, want 2 (chain must not stall)", ran)
	}
}

func TestBufferedDeterministic(t *testing.T) {
	cfg := baseConfig(Buffered, 50, 1*units.MBPS)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MEMSBusy != b.MEMSBusy || a.DiskIOs != b.DiskIOs || a.MEMSIOs != b.MEMSIOs {
		t.Error("buffered run not deterministic")
	}
}

func TestBufferedWriteStreams(t *testing.T) {
	// §3.1: "This model can be easily extended to address write streams."
	// A mixed population of players and recorders shares the pipeline; the
	// recorders' DRAM occupancy must stay bounded (staging keeps up) and
	// the players must still meet their deadlines.
	cfg := baseConfig(Buffered, 100, 1*units.MBPS)
	cfg.Writers = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("reader underflows = %d", res.Underflows)
	}
	if res.WriterPeakDRAM <= 0 {
		t.Error("no writer activity recorded")
	}
	// Occupancy stays within a few MEMS cycles of production.
	bound := units.BytesIn(cfg.BitRate, 10*time.Second)
	if res.WriterPeakDRAM > bound {
		t.Errorf("writer peak DRAM %v exceeds %v — staging fell behind", res.WriterPeakDRAM, bound)
	}
	// The disk now performs writes too.
	if res.DiskIOs == 0 {
		t.Error("no disk IOs")
	}
}

func TestWritersRejectedOutsideBufferedMode(t *testing.T) {
	cfg := baseConfig(Direct, 10, units.MBPS)
	cfg.Writers = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("writers accepted in direct mode")
	}
	cfg = baseConfig(Buffered, 10, units.MBPS)
	cfg.Writers = 11
	if _, err := Run(cfg); err == nil {
		t.Fatal("writers > N accepted")
	}
}

func TestAllWritersPipeline(t *testing.T) {
	cfg := baseConfig(Buffered, 50, 1*units.MBPS)
	cfg.Writers = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("underflows = %d for a pure-recording workload", res.Underflows)
	}
	if res.WriterPeakDRAM <= 0 || res.MEMSIOs == 0 {
		t.Errorf("pipeline inactive: %+v", res)
	}
}

func TestEDFMeetsDeadlinesAtModerateLoad(t *testing.T) {
	cfg := baseConfig(Direct, 50, 1*units.MBPS)
	cfg.UseEDF = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("EDF underflows = %d (%v)", res.Underflows, res.UnderflowBytes)
	}
	if res.DiskIOs == 0 {
		t.Error("no IOs serviced")
	}
}

func TestEDFPaysMorePositioningThanTimeCycle(t *testing.T) {
	// Same load, same IO sizes: EDF orders by deadline, the time-cycle
	// server orders by cylinder (C-LOOK), so EDF spends more of the disk's
	// time positioning — the reason the paper builds on time-cycle
	// scheduling.
	base := baseConfig(Direct, 100, 1*units.MBPS)
	base.Duration = 10 * time.Second
	tc, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	edfCfg := base
	edfCfg.UseEDF = true
	edf, err := Run(edfCfg)
	if err != nil {
		t.Fatal(err)
	}
	if edf.Underflows != 0 || tc.Underflows != 0 {
		t.Fatalf("underflows tc=%d edf=%d", tc.Underflows, edf.Underflows)
	}
	// Normalize busy time per IO: EDF should be costlier.
	tcPerIO := float64(tc.DiskBusy) / float64(tc.DiskIOs)
	edfPerIO := float64(edf.DiskBusy) / float64(edf.DiskIOs)
	if edfPerIO <= tcPerIO {
		t.Errorf("EDF per-IO time %.3fms not above time-cycle %.3fms",
			edfPerIO/1e6, tcPerIO/1e6)
	}
}

func TestVBRWithCushionNoUnderflows(t *testing.T) {
	// Footnote 1: VBR = CBR + memory cushion. With the CushionFor prefetch
	// the CBR-sized schedule absorbs the rate variability.
	cfg := baseConfig(Direct, 50, 1*units.MBPS)
	cfg.VBRCoV = 0.3
	cfg.Duration = 30 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("VBR with cushion underflowed %d times (%v)", res.Underflows, res.UnderflowBytes)
	}
}

func TestVBRWithoutCushionUnderflows(t *testing.T) {
	// The same workload without the cushion must miss deadlines — that is
	// exactly why footnote 1 requires it.
	cfg := baseConfig(Direct, 50, 1*units.MBPS)
	cfg.VBRCoV = 0.3
	cfg.NoCushion = true
	cfg.Duration = 30 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows == 0 {
		t.Error("cushionless VBR met every deadline; the cushion would be unnecessary")
	}
}

func TestVBRDeterministic(t *testing.T) {
	cfg := baseConfig(Direct, 20, 1*units.MBPS)
	cfg.VBRCoV = 0.2
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.UnderflowBytes != b.UnderflowBytes || a.DRAMHighWater != b.DRAMHighWater {
		t.Error("VBR run not deterministic")
	}
}

func TestBestEffortUsesSpareBandwidth(t *testing.T) {
	// §3.1.2: spare bandwidth carries non-real-time traffic. The
	// best-effort reads must move real data without costing the real-time
	// streams a single deadline.
	cfg := baseConfig(Buffered, 100, 1*units.MBPS)
	cfg.BestEffort = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("best-effort traffic caused %d underflows", res.Underflows)
	}
	if res.BestEffortBytes <= 0 {
		t.Error("no best-effort data moved despite spare bandwidth")
	}
	// Compare with the same run without best-effort: identical real-time
	// behaviour, higher bank utilization.
	plain := baseConfig(Buffered, 100, 1*units.MBPS)
	base, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if base.BestEffortBytes != 0 {
		t.Error("baseline moved best-effort data")
	}
	if res.MEMSBusy <= base.MEMSBusy {
		t.Error("best-effort did not raise bank utilization")
	}
	if res.UnderflowBytes != base.UnderflowBytes {
		t.Error("real-time delivery changed")
	}
}

func TestBestEffortYieldsToRealTime(t *testing.T) {
	// Near the bank's bandwidth limit there is little spare capacity; the
	// low-priority queue must not disturb the real-time side.
	cfg := baseConfig(Buffered, 200, 1*units.MBPS)
	cfg.BestEffort = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("underflows = %d with best-effort at high load", res.Underflows)
	}
}

func TestHybridNoUnderflows(t *testing.T) {
	// §7 future work: part of the bank caches hot titles, the rest buffers
	// the misses' disk IOs. Both sides must deliver on time.
	cfg := baseConfig(Hybrid, 300, 100*units.KBPS)
	cfg.K = 4
	cfg.CacheDevices = 2
	cfg.Titles = 400
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("hybrid underflows = %d (%v)", res.Underflows, res.UnderflowBytes)
	}
	if res.FromCache == 0 || res.FromDisk == 0 {
		t.Errorf("split = %d cached / %d missed; want both active", res.FromCache, res.FromDisk)
	}
	if res.MEMSIOs == 0 || res.DiskIOs == 0 {
		t.Error("one side idle")
	}
	if res.Mode != Hybrid {
		t.Errorf("mode = %v", res.Mode)
	}
}

// Hybrid honours CachePolicy: a replicated cache side holds one copy of
// its titles per device, so it pins fewer titles than a striped one and
// serves fewer streams, still without an underflow on either side.
func TestHybridReplicatedCache(t *testing.T) {
	cfg := baseConfig(Hybrid, 300, 100*units.KBPS)
	cfg.K, cfg.CacheDevices, cfg.Titles = 4, 2, 400
	striped, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CachePolicy = model.Replicated
	replicated, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("from cache: striped %d, replicated %d", striped.FromCache, replicated.FromCache)
	if replicated.Underflows != 0 {
		t.Errorf("replicated hybrid underflows = %d (%v)", replicated.Underflows, replicated.UnderflowBytes)
	}
	if replicated.FromCache == 0 || replicated.FromCache == striped.FromCache {
		t.Errorf("replicated cache serves %d streams, striped %d; want a different, non-empty split",
			replicated.FromCache, striped.FromCache)
	}
}

func TestHybridValidatesSplit(t *testing.T) {
	cfg := baseConfig(Hybrid, 100, 100*units.KBPS)
	cfg.K = 4
	for _, cd := range []int{0, 4, 5} {
		cfg.CacheDevices = cd
		if _, err := Run(cfg); err == nil {
			t.Errorf("CacheDevices=%d accepted with K=4", cd)
		}
	}
}

func TestHybridModeString(t *testing.T) {
	if Hybrid.String() != "mems-hybrid" {
		t.Errorf("Hybrid = %q", Hybrid)
	}
}

func TestBufferedVBR(t *testing.T) {
	cfg := baseConfig(Buffered, 100, 1*units.MBPS)
	cfg.VBRCoV = 0.3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("buffered VBR with cushion underflowed %d times (%v)",
			res.Underflows, res.UnderflowBytes)
	}
	// Without the cushion the variability must bite.
	cfg.NoCushion = true
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Underflows == 0 {
		t.Error("cushionless buffered VBR met every deadline; cushion would be unnecessary")
	}
}

func TestInteractivePauseResume(t *testing.T) {
	// Interactive service ([21] in the paper's related work): paused
	// streams consume nothing and their IOs are skipped, reclaiming disk
	// bandwidth without costing active streams a deadline.
	base := baseConfig(Direct, 100, 1*units.MBPS)
	base.Duration = 60 * time.Second
	busy, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	paused := base
	paused.PausedFraction = 0.4
	res, err := Run(paused)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underflows != 0 {
		t.Errorf("interactive run underflowed %d times (%v)", res.Underflows, res.UnderflowBytes)
	}
	// ~40% of stream-time paused: noticeably fewer disk IOs than the
	// always-playing run.
	if res.DiskIOs >= busy.DiskIOs {
		t.Errorf("paused run did %d IOs, always-on did %d — no bandwidth reclaimed",
			res.DiskIOs, busy.DiskIOs)
	}
	if float64(res.DiskIOs) > 0.9*float64(busy.DiskIOs) {
		t.Errorf("reclaimed only %d of %d IOs at 40%% pause",
			busy.DiskIOs-res.DiskIOs, busy.DiskIOs)
	}
}

func TestInteractiveDeterministic(t *testing.T) {
	cfg := baseConfig(Direct, 30, 1*units.MBPS)
	cfg.PausedFraction = 0.3
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DiskIOs != b.DiskIOs || a.DRAMHighWater != b.DRAMHighWater {
		t.Error("interactive run not deterministic")
	}
}

func TestMarginP5Reported(t *testing.T) {
	res, err := Run(baseConfig(Direct, 50, 1*units.MBPS))
	if err != nil {
		t.Fatal(err)
	}
	// Planned schedules keep positive delivery margins.
	if res.MarginP5 <= 0 {
		t.Errorf("MarginP5 = %v, want positive", res.MarginP5)
	}
	// A near-edge run still has a (smaller) positive margin.
	edge := baseConfig(Direct, 23, 10*units.MBPS)
	eres, err := Run(edge)
	if err != nil {
		t.Fatal(err)
	}
	if eres.MarginP5 <= 0 {
		t.Errorf("edge MarginP5 = %v", eres.MarginP5)
	}
}
