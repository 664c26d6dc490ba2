package server

import (
	"fmt"
	"time"

	"memstream/internal/bank"
	"memstream/internal/model"
	"memstream/internal/tier"
	"memstream/internal/units"
)

// A time-cycle mode is an optional cache side plus one disk side:
//
//	mode      cache side (Theorem 3/4)   disk side, over the streams the cache does not pin
//	direct    —                          Theorem 1 direct reads (diskRead)
//	buffered  —                          Theorem 2 bufferPipe on all K devices
//	cached    all K devices              Theorem 1 direct reads
//	hybrid    CacheDevices of the K      Theorem 2 bufferPipe on the other K − CacheDevices
//
// The cache side pins the catalog's most popular titles on a striped or
// replicated bank (Config.CachePolicy) and reads them on its own cycle
// (cacheRead); the §7 hybrid is the two building blocks side by side.

// The simulation's choices on top of the model, each made once.
const (
	// diskCycleCap bounds Theorem 2's disk cycle. The model stretches
	// T_disk to the capacity bound (hundreds of seconds): fine
	// analytically, but the cap keeps each disk IO inside one staging
	// ring.
	diskCycleCap = 20 * time.Second
	// playLag is how many MEMS cycles a pipe's playback trails its first
	// disk cycle. Intra-cycle completion jitter on a device's FIFO chain
	// is bounded by about two cycles (position within the read batch plus
	// a queued stage write), so four cycles of standing headroom keep
	// every fill ahead of its deadline.
	playLag = 4

	// Default horizons (Config.Duration 0) in disk cycles, and the floor
	// a shorter Duration is raised to; a disk-led run is whole cycles.
	// Direct playback starts one cycle in, so two cycles are the least
	// that play anything; EDF runs the same ten cycles, unquantised.
	directCycles, directMinCycles = 10, 2
	// A pipe's playback and a recorder's first write-back start in disk
	// cycle 1, so three cycles hold one steady cycle after both.
	bufferedCycles, bufferedMinCycles = 4, 3
	// Hybrid defaults to the pipe's floor, keeping the hybrid
	// experiment's ten runs short.
	hybridCycles, hybridMinCycles = 3, 3
	// Cached runs ten cycles of its slower side, unquantised: its two
	// sides' cycles are unrelated. A shorter Duration is floored at two
	// of them, the least every stage runs.
	cachedCycles, cachedMinCycles = 10, 2
)

// newCycleRun builds cfg's time-cycle run: the cache side when the mode
// has one, then the disk side over the streams it does not pin. The
// stages list disk, mems, cache — the order their chains, probe
// instruments and sequence numbers are drawn in.
func newCycleRun(cfg Config) (*cycleRun, error) {
	r, err := newRig(cfg)
	if err != nil {
		return nil, err
	}
	m := &cycleRun{r: r}
	cacheK := cfg.CacheDevices // Hybrid's share; validate keeps it 0 elsewhere
	if cfg.Mode == Cached {
		cacheK = cfg.K
	}
	cache := cacheSide{split: cacheSplit{missed: r.allStreams()}}
	if cacheK > 0 {
		if cache, err = r.newCacheSide(cacheK); err != nil {
			return nil, err
		}
	}
	s := cache.split

	var diskCycle, missStart, tMems time.Duration
	var diskDRAM units.Bytes
	switch {
	case cfg.Mode == Buffered || cfg.Mode == Hybrid:
		if len(s.missed) == 0 {
			return nil, fmt.Errorf("server: hybrid run has no cache misses; use Cached mode")
		}
		p, plan, err := r.newPipe(s.missed, cfg.K-cacheK)
		if err != nil {
			return nil, err
		}
		m.pipe, m.disk = p, p.disk
		diskCycle, tMems, diskDRAM = plan.DiskCycle, plan.MEMSCycle, plan.TotalDRAM
		missStart = diskCycle + playLag*tMems
	case len(s.missed) > 0:
		plan, err := model.DiskDirect(model.StreamLoad{N: len(s.missed), BitRate: r.rate}, diskSpec(r.dsk))
		if err != nil {
			return nil, err
		}
		m.disk = r.newDiskRead(s.missed, plan.IOSize)
		diskCycle, missStart, diskDRAM = plan.Cycle, plan.Cycle, plan.TotalDRAM
	}
	m.planned = cache.plan.TotalDRAM + diskDRAM
	s.place(r, cache.plan.Cycle, missStart, cfg.Writers)

	var cycles int64
	var raw time.Duration
	switch cfg.Mode {
	case Direct:
		cycles, m.end, raw = r.horizon(diskCycle, directCycles, directMinCycles)
	case Buffered:
		_, m.end, _ = r.horizon(diskCycle, bufferedCycles, bufferedMinCycles)
	case Hybrid:
		_, m.end, _ = r.horizon(diskCycle, hybridCycles, hybridMinCycles)
	case Cached:
		slow := max(cache.plan.Cycle, diskCycle)
		m.end = max(r.span(cachedCycles*slow), cachedMinCycles*slow)
	}

	// Playback shaping, which validate allows on the direct and buffered
	// disk sides only: pauses, then VBR with its cushion (footnote 1) —
	// per disk cycle on direct reads over the run's cycles; per MEMS cycle
	// behind a pipe over the default buffered horizon (a trace repeats
	// past its span), skipping recorders, which never play back.
	if m.pipe != nil {
		r.shapeVBR(tMems, int(bufferedCycles*diskCycle/tMems)+2, func(i int) bool { return i < cfg.Writers })
	} else {
		r.shapeInteractive(diskCycle, raw)
		r.shapeVBR(diskCycle, int(cycles)+2, nil)
	}

	if m.disk != nil {
		m.addStage("disk", diskCycle, m.disk.stage)
	}
	if p := m.pipe; p != nil {
		mems := p.tierDrain
		if cfg.BestEffort {
			be := &bestEffort{pipe: p, rng: r.rng.Split(), end: m.end, blocks: blocksFor(256*units.KB, p.block)}
			be.readFn = be.runRead
			m.bestEffort = be
			mems = func(c int64) {
				p.tierDrain(c)
				be.queue()
			}
		}
		m.stages = append(m.stages, stage{"mems", tMems, 1, int64(m.end / tMems), mems})
	}
	if cache.cb != nil {
		m.addCache(cache.cb, cache.devs, s, cache.plan.IOSize, cache.plan.Cycle)
	}
	// Result.Cycles: the disk's rounds where a pipe leads, else the
	// busiest stage's.
	for _, st := range m.stages {
		m.cycles = max(m.cycles, st.n)
	}
	if m.pipe != nil {
		m.cycles = m.stages[0].n
	}
	return m, nil
}

// cacheSide is a mode's cache bank: its devices, the split by what it
// pins, and the Theorem 3 (striped) or 4 (replicated) plan its reads run
// on — zero when it pins nobody's title.
type cacheSide struct {
	cb    bank.CacheBank
	devs  []tier.Device
	split cacheSplit
	plan  model.DirectPlan
}

// newCacheSide pins the catalog's most popular titles on k bank devices
// under Config.CachePolicy.
func (r *rig) newCacheSide(k int) (cacheSide, error) {
	devs, err := bank.New(k, r.cfg.Tier)
	if err != nil {
		return cacheSide{}, err
	}
	c := cacheSide{devs: devs}
	planFor := model.StripedCache
	if r.cfg.CachePolicy == model.Striped {
		c.cb, err = bank.NewStripedBank(devs)
	} else {
		c.cb, err = bank.NewReplicatedBank(devs)
		planFor = model.ReplicatedCache
	}
	if err != nil {
		return cacheSide{}, err
	}
	r.trackTier(devs...)
	if c.split, err = r.splitByCache(c.cb, devs); err != nil {
		return cacheSide{}, err
	}
	if n := len(c.split.cached); n > 0 {
		c.plan, err = planFor(n, k, r.rate, tierSpec(r.cfg.Tier))
	}
	return c, err
}

// newPipe is the Theorem 2 set-up: it plans streams' pipeline on k bank
// devices, caps the disk cycle, and attaches the streams — the first
// Config.Writers of them recorders — to a buffer bank whose slots hold
// one disk IO.
func (r *rig) newPipe(streams []int, k int) (*bufferPipe, model.BufferedPlan, error) {
	load := model.StreamLoad{N: len(streams), BitRate: r.rate}
	plan, err := model.BufferPlan(model.BufferConfig{
		Load: load, Disk: diskSpec(r.dsk), Tier: tierSpec(r.cfg.Tier),
		K: k, SizePerDevice: r.cfg.Tier.Capacity,
	})
	if err != nil {
		return nil, plan, err
	}
	plan.CapDiskCycle(diskCycleCap, load)
	devs, err := bank.New(k, r.cfg.Tier)
	if err != nil {
		return nil, plan, err
	}
	bb, err := bank.NewBufferBank(devs, plan.DiskIOSize)
	if err != nil {
		return nil, plan, err
	}
	r.trackTier(devs...)
	p, err := r.newBufferPipe(bb, plan, streams, r.cfg.Writers)
	return p, plan, err
}
