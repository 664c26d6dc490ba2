package server

import (
	"fmt"
	"time"

	"memstream/internal/bank"
	"memstream/internal/cache"
	"memstream/internal/device"
	"memstream/internal/disk"
	"memstream/internal/tier"
	"memstream/internal/units"
)

// A time-cycle mode is a list of cycle stages built from three shared
// objects: diskRead (the disk's C-LOOK batch, below), bufferPipe's tier
// drain (pipe.go) and cacheRead (the cache bank's reads, below). A driver
// builds its devices and plans, places its players and lists its stages;
// cycleRun.run registers them, drains and assembles the Result.
//
//	mode     stages
//	direct   disk (diskRead over every stream)
//	buffered disk (the pipe's diskRead), mems (tierDrain + best effort)
//	cached   disk (diskRead over the misses), cache (cacheRead)
//	hybrid   disk (the pipe's diskRead over the misses), mems, cache
//
// Stages register in list order, and each cycleLoop draws its sequence
// numbers at registration, so the order fixes every tie at a shared
// instant.

// stage is one periodic scheduling stage: fn runs once per cycle c ∈
// [first, first+n) at time c·period, sampled by the probe as source.
type stage struct {
	source   string
	period   time.Duration
	first, n int64
	fn       func(c int64)
}

// cycleRun is an assembled time-cycle run: its stages, its horizon and
// the stage objects the Result reads back.
type cycleRun struct {
	r       *rig
	stages  []stage
	end     time.Duration
	cycles  int64       // Result.Cycles: the dominant loop's rounds
	planned units.Bytes // the model's DRAM prediction

	disk       *diskRead   // the disk-side stage (nil when every stream hits the cache)
	cache      *cacheRead  // nil when the cache pins nobody's title
	pipe       *bufferPipe // Buffered and Hybrid
	bestEffort *bestEffort // Buffered with Config.BestEffort
}

// newCycleRun assembles a time-cycle run of cfg's mode.
func newCycleRun(cfg Config) (*cycleRun, error) {
	r, err := newRig(cfg)
	if err != nil {
		return nil, err
	}
	switch cfg.Mode {
	case Direct:
		return r.direct()
	case Buffered:
		return r.buffered()
	case Cached:
		return r.cached()
	case Hybrid:
		return r.hybrid()
	}
	return nil, fmt.Errorf("server: unknown mode %v", cfg.Mode)
}

// run plays the stages to the horizon and assembles the Result.
func (m *cycleRun) run() Result {
	for _, s := range m.stages {
		m.r.cycleLoop(s.source, s.period, s.first, s.n, s.fn)
	}
	m.r.finish(m.end)
	res := m.r.result(m.r.cfg.Mode, m.end, m.cycles)
	res.PlannedDRAM = m.planned
	if m.disk != nil {
		res.FromDisk = len(m.disk.streams)
	}
	if m.cache != nil {
		res.FromCache = len(m.cache.streams)
	}
	if m.pipe != nil {
		res.WriterPeakDRAM = m.pipe.writerPeak
	}
	if m.bestEffort != nil {
		res.BestEffortBytes = m.bestEffort.bytes
	}
	return res
}

// addStage lists a stage of cycle period that runs through the horizon,
// at least twice.
func (m *cycleRun) addStage(source string, period time.Duration, fn func(int64)) {
	m.stages = append(m.stages, stage{source, period, 0, max(int64(m.end/period), 2), fn})
}

// diskRead is the disk's C-LOOK stage: once per disk cycle every listed
// stream's next IO is queued into a C-LOOK scheduler, and one counted item
// on the disk chain dispatches the batch in sweep order. Schedulers are
// pooled in the arena: a cycle borrows one and the dispatch that empties
// it returns it, so consecutive cycles whose batches overlap in time each
// hold their own while an idle run recycles a single one. By default a
// completion fills its stream's DRAM buffer; bufferPipe swaps in a
// dispatch that stages the data on the bank. The first writers streams
// record: their IO is a write, from the second cycle on. Under
// interactive playback (Config.PausedFraction) a stream already holding
// two IOs of data is skipped — two, because a resumed stream's next fill
// can be almost a full cycle away. The reclaimed slots are the bandwidth
// interactive servers redistribute.
type diskRead struct {
	r        *rig
	chain    *chain
	streams  []int // ascending player indices
	writers  int
	ioSize   units.Bytes
	ioBlocks int64       // disk blocks per IO
	block    units.Bytes // disk block size

	// dispatchFn is the batch item's handler, bound once so a cycle
	// allocates nothing.
	dispatchFn func(it *chainItem, start time.Duration) time.Duration
}

// newDiskRead builds the disk stage over streams with IOs of ioSize.
func (r *rig) newDiskRead(streams []int, ioSize units.Bytes) *diskRead {
	g := r.dsk.Geometry()
	d := &diskRead{
		r: r, chain: r.newChain(), streams: streams,
		ioSize: ioSize, ioBlocks: blocksFor(ioSize, g.BlockSize), block: g.BlockSize,
	}
	r.observe("disk", r.dsk, d.chain)
	d.dispatchFn = d.runFill
	return d
}

// stage queues disk cycle c.
func (d *diskRead) stage(c int64) {
	r := d.r
	sched := r.ar.getSched(r.dsk)
	ps := &r.ar.ps
	diskBlocks := r.dsk.Geometry().Blocks
	paused := r.cfg.PausedFraction > 0
	for n, i := range d.streams {
		op := device.Read
		if n < d.writers {
			if c == 0 {
				continue // nothing assembled yet
			}
			op = device.Write
		}
		if paused {
			r.drainTo(i, r.eng.Now())
			if ps.level[i] >= 2*d.ioSize {
				continue
			}
		}
		blk := ps.pos[i]
		if blk+d.ioBlocks > diskBlocks {
			blk = 0
		}
		sched.Enqueue(device.Request{
			Op: op, Block: blk, Blocks: d.ioBlocks,
			Stream: i, Issued: r.eng.Now(),
		})
		ps.pos[i] = (blk + d.ioBlocks) % diskBlocks
	}
	if sched.Len() == 0 {
		r.ar.putSched(sched)
		return
	}
	d.chain.submit(chainItem{fn: d.dispatchFn, sched: sched, parity: int32(c & 1), repeat: int32(sched.Len())})
}

// release returns a dispatched batch's scheduler to the pool once empty.
func (d *diskRead) release(s *disk.Scheduler) {
	if s.Len() == 0 {
		d.r.ar.putSched(s)
	}
}

// runFill services one slot of the batch — the scheduler's best pending
// request at start — and fills the read stream's buffer.
func (d *diskRead) runFill(it *chainItem, start time.Duration) time.Duration {
	comp, ok, err := it.sched.Dispatch(start)
	d.release(it.sched)
	if err != nil || !ok {
		return start
	}
	d.r.drainTo(comp.Stream, comp.Finish)
	d.r.fill(comp.Stream, units.Bytes(comp.Blocks)*d.block)
	return comp.Finish
}

// cacheSplit is the population split by what a cache bank pins: the
// players whose titles it holds (assigned to the bank) and the rest. The
// pinned image and every cached position are in bank blocks.
type cacheSplit struct {
	cached, missed []int       // ascending player indices
	block          units.Bytes // the bank's
	imageBlocks    int64       // the pinned image's length
}

// splitByCache fills cb with the catalog's most popular titles
// (cache.Plan), assigns the players whose titles it pins, and lists both
// sides. devs are cb's devices.
func (r *rig) splitByCache(cb bank.CacheBank, devs []tier.Device) (cacheSplit, error) {
	placement, err := cache.Plan(r.cat, cb.Capacity())
	if err != nil {
		return cacheSplit{}, err
	}
	block := devs[0].Geometry().BlockSize
	s := cacheSplit{block: block, imageBlocks: blocksFor(placement.Used, block)}
	for i, st := range r.set.Streams {
		if !placement.Contains(st.Title.ID) {
			s.missed = append(s.missed, i)
			continue
		}
		if err := cb.Assign(i); err != nil {
			return cacheSplit{}, err
		}
		s.cached = append(s.cached, i)
	}
	return s, nil
}

// place installs the players: cached ones at their offset into the bank
// image, playing from cacheStart; the rest at their disk position,
// playing from missStart.
func (s cacheSplit) place(r *rig, cacheStart, missStart time.Duration) {
	for _, i := range s.cached {
		r.addPlayer(i, int64(r.set.Streams[i].Offset/s.block)%s.imageBlocks, cacheStart)
	}
	for _, i := range s.missed {
		r.addPlayer(i, r.diskPos(r.set.Streams[i]), missStart)
	}
}

// cacheRead is the cache bank's read stage: once per cache cycle every
// cached stream reads its next IO from the pinned image, wrapping at the
// image's end, and the fill lands in its DRAM buffer. A striped bank
// moves in lock-step, so one chain serializes it; a replicated bank runs
// its devices independently, one chain each (that parallelism is exactly
// Corollary 4's latency advantage).
type cacheRead struct {
	r           *rig
	cb          bank.CacheBank
	streams     []int
	lanes       []*chain    // per stream, the chain its reads queue on
	ioSize      units.Bytes // each read's fill
	ioBlocks    int64       // bank blocks per read
	imageBlocks int64

	readFn func(it *chainItem, start time.Duration) time.Duration
}

// addCache builds cb's read stage over s's cached streams, with IOs of
// ioSize every period, and lists it; a no-op when the cache pins nobody's
// title. devs are cb's devices.
func (m *cycleRun) addCache(cb bank.CacheBank, devs []tier.Device, s cacheSplit, ioSize units.Bytes, period time.Duration) {
	if len(s.cached) == 0 {
		return
	}
	r := m.r
	c := &cacheRead{
		r: r, cb: cb, streams: s.cached, lanes: make([]*chain, len(s.cached)),
		ioSize: ioSize, ioBlocks: blocksFor(ioSize, s.block), imageBlocks: s.imageBlocks,
	}
	rb, replicated := cb.(*bank.ReplicatedBank)
	chains := make([]*chain, 1)
	if replicated {
		chains = make([]*chain, len(devs))
	}
	for i := range chains {
		chains[i] = r.newChain()
	}
	for i, d := range devs { // a striped bank's devices all report its one chain
		r.observe(fmt.Sprintf("cache%d", i), d, chains[min(i, len(chains)-1)])
	}
	for n, i := range s.cached {
		dev := 0
		if replicated {
			dev, _ = rb.DeviceOf(i)
		}
		c.lanes[n] = chains[dev]
	}
	c.readFn = c.runRead
	m.cache = c
	m.addStage("cache", period, c.stage)
}

// stage queues one cache cycle.
func (c *cacheRead) stage(int64) {
	ps := &c.r.ar.ps
	for n, i := range c.streams {
		blk := ps.pos[i]
		if blk+c.ioBlocks > c.imageBlocks {
			blk = 0
		}
		ps.pos[i] = (blk + c.ioBlocks) % c.imageBlocks
		c.lanes[n].submit(chainItem{fn: c.readFn, stream: int32(i), req: device.Request{Block: blk}})
	}
}

// runRead services one stream's read and fills its buffer.
func (c *cacheRead) runRead(it *chainItem, start time.Duration) time.Duration {
	i := int(it.stream)
	comp, err := c.cb.Read(start, i, it.req.Block, c.ioBlocks)
	if err != nil {
		return start
	}
	c.r.drainTo(i, comp.Finish)
	c.r.fill(i, c.ioSize)
	c.r.cacheFills++ // the probe's cache-hit deltas
	c.r.cacheFillBytes += c.ioSize
	return comp.Finish
}

// allStreams lists every player, ascending. The list lives in the arena
// and is read-only, so runs sharing an arena share it.
func (r *rig) allStreams() []int {
	for i := len(r.ar.all); i < r.n; i++ {
		r.ar.all = append(r.ar.all, i)
	}
	return r.ar.all[:r.n]
}
