package server

import (
	"time"

	"memstream/internal/bank"
	"memstream/internal/device"
	"memstream/internal/model"
	"memstream/internal/sim"
	"memstream/internal/units"
)

// buffered builds the disk→MEMS-bank→DRAM pipeline of §3.1: the disk
// runs its own IO cycle writing large staged IOs into per-stream rings on
// the bank; each MEMS device interleaves those writes with the small
// DRAM-side reads of its streams every MEMS cycle (Figures 4 and 5). The
// rig's bufferPipe supplies both cycle stages: the disk stage stages
// reads (and ships recorder slots), the tier drain moves staged slots
// toward DRAM and assembles recorder data.
func (r *rig) buffered() (*cycleRun, error) {
	cfg := r.cfg
	bcfg := model.BufferConfig{
		Load:          model.StreamLoad{N: cfg.N, BitRate: cfg.BitRate},
		Disk:          diskSpec(r.dsk),
		Tier:          tierSpec(cfg.Tier),
		K:             cfg.K,
		SizePerDevice: cfg.Tier.Capacity,
	}
	plan, err := model.BufferPlan(bcfg)
	if err != nil {
		return nil, err
	}
	// Cap the disk cycle for simulation: Theorem 2 maximizes T_disk to the
	// capacity bound (hundreds of seconds); simulating a handful of such
	// cycles is fine analytically but we bound it to keep per-request IO
	// sizes inside one staging ring.
	plan.CapDiskCycle(20*time.Second, bcfg.Load)
	tDisk, tMems := plan.DiskCycle, plan.MEMSCycle

	devs, err := bank.New(cfg.K, cfg.Tier)
	if err != nil {
		return nil, err
	}
	bb, err := bank.NewBufferBank(devs, plan.DiskIOSize)
	if err != nil {
		return nil, err
	}
	r.trackTier(devs...)

	// Playback lags the pipeline by four MEMS cycles: intra-cycle
	// completion jitter on a device's FIFO chain is bounded by about two
	// cycles (position within the read batch plus a queued stage write),
	// so four cycles of standing headroom keep every fill ahead of its
	// deadline.
	playStart := tDisk + 4*tMems
	isWriter := func(i int) bool { return i < cfg.Writers }
	for i, st := range r.set.Streams {
		start := playStart
		if isWriter(i) {
			start = sim.MaxTime / 2 // recorders never drain (no playback)
		}
		r.addPlayer(i, r.diskPos(st), start)
	}
	pipe, err := r.newBufferPipe(bb, plan, r.allStreams(), cfg.Writers)
	if err != nil {
		return nil, err
	}
	// VBR playback for the readers (footnote 1): per-MEMS-cycle rate
	// profiles with the cushion prefetched before playback, exactly as in
	// the direct architecture.
	if err := r.shapeVBR(tMems, int(4*tDisk/tMems)+2, isWriter); err != nil {
		return nil, err
	}

	diskCycles, end, _ := r.horizon(tDisk, 4, 3)
	m := &cycleRun{r: r, end: end, cycles: diskCycles, planned: plan.TotalDRAM, disk: pipe.disk, pipe: pipe}
	mems := pipe.tierDrain
	if cfg.BestEffort {
		be := &bestEffort{pipe: pipe, rng: r.rng.Split(), end: end, blocks: blocksFor(256*units.KB, pipe.block)}
		be.readFn = be.runRead
		m.bestEffort = be
		mems = func(c int64) {
			pipe.tierDrain(c)
			be.queue()
		}
	}
	m.stages = []stage{
		{"disk", tDisk, 0, diskCycles, pipe.disk.stage},
		{"mems", tMems, 1, int64(end / tMems), mems},
	}
	return m, nil
}

// bestEffort is §3.1.2's non-real-time traffic: a few low-priority random
// reads per device per MEMS cycle soak up whatever bandwidth the
// real-time schedule leaves idle, and bytes counts what they moved.
type bestEffort struct {
	pipe   *bufferPipe
	rng    *sim.RNG
	end    time.Duration
	blocks int64 // bank blocks per read
	bytes  units.Bytes
	readFn func(it *chainItem, start time.Duration) time.Duration
}

// queue submits one MEMS cycle's best-effort reads.
func (b *bestEffort) queue() {
	const perCycle = 4
	for dev, d := range b.pipe.devs {
		for j := 0; j < perCycle; j++ {
			lbn := int64(b.rng.Float64() * float64(d.Geometry().Blocks-b.blocks))
			b.pipe.bank[dev].submitLow(chainItem{fn: b.readFn, dev: int32(dev), req: device.Request{
				Op: device.Read, Block: lbn, Blocks: b.blocks, Stream: -1,
			}})
		}
	}
}

// runRead services one best-effort read on its device and counts its bytes.
func (b *bestEffort) runRead(it *chainItem, bs time.Duration) time.Duration {
	if bs >= b.end {
		return bs // past the horizon; don't skew utilization
	}
	bc, err := b.pipe.devs[it.dev].Service(bs, it.req)
	if err != nil {
		return bs
	}
	b.bytes += units.Bytes(bc.Blocks) * b.pipe.block
	return bc.Finish
}
