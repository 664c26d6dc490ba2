package server

import (
	"time"

	"memstream/internal/bank"
	"memstream/internal/device"
	"memstream/internal/model"
	"memstream/internal/sim"
	"memstream/internal/units"
)

// bufferedRun is the assembled buffered-mode simulation: the rig, the
// Theorem 2 plan, the resolved horizon and the cycle stages. It is
// factored out of runBuffered so the cycle-walk benchmark can drive the
// stages directly, as newDirect does for the direct mode.
type bufferedRun struct {
	r          *rig
	plan       model.BufferedPlan
	pipe       *bufferPipe
	diskCycles int64
	memsCycles int64
	end        time.Duration

	// memsStage is one MEMS cycle: every stream's real-time transfer of
	// B̄·T_mems (the pipe's tier drain), then — when Config.BestEffort is
	// set — bestEffort queues the cycle's low-priority reads.
	memsStage       func(m int64)
	bestEffort      func()
	bestEffortBytes units.Bytes
}

// newBuffered builds the disk→MEMS-bank→DRAM pipeline of §3.1 on the
// shared rig: the disk runs its own IO cycle writing large staged IOs
// into per-stream rings on the bank; each MEMS device interleaves those
// writes with the small DRAM-side reads of its streams every MEMS cycle
// (Figures 4 and 5). The rig's bufferPipe supplies both cycle stages: the
// disk stage stages reads (and ships recorder slots), the tier drain moves
// staged slots toward DRAM and assembles recorder data.
func newBuffered(cfg Config) (*bufferedRun, error) {
	r, err := newRig(cfg)
	if err != nil {
		return nil, err
	}
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
	all := make([]int, cfg.N)
	for i, st := range r.set.Streams {
		start := playStart
		if isWriter(i) {
			start = sim.MaxTime / 2 // recorders never drain (no playback)
		}
		r.addPlayer(i, r.diskPos(st), start)
		all[i] = i
	}
	pipe, err := r.newBufferPipe(bb, plan, all, cfg.Writers)
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
	b := &bufferedRun{
		r: r, plan: plan, pipe: pipe,
		diskCycles: diskCycles, memsCycles: int64(end / tMems), end: end,
	}

	// Best-effort traffic (§3.1.2): a few low-priority random reads per
	// device per MEMS cycle soak up whatever bandwidth the real-time
	// schedule leaves idle.
	beRNG := r.rng.Split()
	const bePerCycle = 4
	memsBlock := devs[0].Geometry().BlockSize
	beBlocks := blocksFor(256*units.KB, memsBlock)
	beRead := func(it *chainItem, bs time.Duration) time.Duration {
		if bs >= end {
			return bs // past the horizon; don't skew utilization
		}
		bc, err := pipe.devs[it.dev].Service(bs, it.req)
		if err != nil {
			return bs
		}
		b.bestEffortBytes += units.Bytes(bc.Blocks) * memsBlock
		return bc.Finish
	}
	b.bestEffort = func() {
		for dev := 0; dev < cfg.K; dev++ {
			for j := 0; j < bePerCycle; j++ {
				lbn := int64(beRNG.Float64() * float64(devs[dev].Geometry().Blocks-beBlocks))
				pipe.bank[dev].submitLow(chainItem{fn: beRead, dev: int32(dev), req: device.Request{
					Op: device.Read, Block: lbn, Blocks: beBlocks, Stream: -1,
				}})
			}
		}
	}
	b.memsStage = func(m int64) {
		pipe.tierDrain(m)
		if cfg.BestEffort {
			b.bestEffort()
		}
	}
	return b, nil
}

// run plays the assembled simulation to its horizon.
func (b *bufferedRun) run() Result {
	b.r.cycleLoop("disk", b.plan.DiskCycle, 0, b.diskCycles, b.pipe.diskStage)
	b.r.cycleLoop("mems", b.plan.MEMSCycle, 1, b.memsCycles, b.memsStage)
	b.r.finish(b.end)

	res := b.r.result(Buffered, b.end, b.diskCycles)
	res.PlannedDRAM = b.plan.TotalDRAM
	res.WriterPeakDRAM = b.pipe.writerPeak
	res.BestEffortBytes = b.bestEffortBytes
	res.FromDisk = b.r.cfg.N
	return res
}

// runBuffered simulates the disk→MEMS-bank→DRAM pipeline.
func runBuffered(cfg Config) (Result, error) {
	b, err := newBuffered(cfg)
	if err != nil {
		return Result{}, err
	}
	return b.run(), nil
}
