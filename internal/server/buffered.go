package server

import (
	"fmt"
	"time"

	"memstream/internal/bank"
	"memstream/internal/device"
	"memstream/internal/model"
	"memstream/internal/sim"
	"memstream/internal/units"
)

// runBuffered simulates the disk→MEMS-bank→DRAM pipeline of §3.1 on the
// shared rig: the disk runs its own IO cycle writing large staged IOs
// into per-stream rings on the bank; each MEMS device interleaves those
// writes with the small DRAM-side reads of its streams every MEMS cycle
// (Figures 4 and 5). Two cycle stages drive it: the disk stage stages
// reads (and ships recorder slots), the MEMS stage drains staged slots
// toward DRAM and assembles recorder data.
func runBuffered(cfg Config) (Result, error) {
	r, err := newRig(cfg)
	if err != nil {
		return Result{}, err
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
		return Result{}, err
	}
	// Cap the disk cycle for simulation: Theorem 2 maximizes T_disk to the
	// capacity bound (hundreds of seconds); simulating a handful of such
	// cycles is fine analytically but we bound it to keep per-request IO
	// sizes inside one staging ring.
	plan.CapDiskCycle(20*time.Second, bcfg.Load)
	tDisk := plan.DiskCycle

	devs, err := bank.New(cfg.K, cfg.Tier)
	if err != nil {
		return Result{}, err
	}
	bb, err := bank.NewBufferBank(devs, plan.DiskIOSize)
	if err != nil {
		return Result{}, err
	}
	r.trackTier(devs...)

	tMems := plan.MEMSCycle
	// Playback lags the pipeline by four MEMS cycles: intra-cycle
	// completion jitter on a device's FIFO chain is bounded by about two
	// cycles (position within the read batch plus a queued stage write),
	// so four cycles of standing headroom keep every fill ahead of its
	// deadline.
	playStart := tDisk + 4*tMems
	blockSize := r.dsk.Geometry().BlockSize
	memsBlock := devs[0].Geometry().BlockSize
	diskBlocks := r.dsk.Geometry().Blocks
	isWriter := func(i int) bool { return i < cfg.Writers }
	for i, st := range r.set.Streams {
		start := playStart
		if isWriter(i) {
			start = sim.MaxTime / 2 // recorders never drain (no playback)
		}
		r.addPlayer(i, r.diskPos(st), start)
		if _, err := bb.Attach(i); err != nil {
			return Result{}, err
		}
	}
	// VBR playback for the readers (footnote 1): per-MEMS-cycle rate
	// profiles with the cushion prefetched before playback, exactly as in
	// the direct architecture.
	if err := r.shapeVBR(tMems, int(4*tDisk/tMems)+2, isWriter); err != nil {
		return Result{}, err
	}

	// Recorder state: bytes staged to MEMS so far and the peak DRAM a
	// writer held (produced minus staged).
	writerStaged := make([]units.Bytes, cfg.Writers)
	var writerPeak units.Bytes
	writerNote := func(i int, at time.Duration) {
		produced := units.BytesIn(cfg.BitRate, at)
		if occ := produced - writerStaged[i]; occ > writerPeak {
			writerPeak = occ
		}
	}

	diskCycles, end, _ := r.horizon(tDisk, 4, 3)

	diskIOBlocks := blocksFor(plan.DiskIOSize, blockSize)
	memsChains := make([]*chain, cfg.K)
	for i := range memsChains {
		memsChains[i] = r.newChain()
	}
	diskChain := r.newChain()
	r.observe("disk", r.dsk, diskChain)
	for i, d := range devs {
		r.observe(fmt.Sprintf("mems%d", i), d, memsChains[i])
	}

	// Chain-item handlers, one closure per item shape per run. bankIO is
	// the plain bank transfer (a staged write after a disk read, or a
	// recorder's write-back read feeding the in-flight disk write): it
	// only occupies the device.
	bankIO := func(it *chainItem, ws time.Duration) time.Duration {
		wc, err := bb.Device(int(it.dev)).Service(ws, it.req)
		if err != nil {
			return ws
		}
		return wc.Finish
	}
	// writerAppend lands one MEMS-cycle's recorder production in the slot
	// being assembled and tracks the writer's standing DRAM.
	writerAppend := func(it *chainItem, ws time.Duration) time.Duration {
		wc, err := bb.Device(int(it.dev)).Service(ws, it.req)
		if err != nil {
			return ws
		}
		writerNote(int(it.stream), wc.Finish)
		writerStaged[it.stream] += units.Bytes(wc.Blocks) * memsBlock
		return wc.Finish
	}
	// readerDrain moves one MEMS-cycle's piece of a staged slot into the
	// stream's DRAM buffer.
	readerDrain := func(it *chainItem, rs time.Duration) time.Duration {
		rc, err := bb.Device(int(it.dev)).Service(rs, it.req)
		if err != nil {
			return rs
		}
		i := int(it.stream)
		r.drainTo(i, rc.Finish)
		r.fill(i, units.Bytes(rc.Blocks)*memsBlock)
		return rc.Finish
	}
	// diskDispatch services one slot of a disk cycle's C-LOOK batch and,
	// for readers, stages the read bytes on the stream's MEMS device.
	diskDispatch := func(it *chainItem, start time.Duration) time.Duration {
		comp, ok, err := it.sched.Dispatch(start)
		r.putSched(it.sched)
		if err != nil || !ok {
			return start
		}
		stream := comp.Stream
		if isWriter(stream) {
			return comp.Finish // data already left the bank
		}
		wreq, dev, err := bb.StageRequest(stream, int64(it.parity), units.Bytes(comp.Blocks)*blockSize)
		if err != nil {
			return comp.Finish
		}
		memsChains[dev].submit(chainItem{fn: bankIO, req: wreq, dev: int32(dev)})
		return comp.Finish
	}

	// Disk side. Each disk cycle: readers get one large disk read that is
	// then staged on their MEMS device; writers get the reverse — the bank
	// reads back the slot their recorder assembled last cycle, and one
	// large disk write ships it to the platter.
	scheduleDiskCycle := func(c int64) {
		sched := r.getSched()
		ps := &r.ar.ps
		for i := 0; i < r.n; i++ {
			if isWriter(i) && c == 0 {
				continue // nothing assembled yet
			}
			blk := ps.pos[i]
			if blk+diskIOBlocks > diskBlocks {
				blk = 0
			}
			op := device.Read
			if isWriter(i) {
				// The assembled slot (parity c−1) is read back from MEMS
				// in per-MEMS-cycle pieces (scheduled below), streaming
				// concurrently with this large disk write.
				op = device.Write
			}
			sched.Enqueue(device.Request{
				Op: op, Block: blk, Blocks: diskIOBlocks,
				Stream: i, Issued: r.eng.Now(),
			})
			ps.pos[i] = (blk + diskIOBlocks) % diskBlocks
		}
		r.submitBatch(diskChain, chainItem{fn: diskDispatch, sched: sched, parity: int32(c & 1)})
	}

	// MEMS side: every MEMS cycle each stream receives one DRAM transfer
	// of B̄·T_mems, progressing through the slot its previous disk cycle
	// staged (DrainRequest(cycle) addresses the opposite-parity slot).
	drainBytes := units.BytesIn(cfg.BitRate, tMems)
	slotBlocks := blocksFor(plan.DiskIOSize, memsBlock)
	slotCycle := make([]int64, cfg.N)
	slotOff := make([]int64, cfg.N)
	// Writers additionally read back the previously assembled slot (the
	// second media pass feeding the disk write), tracked separately.
	wbCycle := make([]int64, cfg.Writers)
	wbOff := make([]int64, cfg.Writers)
	memsCycles := int64(end / tMems)

	// Best-effort traffic (§3.1.2): a few low-priority random reads per
	// device per MEMS cycle soak up whatever bandwidth the real-time
	// schedule leaves idle.
	var bestEffortBytes units.Bytes
	beRNG := r.rng.Split()
	const bePerCycle = 4
	beBlocks := blocksFor(256*units.KB, memsBlock)
	bestEffort := func(it *chainItem, bs time.Duration) time.Duration {
		if bs >= end {
			return bs // past the horizon; don't skew utilization
		}
		bc, err := devs[it.dev].Service(bs, it.req)
		if err != nil {
			return bs
		}
		bestEffortBytes += units.Bytes(bc.Blocks) * memsBlock
		return bc.Finish
	}
	scheduleBestEffort := func() {
		for dev := 0; dev < cfg.K; dev++ {
			for j := 0; j < bePerCycle; j++ {
				lbn := int64(beRNG.Float64() * float64(devs[dev].Geometry().Blocks-beBlocks))
				memsChains[dev].submitLow(chainItem{fn: bestEffort, dev: int32(dev), req: device.Request{
					Op: device.Read, Block: lbn, Blocks: beBlocks, Stream: -1,
				}})
			}
		}
	}
	scheduleMEMSCycle := func(int64) {
		now := r.eng.Now()
		diskCyc := int64(now / tDisk)
		for i := 0; i < r.n; i++ {
			if !isWriter(i) && diskCyc == 0 {
				continue // nothing staged for readers yet
			}
			if slotCycle[i] != diskCyc {
				slotCycle[i] = diskCyc
				slotOff[i] = 0
			}
			if slotOff[i] >= slotBlocks {
				continue // slot consumed; the next disk cycle refills it
			}
			if isWriter(i) {
				// Recorder: append this cycle's produced bytes into the
				// slot being assembled (parity diskCyc)...
				wreq, dev, err := bb.StageRequest(i, diskCyc, drainBytes)
				if err != nil {
					continue
				}
				wreq.Block += slotOff[i]
				if rem := slotBlocks - slotOff[i]; wreq.Blocks > rem {
					wreq.Blocks = rem
				}
				slotOff[i] += wreq.Blocks
				memsChains[dev].submit(chainItem{fn: writerAppend, req: wreq, dev: int32(dev), stream: int32(i)})
				// ...and stream one piece of the previously assembled slot
				// back out toward the in-flight disk write.
				if diskCyc >= 1 {
					if wbCycle[i] != diskCyc {
						wbCycle[i] = diskCyc
						wbOff[i] = 0
					}
					if wbOff[i] < slotBlocks {
						rreq, rdev, err := bb.DrainRequest(i, diskCyc, drainBytes)
						if err == nil {
							rreq.Block += wbOff[i]
							if rem := slotBlocks - wbOff[i]; rreq.Blocks > rem {
								rreq.Blocks = rem
							}
							wbOff[i] += rreq.Blocks
							memsChains[rdev].submit(chainItem{fn: bankIO, req: rreq, dev: int32(rdev)})
						}
					}
				}
				continue
			}
			rreq, dev, err := bb.DrainRequest(i, diskCyc, drainBytes)
			if err != nil {
				continue
			}
			rreq.Block += slotOff[i]
			if rem := slotBlocks - slotOff[i]; rreq.Blocks > rem {
				rreq.Blocks = rem
			}
			slotOff[i] += rreq.Blocks
			memsChains[dev].submit(chainItem{fn: readerDrain, req: rreq, dev: int32(dev), stream: int32(i)})
		}
	}

	r.cycleLoop("disk", tDisk, 0, diskCycles, scheduleDiskCycle)
	r.cycleLoop("mems", tMems, 1, memsCycles, func(m int64) {
		scheduleMEMSCycle(m)
		if cfg.BestEffort {
			scheduleBestEffort()
		}
	})
	r.finish(end)

	res := r.result(Buffered, end, diskCycles)
	res.PlannedDRAM = plan.TotalDRAM
	res.WriterPeakDRAM = writerPeak
	res.BestEffortBytes = bestEffortBytes
	res.FromDisk = cfg.N
	return res, nil
}
