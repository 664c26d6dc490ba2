package server

import (
	"fmt"
	"time"

	"memstream/internal/bank"
	"memstream/internal/cache"
	"memstream/internal/device"
	"memstream/internal/model"
	"memstream/internal/units"
)

// runCached simulates the MEMS-cache architecture of §3.2 on the shared
// rig: popular titles are pinned on the bank (striped or replicated);
// streams whose title is pinned run on the cache's own IO cycle, the rest
// on the disk's. Two independent cycle stages drive the two sides.
func runCached(cfg Config) (Result, error) {
	r, err := newRig(cfg)
	if err != nil {
		return Result{}, err
	}
	devs, err := bank.New(cfg.K, cfg.Tier)
	if err != nil {
		return Result{}, err
	}
	var cb bank.CacheBank
	if cfg.CachePolicy == model.Striped {
		cb, err = bank.NewStripedBank(devs)
	} else {
		cb, err = bank.NewReplicatedBank(devs)
	}
	if err != nil {
		return Result{}, err
	}
	r.trackTier(devs...)
	placement, err := cache.Plan(r.cat, cb.Capacity())
	if err != nil {
		return Result{}, err
	}

	// Split the population by placement.
	var cachedIDs, diskIDs []int
	for i, st := range r.set.Streams {
		if placement.Contains(st.Title.ID) {
			cachedIDs = append(cachedIDs, i)
		} else {
			diskIDs = append(diskIDs, i)
		}
	}

	// Per-side plans.
	var cachePlan, diskPlan model.DirectPlan
	if len(cachedIDs) > 0 {
		if cfg.CachePolicy == model.Striped {
			cachePlan, err = model.StripedCache(len(cachedIDs), cfg.K, cfg.BitRate, tierSpec(cfg.Tier))
		} else {
			cachePlan, err = model.ReplicatedCache(len(cachedIDs), cfg.K, cfg.BitRate, tierSpec(cfg.Tier))
		}
		if err != nil {
			return Result{}, err
		}
	}
	if len(diskIDs) > 0 {
		diskPlan, err = model.DiskDirect(
			model.StreamLoad{N: len(diskIDs), BitRate: cfg.BitRate}, diskSpec(r.dsk))
		if err != nil {
			return Result{}, err
		}
	}

	blockSize := r.dsk.Geometry().BlockSize
	diskBlocks := r.dsk.Geometry().Blocks
	imageBlocks := blocksFor(placement.Used, blockSize)
	for i, st := range r.set.Streams {
		pos := (st.Title.StartLB + int64(st.Offset/blockSize)) % diskBlocks
		startAt := diskPlan.Cycle
		if placement.Contains(st.Title.ID) {
			pos = int64(st.Offset/blockSize) % max(imageBlocks, 1)
			startAt = cachePlan.Cycle
		}
		r.addPlayer(i, pos, startAt)
		if placement.Contains(st.Title.ID) {
			if err := cb.Assign(i); err != nil {
				return Result{}, err
			}
		}
	}

	// Simulation horizon: enough cycles of the slower side.
	longest := cachePlan.Cycle
	if diskPlan.Cycle > longest {
		longest = diskPlan.Cycle
	}
	end := r.span(10 * longest)
	// Cycles reports the busier side's scheduling rounds.
	var cycles int64

	// Disk side, as in Direct mode.
	if len(diskIDs) > 0 {
		diskChain := r.newChain()
		r.observe("disk", r.dsk, diskChain)
		ioBlocks := blocksFor(diskPlan.IOSize, blockSize)
		diskCycles := int64(end / diskPlan.Cycle)
		if diskCycles < 2 {
			diskCycles = 2
		}
		cycles = max(cycles, diskCycles)
		dispatch := func(it *chainItem, start time.Duration) time.Duration {
			comp, ok, err := it.sched.Dispatch(start)
			r.putSched(it.sched)
			if err != nil || !ok {
				return start
			}
			i := comp.Stream
			r.drainTo(i, comp.Finish)
			r.fill(i, units.Bytes(comp.Blocks)*blockSize)
			return comp.Finish
		}
		scheduleCycle := func(int64) {
			sched := r.getSched()
			ps := &r.ar.ps
			for _, i := range diskIDs {
				blk := ps.pos[i]
				if blk+ioBlocks > diskBlocks {
					blk = 0
				}
				sched.Enqueue(device.Request{
					Op: device.Read, Block: blk, Blocks: ioBlocks,
					Stream: i, Issued: r.eng.Now(),
				})
				ps.pos[i] = (blk + ioBlocks) % diskBlocks
			}
			r.submitBatch(diskChain, chainItem{fn: dispatch, sched: sched})
		}
		r.cycleLoop("disk", diskPlan.Cycle, 0, diskCycles, scheduleCycle)
	}

	// Cache side. The striped bank moves in lock-step, so one chain
	// serializes the whole bank; the replicated bank runs its k devices
	// independently, so each gets its own chain (that parallelism is
	// exactly Corollary 4's latency advantage).
	if len(cachedIDs) > 0 {
		rb, replicated := cb.(*bank.ReplicatedBank)
		n := 1
		if replicated {
			n = cfg.K
		}
		chains := make([]*chain, n)
		for i := range chains {
			chains[i] = r.newChain()
		}
		chainOf := func(int) *chain { return chains[0] }
		if replicated {
			chainOf = func(stream int) *chain {
				dev, _ := rb.DeviceOf(stream)
				return chains[dev]
			}
		}
		for i, d := range devs {
			ch := chains[0]
			if replicated {
				ch = chains[i]
			}
			r.observe(fmt.Sprintf("cache%d", i), d, ch)
		}
		ioBlocks := blocksFor(cachePlan.IOSize, devs[0].Geometry().BlockSize)
		cacheCycles := int64(end / cachePlan.Cycle)
		if cacheCycles < 2 {
			cacheCycles = 2
		}
		cycles = max(cycles, cacheCycles)
		cacheRead := func(it *chainItem, start time.Duration) time.Duration {
			i := int(it.stream)
			comp, err := cb.Read(start, i, it.req.Block, ioBlocks)
			if err != nil {
				return start
			}
			r.drainTo(i, comp.Finish)
			r.fill(i, cachePlan.IOSize)
			r.noteCacheFill(cachePlan.IOSize)
			return comp.Finish
		}
		scheduleCacheCycle := func(int64) {
			ps := &r.ar.ps
			for _, i := range cachedIDs {
				blk := ps.pos[i]
				if blk+ioBlocks > imageBlocks {
					blk = 0
				}
				ps.pos[i] = (blk + ioBlocks) % max(imageBlocks, 1)
				chainOf(i).submit(chainItem{fn: cacheRead, stream: int32(i), req: device.Request{Block: blk}})
			}
		}
		r.cycleLoop("cache", cachePlan.Cycle, 0, cacheCycles, scheduleCacheCycle)
	}

	r.finish(end)

	res := r.result(Cached, end, cycles)
	res.PlannedDRAM = cachePlan.TotalDRAM + diskPlan.TotalDRAM
	res.FromCache = len(cachedIDs)
	res.FromDisk = len(diskIDs)
	return res, nil
}
