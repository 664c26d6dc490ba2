package server

import (
	"fmt"
	"time"

	"memstream/internal/bank"
	"memstream/internal/cache"
	"memstream/internal/device"
	"memstream/internal/model"
)

// runHybrid simulates the paper's first future-work configuration (§7) on
// the shared rig: the MEMS bank is split — CacheDevices of the K devices
// pin popular titles (striped), the remainder buffer the disk IOs of the
// cache misses. Hot streams ride the cache's IO cycle; cold streams flow
// through the disk→buffer→DRAM pipeline. Three cycle stages drive it:
// disk staging, MEMS draining, and the cache's lock-step reads.
func runHybrid(cfg Config) (Result, error) {
	if cfg.CacheDevices <= 0 || cfg.CacheDevices >= cfg.K {
		return Result{}, fmt.Errorf("server: hybrid needs 0 < CacheDevices=%d < K=%d",
			cfg.CacheDevices, cfg.K)
	}
	r, err := newRig(cfg)
	if err != nil {
		return Result{}, err
	}
	cacheDevs, err := bank.New(cfg.CacheDevices, cfg.Tier)
	if err != nil {
		return Result{}, err
	}
	bufDevs, err := bank.New(cfg.K-cfg.CacheDevices, cfg.Tier)
	if err != nil {
		return Result{}, err
	}
	cb, err := bank.NewStripedBank(cacheDevs)
	if err != nil {
		return Result{}, err
	}
	r.trackTier(cacheDevs...)
	r.trackTier(bufDevs...)
	placement, err := cache.Plan(r.cat, cb.Capacity())
	if err != nil {
		return Result{}, err
	}

	var cachedIDs, missIDs []int
	for i, st := range r.set.Streams {
		if placement.Contains(st.Title.ID) {
			cachedIDs = append(cachedIDs, i)
		} else {
			missIDs = append(missIDs, i)
		}
	}
	if len(missIDs) == 0 {
		return Result{}, fmt.Errorf("server: hybrid run has no cache misses; use Cached mode")
	}

	// Cache-side plan (Theorem 3 on the cache sub-bank).
	var cachePlan model.DirectPlan
	if len(cachedIDs) > 0 {
		cachePlan, err = model.StripedCache(len(cachedIDs), cfg.CacheDevices,
			cfg.BitRate, tierSpec(cfg.Tier))
		if err != nil {
			return Result{}, err
		}
	}
	// Miss-side plan (Theorem 2 on the buffer sub-bank), disk cycle
	// capped for simulation exactly as in the buffered pipeline.
	missLoad := model.StreamLoad{N: len(missIDs), BitRate: cfg.BitRate}
	bufPlan, err := model.BufferPlan(model.BufferConfig{
		Load:          missLoad,
		Disk:          diskSpec(r.dsk),
		Tier:          tierSpec(cfg.Tier),
		K:             cfg.K - cfg.CacheDevices,
		SizePerDevice: cfg.Tier.Capacity,
	})
	if err != nil {
		return Result{}, err
	}
	bufPlan.CapDiskCycle(20*time.Second, missLoad)
	tDisk := bufPlan.DiskCycle
	tMems := bufPlan.MEMSCycle
	bb, err := bank.NewBufferBank(bufDevs, bufPlan.DiskIOSize)
	if err != nil {
		return Result{}, err
	}

	// Players.
	blockSize := r.dsk.Geometry().BlockSize
	diskBlocks := r.dsk.Geometry().Blocks
	imageBlocks := blocksFor(placement.Used, blockSize)
	missPlayStart := tDisk + 4*tMems
	for i, st := range r.set.Streams {
		pos := (st.Title.StartLB + int64(st.Offset/blockSize)) % diskBlocks
		startAt := missPlayStart
		if placement.Contains(st.Title.ID) {
			pos = int64(st.Offset/blockSize) % max(imageBlocks, 1)
			startAt = cachePlan.Cycle
			if err := cb.Assign(i); err != nil {
				return Result{}, err
			}
		}
		r.addPlayer(i, pos, startAt)
	}

	diskCycles, end, _ := r.horizon(tDisk, 3, 3)

	// --- Miss side: disk → buffer sub-bank → DRAM, the buffered pipeline
	// over the miss set ---
	pipe, err := r.newBufferPipe(bb, bufPlan, missIDs, 0)
	if err != nil {
		return Result{}, err
	}
	r.cycleLoop("disk", tDisk, 0, diskCycles, pipe.diskStage)
	r.cycleLoop("mems", tMems, 1, int64(end/tMems), pipe.tierDrain)

	// --- Cache side: striped lock-step cycles, as in runCached ---
	if len(cachedIDs) > 0 {
		cacheChain := r.newChain()
		for i, d := range cacheDevs {
			r.observe(fmt.Sprintf("cache%d", i), d, cacheChain)
		}
		ioBlocks := blocksFor(cachePlan.IOSize, blockSize)
		cacheCycles := int64(end / cachePlan.Cycle)
		if cacheCycles < 2 {
			cacheCycles = 2
		}
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
				cacheChain.submit(chainItem{fn: cacheRead, stream: int32(i), req: device.Request{Block: blk}})
			}
		}
		r.cycleLoop("cache", cachePlan.Cycle, 0, cacheCycles, scheduleCacheCycle)
	}

	r.finish(end)

	res := r.result(Hybrid, end, diskCycles)
	res.PlannedDRAM = cachePlan.TotalDRAM + bufPlan.TotalDRAM
	res.FromCache = len(cachedIDs)
	res.FromDisk = len(missIDs)
	return res, nil
}
