package server

import (
	"fmt"
	"time"

	"memstream/internal/bank"
	"memstream/internal/model"
)

// hybrid builds the paper's first future-work configuration (§7): the
// MEMS bank is split — CacheDevices of the K devices pin popular titles
// (striped), the remainder buffer the disk IOs of the cache misses. Hot
// streams ride the cache's IO cycle; cold streams flow through the
// disk→buffer→DRAM pipeline. Three stages drive it: disk staging, MEMS
// draining, and the cache's lock-step reads.
func (r *rig) hybrid() (*cycleRun, error) {
	cfg := r.cfg
	cacheDevs, err := bank.New(cfg.CacheDevices, cfg.Tier)
	if err != nil {
		return nil, err
	}
	bufDevs, err := bank.New(cfg.K-cfg.CacheDevices, cfg.Tier)
	if err != nil {
		return nil, err
	}
	cb, err := bank.NewStripedBank(cacheDevs)
	if err != nil {
		return nil, err
	}
	r.trackTier(cacheDevs...)
	r.trackTier(bufDevs...)
	s, err := r.splitByCache(cb, cacheDevs)
	if err != nil {
		return nil, err
	}
	if len(s.missed) == 0 {
		return nil, fmt.Errorf("server: hybrid run has no cache misses; use Cached mode")
	}

	// Cache-side plan (Theorem 3 on the cache sub-bank).
	var cachePlan model.DirectPlan
	if len(s.cached) > 0 {
		cachePlan, err = model.StripedCache(len(s.cached), cfg.CacheDevices,
			cfg.BitRate, tierSpec(cfg.Tier))
		if err != nil {
			return nil, err
		}
	}
	// Miss-side plan (Theorem 2 on the buffer sub-bank), disk cycle
	// capped for simulation exactly as in the buffered pipeline.
	missLoad := model.StreamLoad{N: len(s.missed), BitRate: cfg.BitRate}
	bufPlan, err := model.BufferPlan(model.BufferConfig{
		Load:          missLoad,
		Disk:          diskSpec(r.dsk),
		Tier:          tierSpec(cfg.Tier),
		K:             cfg.K - cfg.CacheDevices,
		SizePerDevice: cfg.Tier.Capacity,
	})
	if err != nil {
		return nil, err
	}
	bufPlan.CapDiskCycle(20*time.Second, missLoad)
	tDisk, tMems := bufPlan.DiskCycle, bufPlan.MEMSCycle
	bb, err := bank.NewBufferBank(bufDevs, bufPlan.DiskIOSize)
	if err != nil {
		return nil, err
	}
	s.place(r, cachePlan.Cycle, tDisk+4*tMems)

	diskCycles, end, _ := r.horizon(tDisk, 3, 3)
	pipe, err := r.newBufferPipe(bb, bufPlan, s.missed, 0)
	if err != nil {
		return nil, err
	}
	m := &cycleRun{
		r: r, end: end, cycles: diskCycles,
		planned: cachePlan.TotalDRAM + bufPlan.TotalDRAM,
		disk:    pipe.disk, pipe: pipe,
		stages: []stage{
			{"disk", tDisk, 0, diskCycles, pipe.disk.stage},
			{"mems", tMems, 1, int64(end / tMems), pipe.tierDrain},
		},
	}
	m.addCache(cb, cacheDevs, s, cachePlan.IOSize, cachePlan.Cycle)
	return m, nil
}
