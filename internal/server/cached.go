package server

import (
	"memstream/internal/bank"
	"memstream/internal/model"
)

// cached builds the MEMS-cache architecture of §3.2: popular titles are
// pinned on the bank (striped or replicated); streams whose title is
// pinned run on the cache's own IO cycle, the rest on the disk's.
func (r *rig) cached() (*cycleRun, error) {
	cfg := r.cfg
	devs, err := bank.New(cfg.K, cfg.Tier)
	if err != nil {
		return nil, err
	}
	var cb bank.CacheBank
	cachePlanFor := model.StripedCache
	if cfg.CachePolicy == model.Striped {
		cb, err = bank.NewStripedBank(devs)
	} else {
		cb, err = bank.NewReplicatedBank(devs)
		cachePlanFor = model.ReplicatedCache
	}
	if err != nil {
		return nil, err
	}
	r.trackTier(devs...)
	s, err := r.splitByCache(cb, devs)
	if err != nil {
		return nil, err
	}

	var cachePlan, diskPlan model.DirectPlan
	if len(s.cached) > 0 {
		if cachePlan, err = cachePlanFor(len(s.cached), cfg.K, cfg.BitRate, tierSpec(cfg.Tier)); err != nil {
			return nil, err
		}
	}
	if len(s.missed) > 0 {
		load := model.StreamLoad{N: len(s.missed), BitRate: cfg.BitRate}
		if diskPlan, err = model.DiskDirect(load, diskSpec(r.dsk)); err != nil {
			return nil, err
		}
	}
	s.place(r, cachePlan.Cycle, diskPlan.Cycle)

	// Simulation horizon: enough cycles of the slower side.
	m := &cycleRun{
		r: r, end: r.span(10 * max(cachePlan.Cycle, diskPlan.Cycle)),
		planned: cachePlan.TotalDRAM + diskPlan.TotalDRAM,
	}
	if len(s.missed) > 0 {
		m.disk = r.newDiskRead(s.missed, diskPlan.IOSize)
		m.addStage("disk", diskPlan.Cycle, m.disk.stage)
	}
	m.addCache(cb, devs, s, cachePlan.IOSize, cachePlan.Cycle)
	// Cycles reports the busier side's scheduling rounds.
	for _, st := range m.stages {
		m.cycles = max(m.cycles, st.n)
	}
	return m, nil
}
