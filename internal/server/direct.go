package server

import "memstream/internal/model"

// direct builds the baseline disk→DRAM server: Theorem 1 sizes the IO
// cycle, and one disk stage reads every stream once per cycle.
func (r *rig) direct() (*cycleRun, error) {
	plan, err := model.DiskDirect(model.StreamLoad{N: r.n, BitRate: r.rate}, diskSpec(r.dsk))
	if err != nil {
		return nil, err
	}
	for i, st := range r.set.Streams {
		r.addPlayer(i, r.diskPos(st), plan.Cycle)
	}
	cycles, end, raw := r.horizon(plan.Cycle, 10, 2)

	// Interactive playback: alternate exponentially distributed play and
	// pause phases per stream. Pauses enter through the consumption
	// integral (rate zero while paused); the disk stage additionally
	// skips IOs for streams whose buffers are already full.
	r.shapeInteractive(plan.Cycle, raw)

	// VBR playback (footnote 1): each stream consumes along a per-cycle
	// rate profile with the configured coefficient of variation; the
	// cushion CushionFor computes is prefetched before playback begins.
	if err := r.shapeVBR(plan.Cycle, int(cycles)+2, nil); err != nil {
		return nil, err
	}

	m := &cycleRun{r: r, end: end, cycles: cycles, planned: plan.TotalDRAM}
	m.disk = r.newDiskRead(r.allStreams(), plan.IOSize)
	m.stages = []stage{{"disk", plan.Cycle, 0, cycles, m.disk.stage}}
	return m, nil
}
