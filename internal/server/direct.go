package server

import (
	"time"

	"memstream/internal/device"
	"memstream/internal/model"
	"memstream/internal/units"
)

// directRun is the assembled direct-mode simulation: the rig, the Theorem
// 1 plan, the resolved horizon, and the per-cycle scheduling stage. It is
// factored out of runDirect so the cycle-walk benchmark can drive stage
// directly — the exact code the cycleLoop events execute — without the
// loop scaffolding or the final drain.
type directRun struct {
	r      *rig
	plan   model.DirectPlan
	cycles int64
	end    time.Duration
	stage  func(c int64)
}

// newDirect builds the baseline disk→DRAM server on the shared rig:
// Theorem 1 sizes the IO cycle, and one per-cycle stage enqueues every
// stream's IO into a C-LOOK batch on the disk chain.
func newDirect(cfg Config) (*directRun, error) {
	r, err := newRig(cfg)
	if err != nil {
		return nil, err
	}
	plan, err := model.DiskDirect(model.StreamLoad{N: cfg.N, BitRate: cfg.BitRate}, diskSpec(r.dsk))
	if err != nil {
		return nil, err
	}

	for i, st := range r.set.Streams {
		r.addPlayer(i, r.diskPos(st), plan.Cycle)
	}

	cycles, end, raw := r.horizon(plan.Cycle, 10, 2)
	ioBlocks := blocksFor(plan.IOSize, r.dsk.Geometry().BlockSize)

	// Interactive playback: alternate exponentially distributed play and
	// pause phases per stream. Pauses enter through the consumption
	// integral (rate zero while paused); the per-cycle scheduler below
	// additionally skips IOs for streams whose buffers are already full.
	r.shapeInteractive(plan.Cycle, raw)

	// VBR playback (footnote 1): each stream consumes along a per-cycle
	// rate profile with the configured coefficient of variation; the
	// cushion CushionFor computes is prefetched before playback begins.
	if err := r.shapeVBR(plan.Cycle, int(cycles)+2, nil); err != nil {
		return nil, err
	}

	diskBlocks := r.dsk.Geometry().Blocks
	blockSize := r.dsk.Geometry().BlockSize
	diskChain := r.newChain()
	r.observe("disk", r.dsk, diskChain)

	// dispatch services one slot of a cycle's C-LOOK batch: the scheduler
	// picks its best pending request, the filled stream drains to the
	// completion time, and the scheduler returns to the pool once empty.
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
	stage := func(int64) {
		sched := r.getSched()
		ps := &r.ar.ps
		for i := 0; i < r.n; i++ {
			if cfg.PausedFraction > 0 {
				// Interactive service: skip IOs for streams already
				// holding two cycles of data (paused, or just resumed) —
				// two cycles, because a resumed stream's next fill can be
				// almost a full cycle away. The reclaimed slots are the
				// bandwidth interactive servers redistribute.
				r.drainTo(i, r.eng.Now())
				if ps.level[i] >= 2*plan.IOSize {
					continue
				}
			}
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
		// One chain run per queued request; each dispatches the
		// scheduler's best pending request at its start time.
		r.submitBatch(diskChain, chainItem{fn: dispatch, sched: sched})
	}
	return &directRun{r: r, plan: plan, cycles: cycles, end: end, stage: stage}, nil
}

// runDirect simulates the baseline disk→DRAM server.
func runDirect(cfg Config) (Result, error) {
	d, err := newDirect(cfg)
	if err != nil {
		return Result{}, err
	}
	d.r.cycleLoop("disk", d.plan.Cycle, 0, d.cycles, d.stage)
	d.r.finish(d.end)

	res := d.r.result(Direct, d.end, d.cycles)
	res.PlannedDRAM = d.plan.TotalDRAM
	res.FromDisk = cfg.N
	return res, nil
}
