package server

import (
	"time"

	"memstream/internal/device"
	"memstream/internal/model"
	"memstream/internal/schedule"
	"memstream/internal/units"
)

// runEDF simulates the direct architecture under earliest-deadline-first
// scheduling (Daigle & Strosnider), the alternative real-time scheduler
// class the paper's related work contrasts with time-cycle/QPMS. Each
// stream keeps one request outstanding, deadlined at its buffer-empty
// time; the disk always services the most urgent request. EDF meets
// deadlines when feasible but forfeits the elevator's seek amortization,
// which the comparison test and bench quantify. There is no cycle
// structure, so an attached probe records no samples.
func runEDF(cfg Config) (Result, error) {
	s, err := newEDFRun(cfg)
	if err != nil {
		return Result{}, err
	}
	r := s.r
	r.eng.RunUntil(s.end)
	for i := 0; i < r.n; i++ {
		r.drainTo(i, s.end)
	}
	res := r.result(Direct, s.end, int64(s.end/s.plan.Cycle))
	res.PlannedDRAM = s.plan.TotalDRAM
	res.FromDisk = cfg.N
	return res, nil
}

// newEDFRun sets up an EDF run ready to fire: the rig, its players, every
// stream's first request and the stop at the horizon, in the order that
// fixes the run's sequence numbers.
func newEDFRun(cfg Config) (*edfRun, error) {
	r, err := newRig(cfg)
	if err != nil {
		return nil, err
	}
	// Size IOs with the same Theorem 1 plan the time-cycle server uses so
	// the comparison isolates scheduling order.
	plan, err := model.DiskDirect(model.StreamLoad{N: cfg.N, BitRate: cfg.BitRate}, diskSpec(r.dsk))
	if err != nil {
		return nil, err
	}
	for i, st := range r.set.Streams {
		r.addPlayer(i, r.diskPos(st), plan.Cycle)
	}
	r.observe("disk", r.dsk, nil)

	g := r.dsk.Geometry()
	ioBlocks := blocksFor(plan.IOSize, g.BlockSize)
	s := &edfRun{
		r:          r,
		plan:       plan,
		end:        r.span(10 * plan.Cycle),
		diskBlocks: g.Blocks,
		ioBlocks:   ioBlocks,
		ioBytes:    units.Bytes(ioBlocks) * g.BlockSize,
		reqs:       make([]schedule.Deadline, r.n),
	}
	for i := 0; i < r.n; i++ {
		s.issue(i)
	}
	r.eng.ScheduleArg(s.end, stopEDF, s)
	return s, nil
}

// edfRun is an EDF run's state. The disk serves one request at a time, so
// one completion is in flight at most: the stream it serves and the blocks
// it moves live here, not in a closure per IO.
type edfRun struct {
	r          *rig
	plan       model.DirectPlan
	end        time.Duration
	diskBlocks int64
	ioBlocks   int64
	ioBytes    units.Bytes

	queue schedule.EDF
	// reqs is each stream's one outstanding request, reused: a stream's
	// request is popped before the stream issues again.
	reqs []schedule.Deadline
	busy bool

	cur    int           // the stream the in-flight IO serves
	finish time.Duration // when it completes
	blocks int64         // how many blocks it moves
}

// deadline is the instant stream i's buffer runs dry.
func (s *edfRun) deadline(i int) time.Duration {
	r, ps, now := s.r, &s.r.ar.ps, s.r.eng.Now()
	drainStart := max(ps.startAt[i], ps.lastDrain[i])
	if now < drainStart {
		// Playback has not begun; the deadline is depletion measured
		// from playback start.
		return drainStart + r.level(i).Duration(r.rate)
	}
	// level reflects lastDrain; project forward.
	remaining := max(r.level(i)-units.BytesIn(r.rate, now-drainStart), 0)
	return now + remaining.Duration(r.rate)
}

// issue queues stream i's next request and starts the disk if it is idle.
func (s *edfRun) issue(i int) {
	d := &s.reqs[i]
	d.Stream, d.IOSize, d.Deadline = i, s.ioBytes, s.deadline(i)
	s.queue.Push(d)
	if !s.busy {
		s.serviceNext()
	}
}

// serviceNext starts the most urgent queued request, or idles the disk.
func (s *edfRun) serviceNext() {
	d := s.queue.Pop()
	if d == nil {
		s.busy = false
		return
	}
	s.busy = true
	r, ps, i := s.r, &s.r.ar.ps, d.Stream
	blk := ps.pos[i]
	if blk+s.ioBlocks > s.diskBlocks {
		blk = 0
	}
	ps.pos[i] = (blk + s.ioBlocks) % s.diskBlocks
	now := r.eng.Now()
	comp, err := r.dsk.Service(now, device.Request{
		Op: device.Read, Block: blk, Blocks: s.ioBlocks, Stream: i, Issued: now,
	})
	if err != nil {
		s.busy = false
		return
	}
	s.cur, s.finish, s.blocks = i, comp.Finish, comp.Blocks
	r.eng.ScheduleArg(comp.Finish-now, completeEDF, s)
}

// completeEDF is the in-flight IO's completion: the stream drains to now
// and takes the data, re-issues while inside the horizon, and the disk
// moves on to the most urgent request.
func completeEDF(arg any) {
	s := arg.(*edfRun)
	r, i := s.r, s.cur
	r.drainTo(i, s.finish)
	r.fill(i, units.Bytes(s.blocks)*r.dsk.Geometry().BlockSize)
	// Keep one request in flight per stream until the horizon.
	if s.finish < s.end {
		s.issue(i)
	}
	s.serviceNext()
}

// stopEDF ends the run at the horizon, ahead of any completion due then.
func stopEDF(arg any) { arg.(*edfRun).r.eng.Stop() }
