package server

import (
	"math"
	"time"

	"memstream/internal/device"
	"memstream/internal/disk"
	"memstream/internal/ring"
	"memstream/internal/sim"
	"memstream/internal/tier"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// rig is the shared run-core every architecture driver builds on: it owns
// the simulation engine, the per-stream playback state, the run's RNG,
// the catalog and the drawn stream population, applies the playback
// shaping extensions (VBR traces with cushions, the pause integrator),
// drives the per-cycle scheduling stages, performs the final drain, and
// assembles the cross-mode Result fields. Drivers contribute only their
// architecture: device/bank setup, per-player placement and start times,
// and the per-cycle scheduling stage each cycleLoop runs.
//
// The steady-state machinery is batch-oriented (see state.go): player
// state lives in struct-of-arrays owned by the arena, consumption
// profiles index shared cumulative tables instead of capturing a closure
// per player, service chains carry pooled chainItem values instead of
// boxed closures, and C-LOOK schedulers are pooled across cycles. All of
// it reproduces the historical per-player-object arithmetic operation for
// operation.
//
// Determinism contract: newRig consumes the run RNG exactly as every
// driver historically did (one Uint64 for the stream generator), and the
// shaping helpers Split it in driver-controlled order — so a refactored
// driver reproduces the pre-rig byte-identical Results for any seed.
type rig struct {
	cfg     Config
	ar      *Arena
	eng     *sim.Engine
	rng     *sim.RNG
	dsk     *disk.Device
	cat     *workload.Catalog
	set     *workload.Set
	margins *sim.Reservoir
	n       int
	rate    units.ByteRate // every stream's nominal CBR rate

	// tierDevs are the bank devices registered for Result accounting
	// (busy time, IO counts, utilization over cfg.K).
	tierDevs []tier.Device

	// probe, when attached (Config.Trace), records the per-cycle time
	// series surfaced as Result.Trace. Sampling piggybacks on the cycle
	// events themselves, so attachment never perturbs the run.
	probe *probe

	// Cache-side fill accounting for the probe's hit deltas
	// (Cached/Hybrid drivers note each fill served from the cache bank).
	cacheFills     uint64
	cacheFillBytes units.Bytes
}

// newRig instantiates the shared machinery: the disk, the catalog laid
// out on it, the engine and player state (from Config.Arena when a
// pooled arena is supplied, fresh otherwise), the run RNG and the stream
// population drawn from it.
func newRig(cfg Config) (*rig, error) {
	dsk, err := disk.New(cfg.Disk)
	if err != nil {
		return nil, err
	}
	ar := cfg.Arena
	if ar == nil {
		ar = NewArena()
	}
	cat, err := ar.catalog(catalogKeyFor(cfg, dsk.Geometry().BlockSize))
	if err != nil {
		return nil, err
	}
	ar.reset(cfg.N, cfg.Seed^0xabcdef)
	rng := sim.NewRNG(cfg.Seed)
	// The generator seed is drawn unconditionally — even when a shard-local
	// population is injected — so the rig consumes the run RNG identically
	// on both paths and the shaping splits downstream see the same stream.
	gen := workload.NewGenerator(cat, rng.Uint64())
	set := cfg.Population
	if set == nil {
		var err error
		set, err = gen.DrawRange(cfg.FirstStreamID, cfg.N)
		if err != nil {
			return nil, err
		}
	}
	r := &rig{
		cfg: cfg, ar: ar, eng: &ar.eng, rng: rng, dsk: dsk, cat: cat, set: set,
		margins: ar.margins, n: cfg.N, rate: cfg.BitRate,
	}
	if cfg.Trace {
		r.probe = newProbe(r)
	}
	return r, nil
}

// diskPos maps a drawn stream to its starting block on the disk image.
func (r *rig) diskPos(st workload.Stream) int64 {
	g := r.dsk.Geometry()
	return (st.Title.StartLB + int64(st.Offset/g.BlockSize)) % g.Blocks
}

// addPlayer installs stream i's playback state, with playback beginning
// (and margin tracking anchored) at startAt.
func (r *rig) addPlayer(i int, pos int64, startAt time.Duration) {
	ps := &r.ar.ps
	ps.pos[i] = pos
	ps.startAt[i] = startAt
	ps.lastDrain[i] = startAt
}

// drainTo advances stream i's playback to time t: the consumption over
// [lastDrain, t) leaves its DRAM buffer, underflows are recorded when the
// buffer held less than the requirement, and the post-drain level lands
// in the margins reservoir (in playback seconds).
func (r *rig) drainTo(i int, t time.Duration) {
	ps := &r.ar.ps
	if t <= ps.startAt[i] || t <= ps.lastDrain[i] {
		return
	}
	from := ps.lastDrain[i]
	if from < ps.startAt[i] {
		from = ps.startAt[i]
	}
	var need units.Bytes
	if ref := ps.cons[i]; ref.kind != consCBR {
		need = r.ar.tab.consume(ref, from-ps.startAt[i], t-ps.startAt[i])
	} else {
		need = units.BytesIn(r.rate, t-from)
	}
	if need > 0 {
		if need <= ps.level[i] {
			ps.level[i] -= need
			ps.used -= need
		} else {
			ps.deficit[i] += need - ps.level[i]
			ps.used -= ps.level[i]
			ps.level[i] = 0
			ps.underflow[i]++
		}
	}
	r.margins.Observe(ps.level[i].Seconds(r.rate))
	ps.lastDrain[i] = t
}

// fill stages n bytes arriving from a device IO into stream i's buffer.
// The rig's pool is unlimited, so fills cannot fail; what matters is the
// occupancy accounting and its high-water mark.
func (r *rig) fill(i int, n units.Bytes) {
	ps := &r.ar.ps
	ps.level[i] += n
	ps.used += n
	if ps.used > ps.highWater {
		ps.highWater = ps.used
	}
}

// level returns stream i's current buffered bytes.
func (r *rig) level(i int) units.Bytes { return r.ar.ps.level[i] }

// shapeInteractive wires the pause/resume consumption integrals when
// Config.PausedFraction asks for interactive playback: every player
// alternates exponentially distributed play and pause phases so the
// configured fraction of stream-time is paused. Consumes one RNG split.
func (r *rig) shapeInteractive(cycle, duration time.Duration) {
	if !(r.cfg.PausedFraction > 0 && r.cfg.PausedFraction < 1) {
		return
	}
	prng := r.rng.Split()
	meanPlay := 5 * cycle.Seconds()
	meanPause := meanPlay * r.cfg.PausedFraction / (1 - r.cfg.PausedFraction)
	horizon := (duration + cycle).Seconds()
	for i := 0; i < r.n; i++ {
		r.ar.ps.cons[i] = r.ar.tab.addPause(prng, float64(r.rate), meanPlay, meanPause, horizon)
	}
}

// shapeVBR wires VBR playback (the paper's footnote 1) when Config.VBRCoV
// asks for it: each player consumes along a normalized per-interval rate
// trace, and unless NoCushion is set the CushionFor prefetch lands in its
// buffer before the run starts. skip, when non-nil, excludes players
// (recorders never play back). Consumes one RNG split.
func (r *rig) shapeVBR(interval time.Duration, intervals int, skip func(i int) bool) error {
	if r.cfg.VBRCoV <= 0 {
		return nil
	}
	vrng := r.rng.Split()
	for i := 0; i < r.n; i++ {
		if skip != nil && skip(i) {
			continue
		}
		trace := workload.VBRTrace(vrng, r.cfg.BitRate, r.cfg.VBRCoV, intervals)
		normalizeTrace(trace, r.cfg.BitRate)
		r.ar.ps.cons[i] = r.ar.tab.addTrace(trace, interval)
		if !r.cfg.NoCushion {
			r.fill(i, workload.CushionFor(trace, interval))
		}
	}
	return nil
}

// span resolves the run length for non-quantized horizons: the configured
// Duration, or def when unset.
func (r *rig) span(def time.Duration) time.Duration {
	if r.cfg.Duration > 0 {
		return r.cfg.Duration
	}
	return def
}

// horizon resolves a cycle-quantized run length: the configured Duration
// (or defCycles cycles when unset) floored to whole cycles with a minimum
// of minCycles. It returns the cycle count, the quantized end, and the
// raw un-quantized duration (the pause-process horizon spans the latter).
func (r *rig) horizon(cycle time.Duration, defCycles, minCycles int64) (cycles int64, end, raw time.Duration) {
	raw = r.span(time.Duration(defCycles) * cycle)
	cycles = int64(raw / cycle)
	if cycles < minCycles {
		cycles = minCycles
	}
	return cycles, time.Duration(cycles) * cycle, raw
}

// newChain hands out a pooled FIFO service chain from the run's chain set.
func (r *rig) newChain() *chain { return r.ar.chains.get() }

// cycleLoop drives one periodic scheduling stage: fn runs once per cycle
// c ∈ [first, first+n) at time c·period. When a probe is attached, the
// cycle's resource sample is taken inside the same engine event right
// after fn, so attaching the probe changes neither the event calendar nor
// any Result field.
//
// The loop draws its n sequence numbers here, at driver set-up, and then
// chains itself: only the first cycle is scheduled now, and each firing
// schedules its successor under the next drawn number before it runs the
// stage. Every cycle therefore fires under the (time, sequence) key it
// would hold had all n been scheduled up front — when several loops with
// different periods share the rig, their tie-break order at coinciding
// timestamps is still fixed by driver set-up order, the determinism
// contract the pinned Result fingerprints enforce — while the calendar
// carries one entry per loop instead of one per future cycle, and a loop
// costs one cycleCall.
func (r *rig) cycleLoop(source string, period time.Duration, first, n int64, fn func(c int64)) {
	if n <= 0 {
		return
	}
	cc := &cycleCall{r: r, source: source, fn: fn, period: period, c: first, last: first + n - 1, seq: r.eng.Draw(int(n))}
	r.eng.ScheduleKey(cc.key(), runCycleCall, cc)
}

// cycleCall is one cycleLoop: its stage, the next cycle to fire and the
// sequence number it fires under.
type cycleCall struct {
	r       *rig
	source  string
	fn      func(c int64)
	period  time.Duration
	c, last int64
	seq     sim.Seq
}

// key is cycle c's place in the firing order.
func (cc *cycleCall) key() sim.Key {
	return sim.Key{At: time.Duration(cc.c) * cc.period, Seq: cc.seq}
}

func runCycleCall(arg any) {
	cc := arg.(*cycleCall)
	c := cc.c
	if c < cc.last {
		cc.c++
		cc.seq = cc.seq.Add(1)
		cc.r.eng.ScheduleKey(cc.key(), runCycleCall, cc)
	}
	cc.fn(c)
	if cc.r.probe != nil {
		cc.r.probe.sample(cc.source, c)
	}
}

// finish schedules the final drain of every player at end and runs the
// calendar dry.
func (r *rig) finish(end time.Duration) {
	r.eng.ScheduleKey(sim.Key{At: end, Seq: r.eng.Draw(1)}, drainAll, r)
	r.eng.Run()
}

// drainAll is the end-of-run event: every player drains to the horizon.
func drainAll(arg any) {
	r := arg.(*rig)
	for i := 0; i < r.n; i++ {
		r.drainTo(i, r.eng.Now())
	}
}

// trackTier registers bank devices for the Result's middle-tier
// accounting (the MEMS-named Result fields, kept for artifact
// stability).
func (r *rig) trackTier(devs ...tier.Device) {
	r.tierDevs = append(r.tierDevs, devs...)
}

// result assembles the cross-mode Result fields: identity, horizon,
// event/IO/busy accounting, DRAM high water, underflow totals, the
// delivery-margin quantile and, when a probe ran, the trace. Drivers fill
// the mode-specific fields afterwards (PlannedDRAM, the cache split,
// writer and best-effort accounting).
func (r *rig) result(mode Mode, end time.Duration, cycles int64) Result {
	res := Result{
		Mode:          mode,
		Streams:       r.cfg.N,
		SimulatedTime: end,
		Cycles:        cycles,
		Events:        r.eng.Executed(),
		DRAMHighWater: r.ar.ps.highWater,
		DiskBusy:      r.dsk.BusyTime(),
		DiskUtil:      float64(r.dsk.BusyTime()) / float64(end),
		DiskIOs:       r.dsk.Served(),
	}
	var memsBusy time.Duration
	for _, d := range r.tierDevs {
		memsBusy += d.BusyTime()
		res.MEMSIOs += d.Served()
	}
	if len(r.tierDevs) > 0 {
		res.MEMSBusy = memsBusy
		res.MEMSUtil = float64(memsBusy) / (float64(end) * float64(r.cfg.K))
	}
	for i := 0; i < r.n; i++ {
		res.Underflows += int(r.ar.ps.underflow[i])
		res.UnderflowBytes += r.ar.ps.deficit[i]
	}
	if m, ok := r.margins.Quantile(0.05); ok {
		res.MarginP5 = units.Seconds(m)
	}
	if r.probe != nil {
		res.Trace = r.probe.trace
	}
	return res
}

// chainItem is one unit of work on a service chain: a static-per-run
// handler plus the item's dynamic operands, carried by value through the
// chain's ring buffer. Drivers build one handler closure per item shape
// per run (capturing the run's banks, chains and geometry once) instead
// of boxing a fresh closure per item per cycle; the operand fields cover
// every driver's item shapes.
//
// A counted item (repeat > 1) stands for repeat identical entries queued
// back to back: the chain re-runs it in place until exhausted, so a cycle's
// whole C-LOOK batch occupies one ring entry instead of one per request.
// Only real-time items may be counted: best-effort copies would yield to
// real-time work between runs, which one entry holding the chain cannot.
type chainItem struct {
	fn     func(it *chainItem, start time.Duration) time.Duration
	sched  *disk.Scheduler // C-LOOK dispatch items
	req    device.Request  // bank/device service items
	dev    int32           // bank device index
	stream int32           // player index, or a drain item's cursor into its device's list
	parity int32           // disk-cycle parity (c&1) for staged slots
	repeat int32           // runs owed, this one included; 0 means 1
}

// chain serializes work on one device: items run back-to-back in FIFO
// order, each receiving its start time and returning its finish time.
// Two priorities exist: real-time items (submit) always run before
// queued best-effort items (submitLow), which soak up spare bandwidth
// (§3.1.2) without delaying any already-queued real-time work.
//
// Both queues are ring buffers of chainItem values (O(1) dequeue at any
// depth, no per-item boxing), and a run's completion is a wake-up the
// chain posts to its chainSet rather than a calendar entry of its own, so
// a busy chain's dispatch loop allocates nothing in steady state.
type chain struct {
	set  *chainSet
	busy bool // a run is in service: wake is pending
	wake sim.Key
	last time.Duration
	// cur is the item in service. It lives in the chain (not a runNext
	// local) because the handler receives its address through an indirect
	// call, which would otherwise force a per-item heap escape.
	cur chainItem
	q   ring.Ring[chainItem]
	low ring.Ring[chainItem]
	// extra counts the runs counted items still owe beyond the one entry
	// each holds (queued or in service), so depth reads as if every run
	// were its own entry.
	extra int
}

// reset re-arms a pooled chain, keeping both rings' storage.
func (c *chain) reset() {
	c.busy = false
	c.wake = sim.Key{}
	c.last = 0
	c.cur = chainItem{}
	c.q.Reset()
	c.low.Reset()
	c.extra = 0
}

func (c *chain) submit(it chainItem) {
	if it.repeat > 1 {
		c.extra += int(it.repeat) - 1
	}
	c.q.PushBack(it)
	if !c.busy {
		c.busy = true
		c.runNext()
	}
}

// submitLow enqueues best-effort work served only when no real-time item
// is waiting.
func (c *chain) submitLow(it chainItem) {
	c.low.PushBack(it)
	if !c.busy {
		c.busy = true
		c.runNext()
	}
}

// depth is the number of items pending on the chain, including the one in
// service — the queue-depth gauge the probe samples.
func (c *chain) depth() int {
	n := c.q.Len() + c.low.Len() + c.extra
	if c.busy {
		n++
	}
	return n
}

// runNext starts the next item — the wake-up that ran it is the previous
// item's completion event — or idles the chain when nothing is queued.
func (c *chain) runNext() {
	switch {
	case c.cur.repeat > 1:
		// A counted item keeps the head of q until exhausted, exactly
		// where its copies would have stood.
		c.cur.repeat--
		c.extra--
	case c.q.Len() > 0:
		c.cur = c.q.PopFront()
	case c.low.Len() > 0:
		c.cur = c.low.PopFront()
	default:
		c.busy = false
		return
	}
	eng := c.set.eng
	start := eng.Now()
	if c.last > start {
		start = c.last
	}
	finish := c.cur.fn(&c.cur, start)
	if finish < start {
		finish = start
	}
	c.last = finish
	// The number a ScheduleArg call would take here, after the handler's
	// own draws: the completion keeps its historical place in the order.
	c.wake = sim.Key{At: finish, Seq: eng.Draw(1)}
	c.set.post(c)
}

// normalizeTrace rescales a VBR trace so its mean is exactly the nominal
// rate — the time-cycle supply delivers the nominal rate, so an off-mean
// trace would drift rather than oscillate. A trace whose sum is not a
// positive finite number (all-zero, or corrupted with NaN/Inf) is left
// untouched: dividing by it would inject NaN/Inf rates straight into the
// consumption integral.
func normalizeTrace(trace []units.ByteRate, nominal units.ByteRate) {
	var sum float64
	for _, r := range trace {
		sum += float64(r)
	}
	if !(sum > 0) || math.IsInf(sum, 1) {
		return
	}
	scale := float64(nominal) * float64(len(trace)) / sum
	for i := range trace {
		trace[i] = units.ByteRate(float64(trace[i]) * scale)
	}
}
