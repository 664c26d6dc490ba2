package server

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"memstream/internal/bank"
	"memstream/internal/device"
	"memstream/internal/model"
	"memstream/internal/sim"
	"memstream/internal/tier"
	"memstream/internal/units"
)

// This file holds the differential oracle for bufferPipe.tierDrain: the
// stream-by-stream bank-cycle walk the drivers ran before one bank cycle
// on one device became one counted chain item. It builds every request
// through BufferBank.StageRequest/DrainRequest, keeps a slot position per
// stream and queues one chain item per transfer. The tests run a pipeline
// twice — once with each walk — behind recording devices and require the
// same transfers with the same operands at the same simulated times, in
// the same global order.

// ioRec is one transfer a bank device serviced.
type ioRec struct {
	dev           int
	op            device.Op
	stream        int
	block, blocks int64
	start, finish time.Duration
}

// recDev logs every request its device services, in service order across
// the whole bank.
type recDev struct {
	tier.Device
	idx int
	log *[]ioRec
}

func (d *recDev) Service(now time.Duration, r device.Request) (device.Completion, error) {
	c, err := d.Device.Service(now, r)
	if err == nil {
		*d.log = append(*d.log, ioRec{d.idx, r.Op, r.Stream, r.Block, r.Blocks, c.Start, c.Finish})
	}
	return c, err
}

// record interposes recording devices on the pipe's bank.
func record(p *bufferPipe) *[]ioRec {
	log := new([]ioRec)
	for i, d := range p.devs {
		p.devs[i] = &recDev{Device: d, idx: i, log: log}
	}
	return log
}

// perStreamWalk is the reference bank-cycle walk. It borrows the pipe's
// bank, chains, devices and recorder accounting, so swapping its cycle in
// for pipe.tierDrain changes nothing else about a run.
type perStreamWalk struct {
	p          *bufferPipe
	drainBytes units.Bytes
	slotBlocks int64

	slotCycle, slotOff []int64 // per player
	wbCycle, wbOff     []int64 // recorders' read-back position

	// What the run exercised, so a case can insist on its scenario.
	skips    int // transfers skipped because the slot was consumed
	backlogs int // disk-cycle boundaries crossed with a bank chain backed up
	lastCyc  int64
}

func newPerStreamWalk(p *bufferPipe, tBank time.Duration) *perStreamWalk {
	n := p.r.n
	return &perStreamWalk{
		p:          p,
		drainBytes: units.BytesIn(p.r.rate, tBank),
		slotBlocks: blocksFor(p.bb.SlotSize(), p.block),
		slotCycle:  make([]int64, n), slotOff: make([]int64, n),
		wbCycle: make([]int64, n), wbOff: make([]int64, n),
	}
}

func (o *perStreamWalk) bankIO(it *chainItem, ws time.Duration) time.Duration {
	wc, err := o.p.devs[it.dev].Service(ws, it.req)
	if err != nil {
		return ws
	}
	return wc.Finish
}

func (o *perStreamWalk) writerAppend(it *chainItem, ws time.Duration) time.Duration {
	p := o.p
	wc, err := p.devs[it.dev].Service(ws, it.req)
	if err != nil {
		return ws
	}
	produced := units.BytesIn(p.r.rate, wc.Finish)
	if occ := produced - p.staged[it.stream]; occ > p.writerPeak {
		p.writerPeak = occ
	}
	p.staged[it.stream] += units.Bytes(wc.Blocks) * p.block
	return wc.Finish
}

func (o *perStreamWalk) readerDrain(it *chainItem, rs time.Duration) time.Duration {
	p := o.p
	rc, err := p.devs[it.dev].Service(rs, it.req)
	if err != nil {
		return rs
	}
	i := int(it.stream)
	p.r.drainTo(i, rc.Finish)
	p.r.fill(i, units.Bytes(rc.Blocks)*p.block)
	return rc.Finish
}

func (o *perStreamWalk) cycle(int64) {
	p := o.p
	diskCyc := int64(p.r.eng.Now() / p.tDisk)
	if diskCyc != o.lastCyc {
		o.lastCyc = diskCyc
		for _, c := range p.bank {
			if c.depth() > 0 {
				o.backlogs++
				break
			}
		}
	}
	for n, i := range p.disk.streams {
		writer := n < p.disk.writers
		if !writer && diskCyc == 0 {
			continue // nothing staged for readers yet
		}
		if o.slotCycle[i] != diskCyc {
			o.slotCycle[i], o.slotOff[i] = diskCyc, 0
		}
		if o.slotOff[i] >= o.slotBlocks {
			o.skips++
			continue // slot consumed; the next disk cycle refills it
		}
		if writer {
			wreq, dev, err := p.bb.StageRequest(i, diskCyc, o.drainBytes)
			if err != nil {
				continue
			}
			wreq.Block += o.slotOff[i]
			if rem := o.slotBlocks - o.slotOff[i]; wreq.Blocks > rem {
				wreq.Blocks = rem
			}
			o.slotOff[i] += wreq.Blocks
			p.bank[dev].submit(chainItem{fn: o.writerAppend, req: wreq, dev: int32(dev), stream: int32(i)})
			if diskCyc >= 1 {
				if o.wbCycle[i] != diskCyc {
					o.wbCycle[i], o.wbOff[i] = diskCyc, 0
				}
				if o.wbOff[i] < o.slotBlocks {
					rreq, rdev, err := p.bb.DrainRequest(i, diskCyc, o.drainBytes)
					if err == nil {
						rreq.Block += o.wbOff[i]
						if rem := o.slotBlocks - o.wbOff[i]; rreq.Blocks > rem {
							rreq.Blocks = rem
						}
						o.wbOff[i] += rreq.Blocks
						p.bank[rdev].submit(chainItem{fn: o.bankIO, req: rreq, dev: int32(rdev)})
					}
				}
			}
			continue
		}
		rreq, dev, err := p.bb.DrainRequest(i, diskCyc, o.drainBytes)
		if err != nil {
			continue
		}
		rreq.Block += o.slotOff[i]
		if rem := o.slotBlocks - o.slotOff[i]; rreq.Blocks > rem {
			rreq.Blocks = rem
		}
		o.slotOff[i] += rreq.Blocks
		p.bank[dev].submit(chainItem{fn: o.readerDrain, req: rreq, dev: int32(dev), stream: int32(i)})
	}
}

// diffLogs reports the first transfer the two walks disagree on.
func diffLogs(t *testing.T, got, want []ioRec) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("the reference walk serviced nothing")
	}
	if slices.Equal(got, want) {
		return
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("transfer %d of %d/%d diverges:\n got %+v\nwant %+v", i, len(got), len(want), got[i], want[i])
		}
	}
	t.Fatalf("counted walk serviced %d transfers, reference %d", len(got), len(want))
}

// Full buffered runs, traced so the probe's queue depths are compared
// too: the counted walk and the per-stream walk must produce the same
// Result and the same bank transfers.
func TestBufferedWalkMatchesPerStreamWalk(t *testing.T) {
	rw := baseConfig(Buffered, 120, units.MBPS)
	rw.K = 4
	rw.Writers = 30
	rw.BestEffort = true
	odd := baseConfig(Buffered, 101, units.MBPS)
	odd.K = 3
	nvm := baseConfig(Buffered, 100, units.MBPS)
	nvm.Tier = tier.MustLookup("nvm-optane")
	vbr := baseConfig(Buffered, 60, units.MBPS)
	vbr.VBRCoV = 0.3
	vbr.Writers = 7
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"readers", baseConfig(Buffered, 100, units.MBPS)},
		{"writers-besteffort", rw},
		{"n-not-divisible-by-k", odd},
		{"nvm-optane", nvm},
		{"vbr-writers", vbr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(reference bool) (Result, []ioRec) {
				cfg := tc.cfg
				cfg.Trace = true
				if err := validate(&cfg); err != nil {
					t.Fatal(err)
				}
				b, err := newCycleRun(cfg)
				if err != nil {
					t.Fatal(err)
				}
				log := record(b.pipe)
				if reference {
					mems := &b.stages[1]
					o := newPerStreamWalk(b.pipe, mems.period)
					mems.fn = func(m int64) {
						o.cycle(m)
						if cfg.BestEffort {
							b.bestEffort.queue()
						}
					}
				}
				return b.run(), *log
			}
			want, wantLog := run(true)
			got, gotLog := run(false)
			diffLogs(t, gotLog, wantLog)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Results differ:\n got %+v\nwant %+v", got, want)
			}
			if tc.cfg.Writers > 0 && got.WriterPeakDRAM <= 0 {
				t.Error("recorders left no DRAM peak")
			}
		})
	}
}

// pipeCase drives a bufferPipe on a bare rig, for the shapes a whole
// buffered run cannot reach: a prepared bank, a sparse stream set, a plan
// bent until slots run out early or the bank cannot keep up.
type pipeCase struct {
	name    string
	cfg     Config
	k       int
	writers int
	// streams picks the attached players; nil attaches all of them.
	streams func(t *testing.T, r *rig) []int
	// prep conditions the bank before the pipe attaches its streams.
	prep func(t *testing.T, bb *bank.BufferBank)
	// tune bends the Theorem 2 plan.
	tune func(plan *model.BufferedPlan)
	// low queues two low-priority reads per device per bank cycle.
	low bool

	wantSkips, wantBacklog bool
}

// pipeOutcome is everything a pipe run leaves behind.
type pipeOutcome struct {
	log       []ioRec
	events    uint64
	level     []units.Bytes
	deficit   []units.Bytes
	underflow []int32
	highWater units.Bytes
	marginP5  float64
	marginP50 float64
	staged    []units.Bytes
	peak      units.Bytes
	trace     *Trace
	order     []int32
}

func (c pipeCase) run(t *testing.T, reference bool) (pipeOutcome, *perStreamWalk) {
	t.Helper()
	cfg := c.cfg
	cfg.Trace = true
	if err := validate(&cfg); err != nil {
		t.Fatal(err)
	}
	r, err := newRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]int, r.n)
	for i := range streams {
		streams[i] = i
	}
	if c.streams != nil {
		streams = c.streams(t, r)
	}
	load := model.StreamLoad{N: len(streams), BitRate: cfg.BitRate}
	plan, err := model.BufferPlan(model.BufferConfig{
		Load: load, Disk: diskSpec(r.dsk), Tier: tierSpec(cfg.Tier),
		K: c.k, SizePerDevice: cfg.Tier.Capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan.CapDiskCycle(20*time.Second, load)
	if c.tune != nil {
		c.tune(&plan)
	}
	devs, err := bank.New(c.k, cfg.Tier)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := bank.NewBufferBank(devs, plan.DiskIOSize)
	if err != nil {
		t.Fatal(err)
	}
	if c.prep != nil {
		c.prep(t, bb)
	}
	tDisk, tBank := plan.DiskCycle, plan.MEMSCycle
	for i, st := range r.set.Streams {
		start := tDisk + 4*tBank
		if n := slices.Index(streams, i); n < c.writers {
			start = sim.MaxTime / 2 // recorders, and players left out (-1), never drain
		}
		r.addPlayer(i, r.diskPos(st), start)
	}
	p, err := r.newBufferPipe(bb, plan, streams, c.writers)
	if err != nil {
		t.Fatal(err)
	}
	log := record(p)
	drain := p.tierDrain
	var o *perStreamWalk
	if reference {
		o = newPerStreamWalk(p, tBank)
		drain = o.cycle
	}
	lowRNG := sim.NewRNG(7)
	lowRead := func(it *chainItem, bs time.Duration) time.Duration {
		bc, err := p.devs[it.dev].Service(bs, it.req)
		if err != nil {
			return bs
		}
		return bc.Finish
	}
	const diskCycles = 4
	end := diskCycles * tDisk
	r.cycleLoop("disk", tDisk, 0, diskCycles, p.disk.stage)
	r.cycleLoop("mems", tBank, 1, int64(end/tBank), func(m int64) {
		drain(m)
		if !c.low {
			return
		}
		for dev := range p.bank {
			for j := 0; j < 2; j++ {
				p.bank[dev].submitLow(chainItem{fn: lowRead, dev: int32(dev), req: device.Request{
					Op: device.Read, Block: int64(lowRNG.Uint64n(1 << 20)), Blocks: 64, Stream: -1,
				}})
			}
		}
	})
	r.finish(end)

	ps := &r.ar.ps
	out := pipeOutcome{
		log: *log, events: r.eng.Executed(),
		level: slices.Clone(ps.level), deficit: slices.Clone(ps.deficit),
		underflow: slices.Clone(ps.underflow), highWater: ps.highWater,
		staged: slices.Clone(p.staged), peak: p.writerPeak,
		trace: r.probe.trace, order: p.order,
	}
	out.marginP5, _ = r.margins.Quantile(0.05)
	out.marginP50, _ = r.margins.Quantile(0.5)
	return out, o
}

// hybridMissSet reproduces hybrid's split of the population: the players
// whose titles the striped cache sub-bank does not hold.
func hybridMissSet(t *testing.T, r *rig) []int {
	t.Helper()
	cacheDevs, err := bank.New(r.cfg.CacheDevices, r.cfg.Tier)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := bank.NewStripedBank(cacheDevs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.splitByCache(cb, cacheDevs)
	if err != nil {
		t.Fatal(err)
	}
	miss := s.missed
	if len(miss) == 0 || len(miss) == r.n {
		t.Fatalf("degenerate miss set: %d of %d", len(miss), r.n)
	}
	return miss
}

func TestBufferPipeMatchesPerStreamWalk(t *testing.T) {
	hybrid := baseConfig(Hybrid, 300, 100*units.KBPS)
	hybrid.K = 4
	hybrid.CacheDevices = 2
	hybrid.Titles = 400
	// A sled with room for only three staging rings per device.
	sled := *tier.MustLookup("mems-g3").MEMS
	sled.Capacity = 64 * units.MB
	small := baseConfig(Buffered, 4, units.MBPS)
	small.Tier = tier.FromMEMS("mems-small", sled)
	cases := []pipeCase{
		{
			name: "hybrid-miss-set", cfg: hybrid, k: 2,
			streams: hybridMissSet,
		},
		{
			// Three rings per device. Two strangers stay parked on device 0
			// and a third came and went on device 1, so the round-robin
			// cursor starts at device 1 (stream 0 lands there, on the ring
			// the stranger released: the device order is not the index
			// order) and stream 3 finds device 0 full and overflows.
			name: "fallback-placement", cfg: small, k: 2, writers: 1,
			tune: func(plan *model.BufferedPlan) {
				plan.DiskIOSize = small.Tier.Capacity / 7
				plan.DiskCycle = plan.DiskIOSize.Duration(small.BitRate)
			},
			prep: func(t *testing.T, bb *bank.BufferBank) {
				for _, s := range []int{1000, 1001, 1002} {
					if _, err := bb.Attach(s); err != nil {
						t.Fatal(err)
					}
				}
				bb.Detach(1001)
			},
		},
		{
			// A slot that holds fewer pieces than the disk cycle has bank
			// cycles: every stream runs dry before the refill.
			name: "slot-consumed-skip", cfg: baseConfig(Buffered, 40, units.MBPS), k: 2, writers: 6,
			tune: func(plan *model.BufferedPlan) {
				plan.DiskIOSize = units.BytesIn(units.MBPS, plan.MEMSCycle) * 5 / 2
				plan.DiskCycle = 6 * plan.MEMSCycle
			},
			wantSkips: true,
		},
		{
			// Bank cycles far shorter than the bank can serve: every chain
			// carries its backlog over each disk-cycle boundary, so items
			// queued under one parity run after the next cycle began.
			name: "backlog-across-disk-cycles", cfg: baseConfig(Buffered, 90, units.MBPS), k: 3, writers: 9,
			tune: func(plan *model.BufferedPlan) {
				plan.MEMSCycle /= 40
				plan.DiskCycle = 12 * plan.MEMSCycle
			},
			low:         true,
			wantBacklog: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, o := c.run(t, true)
			got, _ := c.run(t, false)
			diffLogs(t, got.log, want.log)
			got.log, want.log = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("outcomes differ:\n got %+v\nwant %+v", got, want)
			}
			if c.wantSkips && o.skips == 0 {
				t.Error("no slot ran dry; the case does not exercise the skip")
			}
			if c.wantBacklog && o.backlogs < 3 {
				t.Errorf("chains backed up over %d disk-cycle boundaries, want all 3", o.backlogs)
			}
			if c.name == "fallback-placement" {
				if !slices.Equal(got.order, []int32{1, 0}) {
					t.Errorf("device order %v, want [1 0]", got.order)
				}
			}
		})
	}
}
